from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from gcg.caps import PROFILES, caps_from_env
from gcg.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_list(capsys):
    code, out, _ = run_cli(capsys, "group", "list", "--max-order", "6")
    assert code == 0
    assert "Z6" in out and "D6" in out and "Z8" not in out
    code, out, _ = run_cli(capsys, "--format", "json", "group", "list", "--max-order", "4")
    rows = json.loads(out)
    assert {r["group"] for r in rows} == {"Z1", "Z2", "Z3", "Z4", "Z2xZ2", "D4"}


def test_build_valid_spec(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "build",
        "--group", "Z6", "--alpha", "1", "--set", "1,3,5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["vertices"] == 6 and payload["edges"] == 9
    assert payload["kernel"] == [0, 2, 4]
    assert payload["unworthy"] is True
    assert payload["aut_order"] == 72
    assert payload["cayley"] == "cayley"
    assert payload["bipartite"] is True
    assert payload["stability"] == "not_applicable"


def test_build_invalid_spec_exit_2(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "build",
        "--group", "Z4", "--alpha", "1", "--set", "2",
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["cond_ii"] is False
    assert payload["witness_ii"] == 1


def test_build_echoes_the_sorted_distinct_set(capsys):
    for ids, code_want, echo in (("3,1,1", 0, [1, 3]), ("2,2", 2, [2])):
        code, out, _ = run_cli(
            capsys, "--format", "json", "build", "--group", "Z4", "--alpha", "1", "--set", ids,
        )
        assert code == code_want
        assert json.loads(out)["set_ids"] == echo
    code, out, _ = run_cli(
        capsys, "--format", "json", "analyze", "--group", "Z4", "--alpha", "1", "--set", "3,1,1",
    )
    assert code == 0 and json.loads(out)["set_ids"] == [1, 3]


def test_build_exits_3_when_a_search_runs_out(capsys):
    # On this spec 8 refinement nodes stop the automorphism search and 9 the
    # double-cover search of the stability check.  build refuses both, where
    # analyze prints the record with its stability unknown.
    spec = ("--group", "D6", "--alpha", "0", "--set", "1,2,3,4")
    for budget, code_want in (("8", 3), ("9", 3), ("14", 0)):
        code, out, err = run_cli(capsys, "--caps-aut", budget, "--format", "json", "build", *spec)
        assert code == code_want, (budget, err)
    assert json.loads(out)["stability"] == "unstable"
    code, out, _ = run_cli(capsys, "--caps-aut", "9", "--format", "json", "analyze", *spec)
    assert code == 0 and json.loads(out)["stability"] == "unknown"


def test_build_exits_3_when_the_regular_subgroup_search_runs_out(capsys, monkeypatch):
    # the 5-cycle is connected and co-connected, so its Cayley verdict comes
    # from the regular-subgroup search, which one chain node cannot finish
    from dataclasses import replace

    import gcg.cli

    monkeypatch.setattr(gcg.cli, "caps_from_env", lambda: replace(caps_from_env(), regular_search_budget=1))
    spec = ("--group", "Z5", "--alpha", "0", "--set", "1,4")
    code, out, err = run_cli(capsys, "--format", "json", "build", *spec)
    assert code == 3 and out == ""
    assert "regular-subgroup search" in err
    code, out, _ = run_cli(capsys, "--format", "json", "analyze", *spec)
    assert code == 0 and json.loads(out)["cayley"] == "unknown"


def test_analyze_certifies_instability_without_a_search(capsys):
    # alpha #2 of D8 is not the identity, and the graph is connected and not
    # bipartite: a twisted translation certifies instability where a budget
    # of 0 nodes stops every search
    code, out, _ = run_cli(capsys, "--caps-aut", "0", "--format", "json", "analyze",
                           "--group", "D8", "--alpha", "2", "--set", "1,4,5,7")
    record = json.loads(out)
    assert code == 0 and record["connected"] and not record["bipartite"]
    assert record["stability"] == "unstable"
    assert record["vertex_transitive"] == "unknown" and record["fingerprint"] is None


def test_build_trivial_group(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "build",
        "--group", "Z1", "--alpha", "0", "--set", "",
    )
    assert code == 0
    assert json.loads(out)["edges"] == 0


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    # unknown descriptor and out-of-range alpha index are usage errors too
    code, _, err = run_cli(capsys, "build", "--group", "Q8", "--alpha", "0", "--set", "")
    assert code == 1 and "error" in err
    code, _, err = run_cli(capsys, "build", "--group", "Z4", "--alpha", "9", "--set", "")
    assert code == 1 and "out of range" in err
    code, _, err = run_cli(capsys, "build", "--group", "Z4", "--alpha", "1", "--set", "a,b")
    assert code == 1


def test_element_out_of_range_is_spec_error(capsys):
    code, _, err = run_cli(capsys, "build", "--group", "Z4", "--alpha", "1", "--set", "7")
    assert code == 2
    assert "invalid spec" in err


def test_enumerate(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "enumerate", "--group", "Z6", "--alpha", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["sets"]) == 8
    assert [] in payload["sets"] and [1, 3, 5] in payload["sets"]
    code, out, _ = run_cli(
        capsys, "enumerate", "--group", "Z6", "--alpha", "1", "--nonempty",
    )
    lines = out.splitlines()
    assert len(lines) == 7 and all(line for line in lines)


def test_analyze(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "analyze",
        "--group", "Z6", "--alpha", "1", "--set", "1,3,5",
    )
    assert code == 0
    record = json.loads(out)
    assert record["fingerprint"] == "Es\\o"
    assert record["triangle_hash"] == "53757acada591c6b"
    assert record["kernel_size"] == 3


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma-4.1", "--p", "3")
    assert code == 0
    report = json.loads(out.splitlines()[0])
    assert report["verdict"] == "verified"

    code, out, _ = run_cli(capsys, "verify", "thm-3.5", "--group", "Z2xZ2xZ3")
    assert code == 0
    report = json.loads(out.splitlines()[0])
    assert report["certificate"]["branch"] == "neither"

    # a group outside thm-3.1's hypothesis is refused, not verified
    code, out, err = run_cli(capsys, "verify", "thm-3.1", "--groups", "Z3")
    assert code == 1 and out == ""
    assert "cyclic Sylow 2-subgroup; Z3: group has odd order" in err

    # a cap small enough to abort enumeration maps to the budget exit code
    code, _, err = run_cli(capsys, "--caps-bits", "2", "verify", "prop-2.1")
    assert code == 3
    assert "3 orbits exceed bit budget 2" in err


def test_the_bit_cap_limits_set_enumeration_not_layer_sweeps(capsys):
    # thm-3.5 checks Z48's 24 connection orbits one layer at a time and
    # enumerates no set, so only listing the 2^24 sets meets the cap
    code, out, _ = run_cli(capsys, "--caps-bits", "8", "verify", "thm-3.5", "--group", "Z48")
    assert code == 0 and json.loads(out)["verdict"] == "verified"
    # so do the order-2p sweeps, whose D10|alpha#0 has 7 orbits
    for tid in ("lemma-4.2", "thm-4.3"):
        code, out, _ = run_cli(capsys, "--caps-bits", "2", "verify", tid)
        assert code == 0
        assert {json.loads(line)["verdict"] for line in out.splitlines()} == {"verified"}
    code, out, err = run_cli(capsys, "--caps-bits", "8", "enumerate", "--group", "Z48", "--alpha", "7")
    assert code == 3 and out == ""
    assert "24 orbits exceed bit budget 8" in err


@pytest.mark.parametrize("argv, message", [
    (("prop-2.2", "--max-order", "0"), "prop-2.2 found no instance to check with max_order=0"),
    (("thm-3.5", "--max-order", "0"), "thm-3.5 found no instance to check with max_order=0"),
])
def test_verify_that_checks_nothing_is_an_error(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (("thm-3.1", "--group", "Z8"), "thm-3.1 does not read group; it reads groups"),
    (("lemma-2.3", "--group", "Z8"), "lemma-2.3 does not read group; it reads max_order"),
    (("thm-3.5", "--groups", "Z8"), "thm-3.5 does not read groups; it reads group, max_order"),
    (("lemma-3.4", "--max-order", "8"), "lemma-3.4 does not read max_order; it reads no parameters"),
    (("ex-3.2", "--m", "2"), "ex-3.2 reads m and n together"),
])
def test_verify_refuses_flags_its_verifier_does_not_read(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 1 and out == ""
    assert message in err


def test_verify_runs_only_the_instances_its_flags_name(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm-3.5", "--group", "Z8")
    assert code == 0
    assert [json.loads(line)["instance"] for line in out.splitlines()] == ["Z8"]
    code, out, _ = run_cli(capsys, "verify", "lemma-4.1", "--p", "5")
    assert code == 0
    assert [json.loads(line)["instance"] for line in out.splitlines()] == ["Z10"]


@pytest.mark.parametrize("argv", [
    ("verify", "thm-3.5", "--group", ""),
    ("verify", "thm-3.1", "--groups", ""),
    ("census", "--groups", "", "--out", "census.jsonl"),
])
def test_an_empty_group_flag_is_refused(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "bad descriptor ''" in err
    assert list(tmp_path.iterdir()) == []


def test_verify_rejects_unknown_theorem(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm-0.0"])
    assert exc.value.code == 1


def test_census_command(tmp_path, capsys):
    out_path = tmp_path / "census.jsonl"
    code, out, _ = run_cli(
        capsys, "census", "--groups", "Z4,Z5", "--out", str(out_path),
    )
    assert code == 0
    assert out.strip().endswith(str(out_path))
    lines = out_path.read_text().splitlines()
    assert len(lines) == 13  # Z4: 8 rows, Z5: 5 rows
    assert out.startswith("13 records")
    # the same --out under another configuration is refused, not reused
    code, out, err = run_cli(
        capsys, "census", "--groups", "Z4", "--out", str(out_path),
    )
    assert code == 1 and out == ""
    assert "groups" in err and str(out_path) in err


@pytest.mark.parametrize("argv, flag", [
    (("census", "--max-order", "0"), "--max-order"),
    (("--jobs", "0", "census"), "--jobs"),
    (("--jobs", "two", "census"), "--jobs"),
])
def test_census_counts_must_be_positive(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "census.jsonl")])
    assert exc.value.code == 1
    assert f"argument {flag}:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_census_prints_its_summary_and_cross_check_to_stderr(tmp_path, capsys):
    out_path = tmp_path / "census.jsonl"
    code, out, err = run_cli(capsys, "census", "--groups", "Z4,Z5", "--out", str(out_path))
    assert code == 0 and out == f"13 records -> {out_path}\n"
    lines = err.splitlines()
    assert re.fullmatch(r"elapsed \d+\.\ds", lines[0])
    assert "7 isomorphism classes (distinct fingerprints)" in lines
    assert "              Z4      8 records" in lines and "unworthy: 6" in lines
    assert lines[-1] == "cross-checks: clean"


def test_census_exits_2_on_a_refuting_record(tmp_path, capsys, monkeypatch):
    import gcg.census

    work = gcg.census._work

    def flipped(args):
        name, records = work(args)
        return name, [dict(r, unworthy=not r["unworthy"]) for r in records]

    # every one of the 13 records refutes Prop 5.1; ten of them are named
    monkeypatch.setattr(gcg.census, "_work", flipped)
    code, out, err = run_cli(capsys, "census", "--groups", "Z4,Z5", "--out", str(tmp_path / "c.jsonl"))
    assert code == 2 and out.startswith("13 records -> ")
    refuting = [line for line in err.splitlines() if line.startswith("REFUTING ")]
    assert len(refuting) == 10 and "cross-checks: clean" not in err
    assert refuting[0] == "REFUTING Z4 alpha#0 S=[]: unworthiness flag disagrees with kernel size"


def test_census_exits_3_on_a_cap(tmp_path, capsys):
    code, out, err = run_cli(capsys, "census", "--groups", "Z300", "--out", str(tmp_path / "census.jsonl"))
    assert code == 3 and out == ""
    assert re.fullmatch(r"gcg: budget exhausted: group order 300 exceeds cap \d+\n", err)
    assert list(tmp_path.iterdir()) == []


def test_census_defaults_to_order_8(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "census", "--out", str(tmp_path / "c.jsonl"))
    assert code == 0 and out.startswith("928 records -> ")


@pytest.mark.parametrize("argv, message", [
    (("--bogus",), "error: unrecognized arguments: --bogus"),
    (("lemma-4.1", "thm-9.9"), "error: unknown theorem id 'thm-9.9'"),
])
def test_verify_all_refuses_a_usage_error(argv, message):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "verify_all.py"), *argv],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("usage: verify_all.py") and message in proc.stderr


def test_verify_all_refuses_an_unknown_caps_profile():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "verify_all.py"), "lemma-4.1"],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src"), GCG_CAPS_PROFILE="nope"),
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("usage: verify_all.py")
    assert "error: unknown caps profile 'nope'" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("census", "--groups", "Z4"),
    ("export", "--group", "Z4", "--alpha", "1", "--set", "1,3"),
])
def test_an_out_in_a_missing_directory_is_an_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x.jsonl"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("gcg: error: ") and "No such file or directory" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_census_refuses_a_group_listed_twice(tmp_path, capsys):
    code, out, err = run_cli(capsys, "census", "--groups", "Z4,Z4", "--out", str(tmp_path / "c.jsonl"))
    assert code == 1 and out == ""
    assert "census group Z4 is listed twice" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("groups, twice", [
    ("Z4,Z4", "Z4"), ("Z4,Z04", "Z4"), ("Z2,Z4,Z02", "Z2"),
    ("Z3,Z4,Z4", "Z4"),   # refused before Z3 meets the hypothesis check
])
def test_thm_3_1_refuses_a_group_listed_twice(capsys, groups, twice):
    code, out, err = run_cli(capsys, "verify", "thm-3.1", "--groups", groups)
    assert code == 1 and out == ""
    assert f"thm-3.1 group {twice} is listed twice" in err


def test_thm_3_1_names_each_instance_by_its_resolved_group(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "verify", "thm-3.1", "--groups", "Z04,Z02xZ3")
    assert code == 0
    assert [json.loads(line)["instance"] for line in out.splitlines()] == ["Z2xZ3", "Z4"]


@pytest.mark.parametrize("argv", [
    ("--caps-bits", "-1", "enumerate", "--group", "Z4", "--alpha", "0"),
    ("--caps-aut", "-3", "analyze", "--group", "Z4", "--alpha", "1", "--set", "1,3"),
])
def test_negative_caps_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: gcg")
    assert f"error: argument {argv[0]}: must be at least 0, got {argv[1]}" in err


def test_zero_caps_are_accepted(capsys):
    # a zero budget is a budget: the bit cap refuses the enumeration, and the
    # automorphism search answers unknown
    code, out, err = run_cli(capsys, "--caps-bits", "0", "enumerate", "--group", "Z4", "--alpha", "0")
    assert code == 3 and "2 orbits exceed bit budget 0" in err
    code, out, _ = run_cli(capsys, "--caps-aut", "0", "--format", "json", "analyze",
                           "--group", "Z4", "--alpha", "1", "--set", "1,3")
    assert code == 0 and json.loads(out)["vertex_transitive"] == "unknown"


def test_caps_profile_is_read_from_the_environment(monkeypatch):
    monkeypatch.setenv("GCG_CAPS_PROFILE", "extended")
    assert caps_from_env() == PROFILES["extended"]
    assert caps_from_env() != PROFILES["desk"]


def test_unknown_caps_profile_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("GCG_CAPS_PROFILE", "huge")
    code, out, err = run_cli(capsys, "group", "list")
    assert code == 1 and out == ""
    assert "unknown caps profile 'huge'" in err


def test_export_formats(tmp_path, capsys):
    base = ("export", "--group", "Z4", "--alpha", "1", "--set", "1,3")
    code, out, _ = run_cli(capsys, *base)
    assert code == 0 and out.strip() == "Cl"
    code, out, _ = run_cli(capsys, "--format", "graph6", *base, "--canonical")
    assert code == 0 and out.strip() == "Cr"
    code, out, _ = run_cli(capsys, "--format", "dot", *base)
    assert code == 0 and out.startswith('graph "Z4"')
    code, out, _ = run_cli(capsys, "--format", "json", *base)
    assert json.loads(out)["n"] == 4
    target = tmp_path / "c4.g6"
    code, out, _ = run_cli(capsys, *base, "--out", str(target))
    assert code == 0 and target.read_text() == "Cl\n"


@pytest.mark.parametrize("argv, flag", [
    (("--format", "xml", "analyze", "--group", "Z4", "--alpha", "1", "--set", "1,3"), "argument --format:"),
    (("--format", "graph6", "verify", "lemma-4.1", "--p", "3"), "--format graph6 applies to export only"),
    (("--format", "dot", "analyze", "--group", "Z4", "--alpha", "1", "--set", "1,3"),
     "--format dot applies to export only"),
    (("--format", "json", "export", "--canonical", "--group", "D8", "--alpha", "2", "--set", "1,3"),
     "--canonical applies to --format graph6 only"),
    (("--format", "dot", "export", "--canonical", "--group", "D8", "--alpha", "2", "--set", "1,3"),
     "--canonical applies to --format graph6 only"),
    (("group", "list", "--max-order", "0"), "argument --max-order: must be at least 1, got 0"),
    (("group", "list", "--max-order", "-1"), "argument --max-order: must be at least 1, got -1"),
    # the group list alone decides a --groups census
    (("census", "--groups", "Z4", "--max-order", "8", "--out", "c.jsonl"),
     "--max-order applies to a census without --groups only"),
])
def test_flags_a_command_would_ignore_are_refused(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and flag in err
