from __future__ import annotations

import hashlib
import json
import os
import shutil
from collections import Counter
from dataclasses import replace
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcg.automorphisms import (
    automorphism_from_perm,
    enumerate_automorphisms,
    enumerate_involutory_automorphisms,
    identity_automorphism,
)
from gcg.catalog import builtin_descriptors
from gcg.caps import Caps
from gcg.census import RunConfig, compute_record, refuting_records, run_census
from gcg.errors import DescriptorError, ManifestMismatch
from gcg.construct import connection_orbits, make_spec
from gcg.automorphisms import inversion_map
from gcg.groups import make_group

from oracles.brute import naive_census_count


def read_lines(path):
    with open(path, "r", encoding="ascii") as fh:
        return [line for line in fh if line.strip()]


def test_single_group_census(tmp_path, caps):
    out = tmp_path / "z8.jsonl"
    records = run_census(RunConfig(groups=("Z8",), out_path=str(out), caps=caps))
    assert len(records) == 44
    # alphas sort by perm: identity, x -> 3x, x -> 5x, x -> 7x (inversion)
    by_alpha = Counter(r["alpha_index"] for r in records)
    assert by_alpha == {0: 16, 1: 4, 2: 8, 3: 16}
    assert sorted(os.listdir(tmp_path)) == ["z8.jsonl", "z8.jsonl.manifest.json"]
    # records carry every analysis column
    for r in records:
        for key in ("group", "alpha_index", "alpha", "set_ids", "order", "degree",
                    "connected", "bipartite", "unworthy", "kernel_size",
                    "triangle_hash", "fingerprint", "vertex_transitive",
                    "cayley", "stability"):
            assert key in r, key
    assert refuting_records(records) == []


def test_full_catalog_counts_up_to_8(tmp_path, caps):
    out = tmp_path / "census8.jsonl"
    records = run_census(RunConfig(max_order=8, out_path=str(out), caps=caps))
    per_group = Counter(r["group"] for r in records)
    assert per_group == {
        "Z1": 1, "Z2": 2, "Z3": 3, "Z4": 8, "Z2xZ2": 14, "D4": 14, "Z5": 5,
        "Z6": 16, "Z2xZ3": 16, "D6": 28, "Z7": 9,
        "Z8": 44, "Z2xZ4": 160, "Z2xZ2xZ2": 464, "D8": 144,
    }
    assert len(records) == 928
    assert refuting_records(records) == []

    # the oracle recount sees exactly the same totals
    triples = []
    for name in per_group:
        g = make_group(name, caps)
        triples.append(
            (g.mul, g.inv, [a.perm for a in enumerate_involutory_automorphisms(g)])
        )
    assert naive_census_count(triples) == 928

    # sorted output: (group, alpha_index, set_ids) ascending
    keys = [(r["group"], r["alpha_index"], tuple(r["set_ids"])) for r in records]
    assert keys == sorted(keys)


def test_worker_count_does_not_change_bytes(tmp_path, caps):
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    # at order 8 orbit sharing and the verdict memo cross work items and workers
    cfg = dict(max_order=8, caps=caps)
    run_census(RunConfig(out_path=str(serial), jobs=1, **cfg))
    run_census(RunConfig(out_path=str(parallel), jobs=2, **cfg))
    assert serial.read_bytes() == parallel.read_bytes()


def write_lines(path, records):
    with open(path, "w", encoding="ascii") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")


def test_census_resumes_from_block_files(tmp_path, caps):
    # reference run
    ref = tmp_path / "ref.jsonl"
    cfg = dict(groups=("Z4", "Z5"), caps=caps)
    expected = run_census(RunConfig(out_path=str(ref), **cfg))

    # fabricate an interrupted run: Z4's block file in place, plus an orphan
    # record of Z5 in a block file that was never renamed into place
    out = tmp_path / "resume.jsonl"
    parts = tmp_path / "resume.jsonl.parts"
    parts.mkdir()
    orphan = dict(next(r for r in expected if r["group"] == "Z5"), triangle_hash="feedfacefeedface")
    write_lines(parts / "Z4.jsonl", [r for r in expected if r["group"] == "Z4"])
    write_lines(parts / "Z5.jsonl.tmp", [orphan])
    shutil.copy(str(ref) + ".manifest.json", str(out) + ".manifest.json")

    resumed = run_census(RunConfig(out_path=str(out), **cfg))
    assert resumed == expected
    assert ref.read_bytes() == out.read_bytes()
    # the orphan was recomputed, not trusted
    assert not any(r["triangle_hash"] == "feedfacefeedface" for r in resumed)
    assert not parts.exists()


def test_census_resumes_after_a_line_cut_short(tmp_path, caps):
    # a run killed while writing a record leaves a line without its newline
    # in a block file not yet renamed into place, so the resumed run ignores
    # it and recomputes the group
    ref = tmp_path / "ref.jsonl"
    cfg = dict(groups=("Z4", "Z5"), caps=caps)
    expected = run_census(RunConfig(out_path=str(ref), **cfg))
    out = tmp_path / "cut.jsonl"
    parts = tmp_path / "cut.jsonl.parts"
    parts.mkdir()
    write_lines(parts / "Z4.jsonl", [r for r in expected if r["group"] == "Z4"])
    z5_line = json.dumps(next(r for r in expected if r["group"] == "Z5"), sort_keys=True,
                         separators=(",", ":"))
    (parts / "Z5.jsonl.tmp").write_text(z5_line[: len(z5_line) // 2], encoding="ascii")
    shutil.copy(str(ref) + ".manifest.json", str(out) + ".manifest.json")

    assert run_census(RunConfig(out_path=str(out), **cfg)) == expected
    assert ref.read_bytes() == out.read_bytes()


def test_census_reload_is_idempotent(tmp_path, caps):
    out = tmp_path / "reload.jsonl"
    cfg = RunConfig(groups=("Z6",), out_path=str(out), caps=caps)
    first = run_census(cfg)
    stamp = out.stat().st_mtime_ns
    again = run_census(cfg)
    assert again == first
    assert out.stat().st_mtime_ns == stamp  # file untouched on reload


def test_census_reuse_checks_the_manifest(tmp_path, caps):
    out = tmp_path / "stale.jsonl"
    assert len(run_census(RunConfig(max_order=4, out_path=str(out), caps=caps))) == 42
    stale = out.read_bytes()
    # a finished order-4 census is not passed off as the order-6 one
    with pytest.raises(ManifestMismatch, match="groups = ") as exc:
        run_census(RunConfig(max_order=6, out_path=str(out), caps=caps))
    assert "'Z6'" in str(exc.value).split("this run has")[1]
    assert out.read_bytes() == stale
    assert len(run_census(RunConfig(max_order=6, out_path=str(tmp_path / "fresh.jsonl"), caps=caps))) == 107
    # the worker count is not part of the manifest
    assert len(run_census(RunConfig(max_order=4, out_path=str(out), jobs=2, caps=caps))) == 42

    # a resume from block files checks the manifest too
    os.mkdir(str(out) + ".parts")
    with pytest.raises(ManifestMismatch, match="caps.aut_node_budget"):
        run_census(RunConfig(max_order=4, out_path=str(out), caps=replace(caps, aut_node_budget=7)))
    with pytest.raises(ManifestMismatch, match="groups"):
        run_census(RunConfig(groups=("Z4",), max_order=4, out_path=str(out), caps=caps))

    # without a manifest nothing says which configuration wrote the output
    os.remove(str(out) + ".manifest.json")
    os.rmdir(str(out) + ".parts")
    with pytest.raises(ManifestMismatch, match="no manifest"):
        run_census(RunConfig(max_order=4, out_path=str(out), caps=caps))


def test_a_group_list_census_is_reused_under_another_max_order(tmp_path, caps):
    # max_order only chooses the groups, so a census with a group list does
    # not depend on it
    out = tmp_path / "z12.jsonl"
    first = run_census(RunConfig(groups=("Z12",), max_order=8, out_path=str(out), caps=caps))
    stamp = out.stat().st_mtime_ns
    assert run_census(RunConfig(groups=("Z12",), max_order=12, out_path=str(out), caps=caps)) == first
    assert out.stat().st_mtime_ns == stamp


def test_a_lone_stale_manifest_is_refused(tmp_path, caps):
    out = tmp_path / "census.jsonl"
    run_census(RunConfig(groups=("Z4",), out_path=str(out), caps=caps))
    os.remove(out)
    with pytest.raises(ManifestMismatch, match="groups"):
        run_census(RunConfig(groups=("Z5",), out_path=str(out), caps=caps))
    assert sorted(os.listdir(tmp_path)) == ["census.jsonl.manifest.json"]


def test_schema_1_journal_is_refused(tmp_path, caps):
    # A schema-1 journal names single alphas done (say Z2xZ2xZ2|1), a schema-2
    # journal Aut(G)-classes of alpha under the same keys, and a schema-3
    # journal whole groups whose lines sit in a shared part file; schema 4
    # keeps one block file per finished group, so a run killed under an
    # older schema is refused, not reinterpreted.
    from gcg.census import MANIFEST_SCHEMA

    out = tmp_path / "old.jsonl"
    cfg = RunConfig(groups=("Z2xZ2xZ2",), out_path=str(out), caps=caps)
    run_census(cfg)
    manifest_path = str(out) + ".manifest.json"
    with open(manifest_path, "r", encoding="ascii") as fh:
        manifest = json.load(fh)
    assert manifest["schema"] == MANIFEST_SCHEMA == 4
    os.remove(out)
    with open(str(out) + ".journal", "w", encoding="ascii") as fh:
        fh.write("Z2xZ2xZ2|1\n")
    for schema in (1, 2, 3):
        with open(manifest_path, "w", encoding="ascii") as fh:
            json.dump(dict(manifest, schema=schema), fh)
        with pytest.raises(ManifestMismatch, match=f"schema = {schema}") as exc:
            run_census(cfg)
        assert "this run has 4" in str(exc.value)


def test_resume_keeps_whole_groups(tmp_path, monkeypatch, caps):
    import gcg.census as census

    # Z2xZ2 has involutions 0 (identity) and 1, 2, 3, which Aut = S3
    # conjugates; the group's block file keeps the records of all of them
    cfg = dict(groups=("Z2xZ2", "Z5"), caps=caps)
    expected = run_census(RunConfig(out_path=str(tmp_path / "ref.jsonl"), **cfg))
    out = tmp_path / "resume.jsonl"
    finished = [r for r in expected if r["group"] == "Z2xZ2"]
    assert {r["alpha_index"] for r in finished} == {0, 1, 2, 3}
    os.mkdir(str(out) + ".parts")
    write_lines(str(out) + ".parts/Z2xZ2.jsonl", finished)
    shutil.copy(str(tmp_path / "ref.jsonl.manifest.json"), str(out) + ".manifest.json")
    ran = []
    real = census._work
    monkeypatch.setattr(census, "_work", lambda args: ran.append(args[0]) or real(args))
    assert run_census(RunConfig(out_path=str(out), **cfg)) == expected
    assert ran == ["Z5"]


class Killed(Exception):
    """Stands for the interruption of a census run."""


def killed_at(work, name):
    """The work function work, but interrupted when it reaches the group name."""

    def killed(args):
        if args[0] == name:
            raise Killed(name)
        return work(args)

    # the pool pickles it by the name it is patched in under, which forked
    # workers resolve to it
    killed.__module__, killed.__qualname__ = work.__module__, work.__qualname__
    return killed


def test_a_resume_leaves_no_second_copy_of_a_groups_lines(tmp_path, monkeypatch, caps):
    import gcg.census as census

    cfg = dict(groups=("Z4", "Z5", "Z6"), caps=caps)
    ref = tmp_path / "ref.jsonl"
    run_census(RunConfig(out_path=str(ref), **cfg))
    z5_lines = [line for line in read_lines(ref) if json.loads(line)["group"] == "Z5"]
    out = RunConfig(out_path=str(tmp_path / "out.jsonl"), **cfg)
    real = census._work
    # run 1 finishes Z4 and is killed after two lines of Z5 were written
    monkeypatch.setattr(census, "_work", killed_at(real, "Z5"))
    with pytest.raises(Killed):
        run_census(out)
    with open(out.out_path + ".parts/Z5.jsonl.tmp", "w", encoding="ascii") as fh:
        fh.writelines(z5_lines[:2])
    # run 2 finishes Z5 and is killed in Z6; run 3 finishes
    monkeypatch.setattr(census, "_work", killed_at(real, "Z6"))
    with pytest.raises(Killed):
        run_census(out)
    monkeypatch.undo()
    assert len(run_census(out)) == 29
    assert (tmp_path / "out.jsonl").read_bytes() == ref.read_bytes()


def test_a_deleted_block_runs_again(tmp_path, monkeypatch, caps):
    import gcg.census as census

    cfg = dict(groups=("Z4", "Z5"), caps=caps)
    ref = tmp_path / "ref.jsonl"
    expected = run_census(RunConfig(out_path=str(ref), **cfg))
    out = RunConfig(out_path=str(tmp_path / "out.jsonl"), **cfg)
    monkeypatch.setattr(census, "_work", killed_at(census._work, "Z5"))
    with pytest.raises(Killed):
        run_census(out)
    monkeypatch.undo()
    # Z4 finished, but its block file is gone
    os.remove(out.out_path + ".parts/Z4.jsonl")
    ran = []
    real = census._work
    monkeypatch.setattr(census, "_work", lambda args: ran.append(args[0]) or real(args))
    assert run_census(out) == expected
    assert ran == ["Z4", "Z5"]
    assert (tmp_path / "out.jsonl").read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("group", ["Z4", "Z5", "Z6", "D6", "Z2xZ2"])
def test_a_census_killed_in_any_group_resumes_to_the_same_bytes(tmp_path, monkeypatch, caps, jobs, group):
    import gcg.census as census

    cfg = dict(groups=("Z4", "Z5", "Z6", "D6", "Z2xZ2"), jobs=jobs, caps=caps)
    ref = tmp_path / "ref.jsonl"
    expected = run_census(RunConfig(out_path=str(ref), **cfg))
    out = tmp_path / "out.jsonl"
    config = RunConfig(out_path=str(out), **cfg)
    monkeypatch.setattr(census, "_work", killed_at(census._work, group))
    with pytest.raises(Killed):
        run_census(config)
    monkeypatch.undo()
    assert run_census(config) == expected
    assert out.read_bytes() == ref.read_bytes()
    assert not os.path.exists(str(out) + ".parts")


def test_a_resume_of_every_group_builds_no_alpha_class(tmp_path, monkeypatch, caps):
    import gcg.census as census

    cfg = dict(groups=("Z2xZ2", "Z4", "D4"), caps=caps)
    ref = tmp_path / "ref.jsonl"
    expected = run_census(RunConfig(out_path=str(ref), **cfg))
    out = tmp_path / "done.jsonl"
    # every group's block file written, but the run stopped before the output
    parts = tmp_path / "done.jsonl.parts"
    parts.mkdir()
    for name in ("Z2xZ2", "Z4", "D4"):
        write_lines(parts / f"{name}.jsonl", [r for r in expected if r["group"] == name])
    shutil.copy(str(ref) + ".manifest.json", str(out) + ".manifest.json")
    calls = []
    real = census._alpha_classes
    monkeypatch.setattr(census, "_alpha_classes", lambda g: calls.append(g.name) or real(g))
    assert run_census(RunConfig(out_path=str(out), **cfg)) == expected
    assert out.read_bytes() == ref.read_bytes()
    assert calls == []


def test_unworthiness_cross_check_compares_the_graph_with_the_kernel(tmp_path, monkeypatch, caps):
    # `unworthy` is read off the graph's rows and `kernel_size` off
    # kernel_subgroup, so a kernel that lost its members is flagged on every
    # record with twins (Prop 5.1, Cor 5.2)
    import gcg.census as census
    from gcg.groups import subgroup_handle

    monkeypatch.setattr(census, "kernel_subgroup", lambda spec: subgroup_handle(spec.group, 1))
    records = run_census(RunConfig(max_order=8, out_path=str(tmp_path / "c.jsonl"), caps=caps))
    flagged = [rec for rec, why in refuting_records(records) if "unworthiness" in why]
    assert flagged and flagged == [rec for rec in records if rec["unworthy"]]


def test_refuting_records_fire_on_fabricated_rows(tmp_path, caps):
    g = make_group("Z6", caps)
    spec = make_spec(g, inversion_map(g), (1, 3, 5))
    good = compute_record(spec, 1, caps)
    assert refuting_records([good]) == []

    bad_degree = dict(good, degree=99)
    assert any("regular" in why for _, why in refuting_records([bad_degree]))

    bad_unworthy = dict(good, unworthy=not good["unworthy"])
    assert any("unworthiness" in why for _, why in refuting_records([bad_unworthy]))

    bad_cayley = dict(good, cayley="cayley", vertex_transitive=False)
    assert any("vertex-transitive" in why for _, why in refuting_records([bad_cayley]))

    bad_2p = dict(good, cayley="not_cayley")
    assert any("order-2p" in why for _, why in refuting_records([bad_2p]))

    bad_stable = dict(good, stability="stable", cayley="not_cayley", order=12)
    assert any("stable instance" in why for _, why in refuting_records([bad_stable]))

    # applicability checks need a connected non-bipartite base record
    g6 = make_group("Z6", caps)
    tri = compute_record(make_spec(g6, identity_automorphism(g6), (1, 2, 4, 5)), 0, caps)
    assert tri["connected"] and not tri["bipartite"]
    assert refuting_records([tri]) == []
    flipped = dict(tri, stability="not_applicable")
    flopped = dict(tri, connected=False)
    hits = refuting_records([flipped]) + refuting_records([flopped])
    assert sum("applicability" in why for _, why in hits) == 2


def test_refuting_records_fire_on_stable_rows_with_alpha_or_twins(caps):
    # GC(Z5, {1, 4}, id) is the stable 5-cycle; a stable record with alpha !=
    # id has a twisted translation, and an unworthy one has twins
    g = make_group("Z5", caps)
    stable = compute_record(make_spec(g, identity_automorphism(g), (1, 4)), 0, caps)
    assert stable["stability"] == "stable" and not stable["unworthy"]
    assert refuting_records([stable]) == []

    moved = dict(stable, alpha_index=1)
    assert [why for _, why in refuting_records([moved])] == ["a stable instance must have alpha = id"]
    twins = dict(stable, unworthy=True, kernel_size=5)
    assert [why for _, why in refuting_records([twins])] == ["a stable instance must be worthy"]
    both = dict(twins, alpha_index=2)
    assert len(refuting_records([both])) == 2
    assert refuting_records([dict(moved, stability="unstable")]) == []


def test_known_intransitive_family_appears(tmp_path, caps):
    out = tmp_path / "z2z2z3.jsonl"
    records = run_census(RunConfig(groups=("Z2xZ2xZ3",), out_path=str(out), caps=caps))
    assert len(records) == 760
    non_vt = [r for r in records if r["vertex_transitive"] is False]
    assert len(non_vt) == 228
    # the inversion map sorts to alpha index 4 and owns most of them
    assert sum(1 for r in non_vt if r["alpha_index"] == 4) == 204
    assert refuting_records(records) == []


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        RunConfig(jobs=0)
    with pytest.raises(ValueError):
        RunConfig(max_order=0)


def test_an_empty_group_filter_is_refused(tmp_path, caps):
    # () names no group; it is not the absent filter None, the whole catalog
    with pytest.raises(ValueError, match="names no group"):
        run_census(RunConfig(groups=(), max_order=3, out_path=str(tmp_path / "c.jsonl"), caps=caps))
    assert os.listdir(tmp_path) == []


def test_a_group_listed_twice_is_refused_before_anything_is_written(tmp_path, caps):
    # "Z04" resolves to Z4, so the check goes by resolved name
    for groups in (("Z4", "Z4"), ("Z4", "Z5", "Z04")):
        out = tmp_path / "census.jsonl"
        with pytest.raises(DescriptorError, match="census group Z4 is listed twice"):
            run_census(RunConfig(groups=groups, out_path=str(out), caps=caps))
        assert os.listdir(tmp_path) == []


def test_degree_is_read_off_the_graph(monkeypatch, caps):
    import gcg.census as census
    from gcg.graphs import path_graph

    g = make_group("Z6", caps)
    spec = make_spec(g, inversion_map(g), (1, 3, 5))
    assert compute_record(spec, 1, caps)["degree"] == 3
    # an irregular graph yields its degree set, which the cross-check flags
    monkeypatch.setattr(census, "build_gc_graph", lambda _spec: path_graph(6))
    bad = compute_record(spec, 1, caps)
    assert bad["degree"] == [1, 2]
    assert any("regular" in why for _, why in refuting_records([bad]))


def test_jobs_are_clamped(tmp_path, monkeypatch, caps):
    import gcg.census as census

    started = []

    class SerialPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(census, "Pool", SerialPool)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
    ref = run_census(RunConfig(groups=("Z4", "Z5", "Z6"), out_path=str(tmp_path / "a.jsonl"), caps=caps))
    # three pending groups but two CPUs: two workers, not 64
    wide = tmp_path / "b.jsonl"
    assert run_census(RunConfig(groups=("Z4", "Z5", "Z6"), out_path=str(wide), jobs=64, caps=caps)) == ref
    # one pending group runs in-process
    run_census(RunConfig(groups=("Z2",), out_path=str(tmp_path / "c.jsonl"), jobs=64, caps=caps))
    assert started == [2]


def direct_record(rec, caps):
    """compute_record, with no sharing, for the spec a census record names."""
    g = make_group(rec["group"], caps)
    alpha = enumerate_involutory_automorphisms(g)[rec["alpha_index"]]
    return compute_record(make_spec(g, alpha, rec["set_ids"]), rec["alpha_index"], caps)


def test_census_records_equal_direct_records(tmp_path, caps):
    records = run_census(RunConfig(max_order=9, out_path=str(tmp_path / "c9.jsonl"), caps=caps))
    assert len(records) == 1058
    for rec in records:
        assert rec == direct_record(rec, caps), (rec["group"], rec["alpha_index"], rec["set_ids"])


def test_orbit_sharing_follows_only_the_centralizer(caps):
    # Z4xZ4 is among the first catalog groups where an automorphism outside
    # C(alpha) maps a valid set to a valid, non-isomorphic one, so sharing
    # along all of Aut(G) would copy wrong fingerprints into this item.
    # alpha #4 is conjugate to alpha #2, so its records are transported from
    # those of #2.
    from gcg.canon import canonical_form
    from gcg.census import _work
    from gcg.construct import build_gc_graph

    g = make_group("Z4xZ4", caps)
    involutions = enumerate_involutory_automorphisms(g)
    key, records = _work(("Z4xZ4", caps))
    assert key == "Z4xZ4"
    by_alpha = Counter(rec["alpha_index"] for rec in records)
    assert by_alpha[2] == by_alpha[4] == 1024
    for rec in records:
        if rec["alpha_index"] in (2, 4):
            x = build_gc_graph(make_spec(g, involutions[rec["alpha_index"]], rec["set_ids"]))
            assert rec["fingerprint"] == canonical_form(x).fingerprint.decode("ascii"), rec["set_ids"]


def test_alpha_classes_partition_the_involutions(caps):
    from gcg.census import _alpha_classes

    items = {}
    for max_order in (11, 12):
        classes = 0
        items[max_order] = 0
        for name in builtin_descriptors(max_order):
            g = make_group(name, caps)
            involutions = [a.perm for a in enumerate_involutory_automorphisms(g)]
            automorphisms = [phi.perm for phi in enumerate_automorphisms(g)]
            seen = []
            for cls in _alpha_classes(g):
                rep = involutions[cls.rep]
                assert cls.rep == min(j for j, _ in cls.members)
                for j, psi in cls.members:
                    automorphism_from_perm(g, psi)   # raises unless psi is in Aut(G)
                    # psi alpha_rep psi^-1 = alpha_j
                    assert all(psi[rep[x]] == involutions[j][psi[x]] for x in range(g.order)), (name, j)
                    seen.append(j)
                assert set(cls.centralizer) == {
                    p for p in automorphisms if all(p[rep[x]] == rep[p[x]] for x in range(g.order))
                }
            assert sorted(seen) == list(range(len(involutions))), name
            classes += len(_alpha_classes(g))
            items[max_order] += len(involutions)
        assert classes == {11: 47, 12: 70}[max_order]
    assert items == {11: 92, 12: 134}


def burnside_count(g, cls, involutions):
    """(1/|C(alpha)|) sum over phi in C(alpha) of 2^c(phi), where c(phi)
    counts phi's cycles on alpha's connection orbits: the number of
    C(alpha)-orbits of valid sets of the class representative alpha, whose
    valid sets are the unions of its connection orbits (Burnside)."""
    orbits = connection_orbits(g, involutions[cls.rep])
    where = {s: i for i, orbit in enumerate(orbits) for s in orbit}
    total = 0
    for phi in cls.centralizer:
        image = [where[phi[orbit[0]]] for orbit in orbits]
        cycles, seen = 0, set()
        for i in range(len(orbits)):
            if i not in seen:
                cycles += 1
                while i not in seen:
                    seen.add(i)
                    i = image[i]
        total += 2 ** cycles
    assert total % len(cls.centralizer) == 0
    return total // len(cls.centralizer)


def test_full_computations_are_counted_by_burnside(monkeypatch, caps):
    # one full computation per C(alpha_rep)-orbit of valid sets: the census
    # labels those sets in full and transports every other record
    import gcg.census as census

    calls = []
    real = census._labelled_fields
    monkeypatch.setattr(census, "_labelled_fields", lambda *args: calls.append(args) or real(*args))
    total = 0
    for name in builtin_descriptors(12):
        g = make_group(name, caps)
        involutions = enumerate_involutory_automorphisms(g)
        calls.clear()
        records = census._work((name, caps))[1]
        expected = sum(burnside_count(g, cls, involutions) for cls in census._alpha_classes(g))
        assert len(calls) == expected, name
        assert len(records) == sum(2 ** len(connection_orbits(g, a)) for a in involutions), name
        total += expected
    assert total == 1171


@cache
def class_record_samples(name, caps):
    """For each Aut(G)-class of alpha of the group, keyed by its
    representative: about 128 evenly spaced records of the group item whose
    alpha is in the class, so that every member alpha is sampled without
    keeping 100k records alive, and as many of its graphs that are not
    vertex-transitive, whose triangle profiles are the ones that renaming
    can change."""
    from gcg.census import _alpha_classes, _work

    records = _work((name, caps))[1]
    samples = {}
    for cls in _alpha_classes(make_group(name, caps)):
        members = {j for j, _ in cls.members}
        in_class = [rec for rec in records if rec["alpha_index"] in members]
        intransitive = [rec for rec in in_class if rec["vertex_transitive"] is False]
        samples[cls.rep] = (in_class[::max(1, len(in_class) // 128)]
                            + intransitive[::max(1, len(intransitive) // 128)])
    return samples


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_transported_records_equal_direct_records(data):
    # order-16 groups: Z2xZ2xZ2xZ2 (|Aut| = 20160, classes of 1, 105 and 210
    # involutions) and Z4xZ4; most records are transported along C(alpha)
    # or from the class representative
    from gcg.census import _alpha_classes

    caps = Caps()
    name = data.draw(st.sampled_from(("Z2xZ2xZ2xZ2", "Z4xZ4")))
    cls = data.draw(st.sampled_from(_alpha_classes(make_group(name, caps))))
    rec = data.draw(st.sampled_from(class_record_samples(name, caps)[cls.rep]))
    assert rec == direct_record(rec, caps)


def test_verdicts_are_computed_once_per_class(tmp_path, monkeypatch, caps):
    import gcg.cayley as cayley
    import gcg.census as census
    from gcg.canon import canonical_form

    calls, covers = [], []
    real = census.stability_check
    monkeypatch.setattr(census, "stability_check",
                        lambda x, budget, two_fold: calls.append(x) or real(x, budget, two_fold))
    real_cover = cayley.double_cover_automorphism_group
    monkeypatch.setattr(cayley, "double_cover_automorphism_group",
                        lambda x, budget: covers.append(x) or real_cover(x, budget))
    records = run_census(RunConfig(max_order=8, out_path=str(tmp_path / "c8.jsonl"), caps=caps))
    assert len(records) == 928
    # one stability check per isomorphism class, not per record
    assert len(calls) == len({r["fingerprint"] for r in records}) == 39
    # and a class met first with alpha != id needs no double-cover search
    assert len(covers) < 39
    assert len({canonical_form(x).fingerprint for x in covers}) == len(covers)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_conjugate_specs_agree_on_invariant_fields(data):
    # Prop 2.1: GC(G, S, alpha) and GC(G, phi(S), phi alpha phi^-1) are isomorphic
    caps = Caps()
    g = make_group(data.draw(st.sampled_from(builtin_descriptors(10))), caps)
    involutions = enumerate_involutory_automorphisms(g)
    index = data.draw(st.integers(0, len(involutions) - 1))
    alpha = involutions[index].perm
    orbits = connection_orbits(g, involutions[index])
    chosen = data.draw(st.lists(st.booleans(), min_size=len(orbits), max_size=len(orbits)))
    s_ids = [s for orbit, keep in zip(orbits, chosen) if keep for s in orbit]
    phi = data.draw(st.sampled_from(enumerate_automorphisms(g))).perm
    phi_inv = [0] * g.order
    for x, y in enumerate(phi):
        phi_inv[y] = x
    conj = automorphism_from_perm(g, [phi[alpha[phi_inv[x]]] for x in range(g.order)])
    conj_index = [a.perm for a in involutions].index(conj.perm)
    a = compute_record(make_spec(g, involutions[index], s_ids), index, caps)
    b = compute_record(make_spec(g, conj, [phi[s] for s in s_ids]), conj_index, caps)
    for field in ("fingerprint", "vertex_transitive", "cayley", "stability",
                  "kernel_size", "degree", "connected", "bipartite"):
        assert a[field] == b[field], field


@pytest.mark.parametrize("max_order, cap, value, count", [
    (7, "aut_node_budget", 6, 116),   # at 8 nodes every shared answer is known
    (9, "regular_search_budget", 2, 1058),
], ids=["aut_node_budget", "regular_search_budget"])
def test_budget_only_turns_unknown_into_known(tmp_path, caps, max_order, cap, value, count):
    # some answers stay unknown and some are shared into records whose own
    # computation runs out
    tight = replace(caps, **{cap: value})
    records = run_census(RunConfig(max_order=max_order, out_path=str(tmp_path / "tight.jsonl"), caps=tight))
    assert len(records) == count
    unknown, gained = 0, 0
    for rec in records:
        direct = direct_record(rec, tight)
        exact = direct_record(rec, caps)
        for field, value in rec.items():
            if value == direct[field]:
                unknown += direct[field] in (None, "unknown")
                continue
            # a shared answer is exact, and only ever replaces an unknown
            assert direct[field] in (None, "unknown"), (field, rec, direct)
            assert value == exact[field], (field, rec, exact)
            gained += 1
    assert unknown > 0 and gained > 0


def test_order_12_census_bytes_are_pinned(tmp_path, caps):
    out = tmp_path / "c12.jsonl"
    records = run_census(RunConfig(max_order=12, out_path=str(out), caps=caps))
    assert len(records) == 4643
    # captured before records shared their invariant fields
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "0a030f1faeea9c129781ecb8abaaad8aac5a3c8f63b9a0d05c1c8dd9b2b557ed"
    )
