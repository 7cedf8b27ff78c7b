from __future__ import annotations

import random
import re
from dataclasses import replace
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcg.automorphisms import (
    enumerate_automorphisms,
    enumerate_involutory_automorphisms,
    identity_automorphism,
    inversion_map,
)
from gcg.catalog import builtin_groups
from gcg.construct import (
    build_gc_graph,
    connection_orbits,
    enumerate_connection_sets,
    kernel_subgroup,
    make_spec,
)
from gcg.errors import ShapeError, SpecError
from gcg.graphs import IsomorphismWitness, check_witness
from gcg.groups import ElementSet, bits, make_group, mask_of, subgroup_closure, subgroup_handle
from gcg import theorems
from gcg.theorems import (
    THEOREM_IDS,
    _sweep,
    _SweepBudget,
    _sweep_layers,
    _unworthy_checks,
    build_counterexample,
    check_inversion_dichotomy,
    coset_law_and_duplicates,
    dihedralize_inversion,
    normal_form_odd_abelian,
    order_2p_witness,
    run_theorem,
    verify_conjugation_isomorphism,
    verify_example_32,
    verify_example_33,
    verify_product_lemma,
    verify_unworthy_theory,
)

from oracles.brute import all_pairs_coset_law, all_pairs_duplicate_rows, per_set_sweep, sorted_tuple_cosets


def all_verified(reports):
    assert reports, "runner produced no reports"
    for r in reports:
        assert r.verdict == "verified", (r.theorem_id, r.instance, r.certificate)
    return reports


# The keyword parameters of each verifier's runner, in signature order.
VERIFIER_PARAMS = {
    "prop-2.1": ("max_order",), "prop-2.2": ("max_order",), "lemma-2.3": ("max_order",),
    "prop-2.4": ("max_order",), "prop-2.5": ("max_order",), "prop-2.6": ("max_order",),
    "thm-3.1": ("groups",), "ex-3.2": ("m", "n"), "ex-3.3": ("k",), "lemma-3.4": (),
    "thm-3.5": ("group", "max_order"), "lemma-4.1": ("p",), "lemma-4.2": ("p",),
    "thm-4.3": ("p",), "prop-5.1": ("max_order",), "cor-5.2": ("max_order",),
    "prop-5.3": ("max_order",), "cor-5.4": ("max_order",),
}


def test_theorem_registry():
    assert len(THEOREM_IDS) == 18
    assert THEOREM_IDS[0] == "prop-2.1"
    with pytest.raises(ShapeError):
        run_theorem("thm-9.9")
    assert tuple(VERIFIER_PARAMS) == THEOREM_IDS
    for tid, reads in VERIFIER_PARAMS.items():
        message = f"{tid} does not read caps, q; it reads {', '.join(reads) or 'no parameters'}"
        with pytest.raises(ShapeError, match=re.escape(message)):
            run_theorem(tid, {"q": 1, "caps": None})
    # a parameter the verifier does not read is refused before any work
    with pytest.raises(ShapeError, match="prop-2.2 does not read groups, p; it reads max_order"):
        run_theorem("prop-2.2", {"groups": ["Z8"], "p": 3})


@pytest.mark.parametrize("tid, params, reads", [
    ("lemma-4.1", {"p": 3}, "p"),
    ("prop-5.1", {"max_order": 4}, "max_order"),   # a functools.partial runner
])
def test_a_wrapped_runner_keeps_its_parameters(monkeypatch, caps, tid, params, reads):
    # run_theorem looks the runner up at call time and reads its parameters
    # through `__wrapped__`, so a timing wrapper put in its place still works
    import functools

    import gcg.theorems as theorems

    original = theorems.THEOREM_RUNNERS[tid]
    calls = []

    @functools.wraps(original)
    def wrapped(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setitem(theorems.THEOREM_RUNNERS, tid, wrapped)
    with pytest.raises(ShapeError, match=f"{tid} does not read q; it reads {reads}$"):
        run_theorem(tid, {"q": 1}, caps)
    all_verified(run_theorem(tid, params, caps))
    assert calls == [params]


def test_conjugation_isomorphism_direct(caps):
    g = make_group("Z6", caps)
    spec = make_spec(g, inversion_map(g), (1, 3, 5))
    for phi in enumerate_automorphisms(g):
        rep = verify_conjugation_isomorphism(spec, phi)
        assert rep.verdict == "verified"
        assert sorted(rep.certificate["conjugated_set"]) == [1, 3, 5]


def test_conjugation_runner(caps):
    reports = all_verified(run_theorem("prop-2.1", caps=caps))
    assert len(reports) == 10


def test_fix_omega_runners_small(caps):
    reports = all_verified(run_theorem("prop-2.2", {"max_order": 8}, caps))
    by_group = {r.instance.split("|")[0] for r in reports}
    assert "Z8" in by_group and "D8" in by_group
    all_verified(run_theorem("lemma-2.3", {"max_order": 8}, caps))
    for r in reports:
        c = r.certificate
        assert c["fix_size"] * c["omega_size"] >= 1


def test_odd_abelian_runners(caps):
    reports = all_verified(run_theorem("prop-2.4", caps=caps))
    assert len(reports) == 43
    all_verified(run_theorem("prop-2.5", {"max_order": 15}, caps))


def test_normal_form_direct(caps):
    g = make_group("Z15", caps)
    spec = make_spec(g, inversion_map(g), ())
    # inversion on an odd group admits only the empty set; use a nontrivial
    # involutory map instead: x -> 11x fixes {0,5,10} and inverts Z3
    alpha = [a for a in enumerate_involutory_automorphisms(g)
             if a.perm[1] == 11][0]
    specs = list(enumerate_connection_sets(g, alpha, nonempty_only=True, caps=caps))
    assert specs
    for s in specs[:8]:
        nf = normal_form_odd_abelian(s)
        assert check_witness(nf.witness)
        assert len(nf.fix_ids) * len(nf.omega_ids) == 15


def test_cyclic_sylow_runner(caps):
    reports = all_verified(run_theorem("prop-2.6", {"max_order": 14}, caps))
    assert all("n" in r.certificate for r in reports)


def test_dihedralization_direct(caps):
    g = make_group("Z12", caps)
    spec = make_spec(g, inversion_map(g), (1, 3, 5, 7, 9, 11))
    w = dihedralize_inversion(spec)
    assert w.target_group.order == 12
    assert w.target_group.name.startswith("Dih(")
    assert check_witness(w.witness)
    assert all(s >= w.target_group.order // 2 for s in w.target_set_ids)
    with pytest.raises(ShapeError):
        dihedralize_inversion(make_spec(g, identity_automorphism(g), (1, 11)))
    # a spec that skipped validation: in Z3xZ4, element 2 = (0, 2) has an
    # even Z4 coordinate (it is the square of (0, 1), so no valid S holds it)
    h = make_group("Z3xZ4", caps)
    unchecked = replace(make_spec(h, inversion_map(h), ()), connection=ElementSet(h, mask_of((2,))))
    with pytest.raises(SpecError, match="connection element 2 has an even 2-part coordinate"):
        dihedralize_inversion(unchecked)


def test_dihedralization_runner(caps):
    reports = all_verified(run_theorem("thm-3.1", caps=caps))
    assert [r.instance for r in reports] == ["Z2", "Z4", "Z8", "Z6", "Z12", "Z20"]
    for r in reports:
        assert r.certificate["sets_swept"] >= 1


@pytest.mark.parametrize("name, why", [
    ("Z3", "odd order"), ("Z9", "odd order"),
    ("Z2xZ2", "Sylow 2-subgroup is not cyclic"), ("D6", "needs an abelian group"),
])
def test_dihedralization_runner_refuses_groups_outside_the_hypothesis(name, why, caps):
    # only the empty set is valid for Z3, so a sweep alone would "verify" it
    with pytest.raises(ShapeError, match="thm-3.1 needs an abelian group of even order") as exc:
        run_theorem("thm-3.1", {"groups": [name]}, caps)
    assert f"{name}: " in str(exc.value) and why in str(exc.value)


# thm-3.1 on every cyclic-Sylow catalog group to order 24, in catalog order:
# instance -> (target group, semidirect-product pairs checked).  The product
# presentations put the even factor first (Z2xZ3), last (Z3xZ8) or next to
# an odd part of its own (Z3xZ6).
THM_3_1_TARGETS = {
    "Z2": ("Dih(Z1)", 1), "Z4": ("Dih(Z2)", 4), "Z2xZ3": ("Dih(Z3)", 9), "Z6": ("Dih(Z3)", 9),
    "Z8": ("Dih(Z4)", 16), "Z10": ("Dih(Z5)", 25), "Z2xZ5": ("Dih(Z5)", 25),
    "Z12": ("Dih(Z2xZ3)", 36), "Z3xZ4": ("Dih(Z2xZ3)", 36), "Z14": ("Dih(Z7)", 49),
    "Z16": ("Dih(Z8)", 64), "Z18": ("Dih(Z9)", 81), "Z2xZ9": ("Dih(Z9)", 81),
    "Z3xZ6": ("Dih(Z3xZ3)", 81), "Z20": ("Dih(Z2xZ5)", 100), "Z4xZ5": ("Dih(Z2xZ5)", 100),
    "Z22": ("Dih(Z11)", 121), "Z2xZ11": ("Dih(Z11)", 121), "Z24": ("Dih(Z4xZ3)", 144),
    "Z3xZ8": ("Dih(Z4xZ3)", 144),
}

# The vertex map G -> Dih(.) of three presentations, element id by element id.
DIHEDRAL_MAPS = {
    "Z12": (0, 7, 5, 9, 1, 8, 3, 10, 2, 6, 4, 11),
    "Z3xZ6": (0, 12, 6, 9, 3, 15, 1, 13, 7, 10, 4, 16, 2, 14, 8, 11, 5, 17),
    "Z3xZ8": (0, 12, 3, 15, 6, 18, 9, 21, 1, 13, 4, 16, 7, 19, 10, 22,
              2, 14, 5, 17, 8, 20, 11, 23),
}


def test_thm_3_1_targets_of_every_cyclic_sylow_group(caps):
    names = [g.name for g in builtin_groups(24, caps) if _cyclic_sylow(g)]
    reports = all_verified(run_theorem("thm-3.1", {"groups": names}, caps))
    got = {r.instance: (r.certificate["target_group"], r.certificate["eq1_pairs"]) for r in reports}
    assert list(got) == list(THM_3_1_TARGETS) and got == THM_3_1_TARGETS


@pytest.mark.parametrize("name", list(THM_3_1_TARGETS))
def test_dihedralize_inversion_has_one_map_per_group(name, caps):
    g = make_group(name, caps)
    iota = inversion_map(g)
    orbits = connection_orbits(g, iota)
    rng = random.Random(name)
    chosen = [o for o in orbits if rng.random() < 0.5] or orbits[:1]
    full = dihedralize_inversion(make_spec(g, iota, mask_of(s for o in orbits for s in o)))
    some = dihedralize_inversion(make_spec(g, iota, mask_of(s for o in chosen for s in o)))
    assert full.mapping == some.mapping
    assert full.target_group is some.target_group and full.target_group.order == g.order
    half = g.order // 2
    assert all(s >= half for s in full.target_set_ids + some.target_set_ids)
    if name in DIHEDRAL_MAPS:
        assert full.mapping == DIHEDRAL_MAPS[name]


def test_example_32_reports(caps):
    rep = verify_example_32(1, 2, caps)
    assert rep.verdict == "verified"
    assert rep.certificate["orbit_count"] >= 2
    rep13 = verify_example_32(1, 3, caps)
    assert rep13.verdict == "verified"
    assert rep13.certificate["vertex_2_2"] == 2
    assert rep13.certificate["vertex_2_2_triangles"] == 0
    all_verified(run_theorem("ex-3.2", caps=caps))


def test_example_33_reports(caps):
    rep = verify_example_33(1, caps)
    assert rep.verdict == "verified"
    assert rep.certificate["set"] == [3, 6, 10]
    assert rep.certificate["orbit_count"] == 3
    assert rep.certificate["triangle"] == [1, 8, 5]
    assert rep.certificate["triangle_free_vertex"] == 0
    all_verified(run_theorem("ex-3.3", caps=caps))


def test_product_lemma(caps):
    z4 = make_group("Z4", caps)
    z3 = make_group("Z3", caps)
    rep = verify_product_lemma(
        make_spec(z4, inversion_map(z4), (1, 3)),
        make_spec(z3, identity_automorphism(z3), (1, 2)),
    )
    assert rep.verdict == "verified"
    assert rep.certificate["product_order"] == 12
    assert rep.certificate["omega_product_law"]
    reports = all_verified(run_theorem("lemma-3.4", caps=caps))
    assert len(reports) == 4
    assert reports[-1].certificate["orbit_count"] >= 2


def test_dichotomy_branches(caps):
    elementary = check_inversion_dichotomy(make_group("Z2xZ2", caps), caps)
    assert elementary.verdict == "verified"
    assert elementary.certificate["branch"] == "elementary"

    sylow = check_inversion_dichotomy(make_group("Z12", caps), caps)
    assert sylow.verdict == "verified"
    assert sylow.certificate["branch"] == "cyclic-sylow"

    neither = check_inversion_dichotomy(make_group("Z2xZ2xZ3", caps), caps)
    assert neither.verdict == "verified"
    assert neither.certificate["branch"] == "neither"
    assert neither.certificate["pattern"] == "elementary-times-odd"
    assert neither.certificate["orbit_count"] >= 2

    twopow = check_inversion_dichotomy(make_group("Z2xZ4", caps), caps)
    assert twopow.verdict == "verified"
    assert twopow.certificate["pattern"] == "two-power"

    blown = check_inversion_dichotomy(make_group("Z2xZ2xZ6", caps), caps)
    assert blown.verdict == "verified"
    assert blown.certificate["complement_order"] == 2
    assert len(blown.certificate["set"]) == 6

    with pytest.raises(ShapeError):
        check_inversion_dichotomy(make_group("D6", caps), caps)


def test_dichotomy_runner_exactly_one_branch(caps):
    reports = all_verified(run_theorem("thm-3.5", {"max_order": 16}, caps))
    for r in reports:
        assert r.certificate["branch"] in ("elementary", "cyclic-sylow", "neither")


def test_order_2p_routes(caps):
    z6 = make_group("Z6", caps)
    w = order_2p_witness(make_spec(z6, identity_automorphism(z6), (1, 5)))
    assert w.route == "cyclic-identity"
    w = order_2p_witness(make_spec(z6, inversion_map(z6), (1, 3, 5)))
    assert w.route == "cyclic-dihedralize"
    assert check_witness(w.witness)

    d6 = make_group("D6", caps)
    ident = identity_automorphism(d6)
    refl = (3, 4, 5)
    w = order_2p_witness(make_spec(d6, ident, refl))
    assert w.route == "dihedral-identity"
    phi_alpha = [a for a in enumerate_involutory_automorphisms(d6)
                 if a.perm != ident.perm][0]
    spec = next(iter(
        s for s in enumerate_connection_sets(d6, phi_alpha, nonempty_only=True, caps=caps)
    ))
    w = order_2p_witness(spec)
    assert w.route == "dihedral-phi"
    assert check_witness(w.witness)
    assert "halfshift" in w.params

    d4 = make_group("D4", caps)
    alpha = enumerate_involutory_automorphisms(d4)[1]
    spec4 = next(iter(
        s for s in enumerate_connection_sets(d4, alpha, nonempty_only=True, caps=caps)
    ))
    w4 = order_2p_witness(spec4)
    assert w4.route == "small-direct"

    with pytest.raises(ShapeError):
        z9 = make_group("Z9", caps)
        order_2p_witness(make_spec(z9, identity_automorphism(z9), (1, 8)))


@pytest.mark.parametrize("name", ["D4", "Z2xZ2"])
def test_order_4_gc_graphs_are_their_cayley_graphs(name, caps):
    # on the Klein group alpha(x)S = xS for every valid S, so GC(G, S, alpha)
    # has the rows of Cay(G, S) and the identity map is the witness
    g = make_group(name, caps)
    alphas = enumerate_involutory_automorphisms(g)
    specs = [spec for alpha in alphas for spec in enumerate_connection_sets(g, alpha, caps=caps)]
    assert (len(alphas), len(specs)) == (4, 14)
    for spec in specs:
        cayley = build_gc_graph(make_spec(g, identity_automorphism(g), spec.set_ids()))
        assert build_gc_graph(spec).rows == cayley.rows
        w = order_2p_witness(spec)
        assert (w.route, w.mapping) == ("small-direct", (0, 1, 2, 3))
        assert (w.target_group, w.target_set_ids) == (g, spec.set_ids())


def test_order_2p_runners(caps):
    reports = all_verified(run_theorem("lemma-4.1", caps=caps))
    assert [r.instance for r in reports] == ["Z4", "Z6", "Z10"]
    all_verified(run_theorem("lemma-4.2", {"p": 3}, caps))
    reports = all_verified(run_theorem("thm-4.3", caps=caps))
    assert len(reports) == 20
    swept = sum(r.certificate.get("sets_swept", 0) for r in reports)
    assert swept == 298


def test_thm_4_3_does_not_read_the_regular_subgroup_search(caps):
    # every set is certified by its order-2p witness alone, so a one-node
    # regular-subgroup search, which cannot settle the connected,
    # co-connected graphs, leaves the reports as they are
    tight = all_verified(run_theorem("thm-4.3", {"p": 3}, replace(caps, regular_search_budget=1)))
    assert [r.to_json() for r in tight] == [r.to_json() for r in run_theorem("thm-4.3", {"p": 3}, caps)]


def test_unworthy_runners_small(caps):
    for tid in ("prop-5.1", "cor-5.2", "prop-5.3"):
        all_verified(run_theorem(tid, {"max_order": 8}, caps))
    reports = all_verified(run_theorem("cor-5.4", {"max_order": 8}, caps))
    covered = {r.instance.split("|")[0] for r in reports}
    assert "Z8" in covered
    assert "D8" not in covered  # the full-complement decomposition is abelian-only


def test_counterexample_family_guards(caps):
    with pytest.raises(ShapeError):
        build_counterexample("ex32", {"m": 0, "n": 2}, caps)
    with pytest.raises(ShapeError):
        build_counterexample("ex33", {"k": 0}, caps)
    with pytest.raises(ShapeError):
        build_counterexample("nope", {}, caps)


def test_report_json_shape(caps):
    rep = run_theorem("lemma-4.1", {"p": 3}, caps)[0]
    d = rep.to_json()
    assert d["theorem"] == "lemma-4.1"
    assert d["verdict"] == "verified"


# Full report lists of the sweeping verifiers when the sweep budget runs out
# part-way: (reports, skipped, sha256 prefix of the sorted-key JSON of the
# runner's report list), captured one fresh interpreter per run.  prop-2.5,
# thm-3.5, lemma-4.2 and thm-4.3 spend a budget unit per connection-orbit
# layer, and the empty set needs none.
BUDGET_REFERENCE = {
    "prop-2.1": {0: (10, 10, "8382dfa116a06f57"), 1: (10, 9, "7609adbde837b6c5"),
                 5: (10, 8, "91753af8859ed089"), 40: (10, 7, "48def61ec5d16773")},
    "prop-2.5": {0: (43, 30, "e069ae4ae7047063"), 1: (43, 29, "dfa2b7c739542167"),
                 5: (43, 28, "8b69b690793439f3"), 40: (43, 16, "da3f2deca2698391")},
    "thm-3.5": {0: (50, 24, "bf8e2f3d2138a3cb"), 1: (50, 23, "e99928db9061e94d"),
                5: (50, 15, "066e20cfb8552fa8"), 40: (50, 0, "4a3b562c27145d45")},
    "lemma-4.2": {0: (10, 10, "193ebb1134bf8fae"), 1: (10, 10, "1c2115789ab6541f"),
                  5: (10, 9, "4ec1fcaa4378d4e4"), 40: (10, 0, "a4610dfa8df6d039")},
    "thm-4.3": {0: (20, 20, "433087a7246c224f"), 1: (20, 20, "87ad19dd8b62533d"),
                5: (20, 18, "25ec5cc2ec9ce407"), 40: (20, 6, "e5b6172f18e68252")},
    "prop-5.1": {0: (134, 134, "b63bfe77358eaf85"), 1: (134, 133, "e79589b95c777dec"),
                 5: (134, 131, "ea42ead834e9adee"), 40: (134, 121, "aa12db448b86f9a7")},
}

# thm-3.1 per budget: (instance, verdict, certified sets) in runner order,
# the count named `sets_swept` when verified and `covered_sets` when skipped.
# A budget unit is one layer, and the empty set needs none.  The target is
# built before any sweep, so each report also names its dihedral target and
# the product-identity pairs checked on it (THM_3_1_TARGETS), however little
# was swept.
THM_3_1_BUDGET_REFERENCE = {
    0: [("Z2", "skipped", 1), ("Z4", "skipped", 1), ("Z8", "skipped", 1),
        ("Z6", "skipped", 1), ("Z12", "skipped", 1), ("Z20", "skipped", 1)],
    1: [("Z2", "verified", 2), ("Z4", "skipped", 1), ("Z8", "skipped", 1),
        ("Z6", "skipped", 1), ("Z12", "skipped", 1), ("Z20", "skipped", 1)],
    5: [("Z2", "verified", 2), ("Z4", "verified", 4), ("Z8", "skipped", 4),
        ("Z6", "skipped", 1), ("Z12", "skipped", 1), ("Z20", "skipped", 1)],
    40: [("Z2", "verified", 2), ("Z4", "verified", 4), ("Z8", "verified", 16),
         ("Z6", "verified", 8), ("Z12", "verified", 64), ("Z20", "verified", 1024)],
}


def _with_budget(caps, budget):
    return replace(caps, sweep_instance_budget=budget)


@pytest.mark.parametrize("theorem_id", sorted(BUDGET_REFERENCE))
def test_budget_skipped_reports_match_reference(theorem_id, caps):
    import hashlib
    import json

    for budget, (count, skipped, digest) in BUDGET_REFERENCE[theorem_id].items():
        reports = run_theorem(theorem_id, {}, _with_budget(caps, budget))
        text = json.dumps([r.to_json() for r in reports], sort_keys=True)
        assert len(reports) == count, budget
        assert sum(r.verdict == "skipped" for r in reports) == skipped, budget
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, budget


def test_unworthy_sweep_to_order_16_matches_reference(caps):
    # Orders 13-16, where the shared 50,000-set budget runs out part-way:
    # the report count, the skipped count and the sha256 of the sorted-key
    # JSON of the report list, captured from the set-by-set sweep.
    import hashlib
    import json

    reports = run_theorem("prop-5.1", {"max_order": 16}, caps)
    text = json.dumps([r.to_json() for r in reports], sort_keys=True)
    assert len(reports) == 570
    assert sum(r.verdict == "skipped" for r in reports) == 397
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2e2ec88c98e49fc7399dab3d958ca8fd3c03544e1a3c713897f78b09bb8536c6"
    )


def test_thm_3_1_budget_skipped_reports(caps):
    for budget, rows in THM_3_1_BUDGET_REFERENCE.items():
        reports = run_theorem("thm-3.1", {}, _with_budget(caps, budget))
        want = []
        for name, verdict, swept in rows:
            target, pairs = THM_3_1_TARGETS[name]
            count = "sets_swept" if verdict == "verified" else "covered_sets"
            cert = {count: swept, "target_group": target, "eq1_pairs": pairs}
            want.append(("thm-3.1", name, verdict, cert, {}))
        got = [(r.theorem_id, r.instance, r.verdict, r.certificate, r.stats) for r in reports]
        assert got == want, budget


def test_thm_3_1_report_does_not_depend_on_earlier_runs(caps):
    # The dihedral target comes from the group itself: a fresh interpreter
    # and one that already swept every set give the same report.
    import json
    import os
    import subprocess
    import sys

    code = (
        "import json; from dataclasses import replace; from gcg.caps import Caps; "
        "from gcg.theorems import run_theorem; "
        "print(json.dumps([r.certificate for r in run_theorem("
        "'thm-3.1', {'groups': ['Z4']}, replace(Caps(), sweep_instance_budget=1))]))"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    fresh = json.loads(proc.stdout)
    assert fresh == [{"covered_sets": 2, "target_group": "Dih(Z2)", "eq1_pairs": 4}]
    run_theorem("thm-3.1", {"groups": ["Z4"]}, caps)
    again = run_theorem("thm-3.1", {"groups": ["Z4"]}, _with_budget(caps, 1))
    assert [r.certificate for r in again] == fresh


def test_unworthiness_ids_share_one_sweep(caps):
    for run_caps in (caps, _with_budget(caps, 5)):
        rows = {}
        for tid in ("prop-5.1", "cor-5.2", "prop-5.3"):
            reports = run_theorem(tid, {"max_order": 8}, run_caps)
            assert {r.theorem_id for r in reports} == {tid}
            rows[tid] = [(r.instance, r.verdict, r.certificate) for r in reports]
        assert rows["prop-5.1"] == rows["cor-5.2"] == rows["prop-5.3"]


# ---------------------------------------------------------------------------
# layer certificates: thm-3.5, thm-3.1, prop-2.5, lemma-4.2 and thm-4.3
# certify a whole family of connection sets through one vertex map checked
# on single-orbit layers


def _cyclic_sylow(g) -> bool:
    """Abelian of even order with one involution: dihedralization applies."""
    return g.abelian and sum(o == 2 for o in g.element_orders) == 1


def _odd_abelian(g) -> bool:
    return g.abelian and g.order % 2 == 1


def _or_rows(graphs, n):
    rows = [0] * n
    for x in graphs:
        for v in range(n):
            rows[v] |= x.rows[v]
    return tuple(rows)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_layer_rows_or_to_the_whole_graph(caps, data):
    g = data.draw(st.sampled_from(builtin_groups(12, caps)), label="group")
    alpha = data.draw(st.sampled_from(enumerate_involutory_automorphisms(g)), label="alpha")
    orbits = connection_orbits(g, alpha)
    keep = data.draw(st.lists(st.booleans(), min_size=len(orbits), max_size=len(orbits)))
    chosen = [o for o, k in zip(orbits, keep) if k]
    spec = make_spec(g, alpha, mask_of(s for o in chosen for s in o))
    layers = [make_spec(g, alpha, o) for o in chosen]
    assert build_gc_graph(spec).rows == _or_rows([build_gc_graph(x) for x in layers], g.order)
    if alpha.perm == tuple(g.inv) and _cyclic_sylow(g):
        whole = dihedralize_inversion(spec)
        parts = [dihedralize_inversion(x) for x in layers]
        assert whole.witness.target.rows == _or_rows([w.witness.target for w in parts], g.order)
        assert all(w.mapping == whole.mapping for w in parts)
    if _odd_abelian(g):
        whole = normal_form_odd_abelian(spec)
        parts = [normal_form_odd_abelian(x) for x in layers]
        assert whole.normal_graph.rows == _or_rows([nf.normal_graph for nf in parts], g.order)
        assert all(nf.witness.mapping == whole.witness.mapping for nf in parts)


def _dihedralize_nonempty(spec) -> None:
    if spec.connection.mask:
        _dihedralize_once(spec.group, spec.connection.mask)


@cache
def _dihedralize_once(g, mask) -> None:
    # thm-3.5 and thm-3.1 sweep the same inversion specs; check each one once
    dihedralize_inversion(make_spec(g, inversion_map(g), mask))


def _layer_oracle(g, alpha, check, budget, caps):
    """(covered, skipped, layers spent) of one layer sweep, set by set.

    A layer sweep with `budget` units left checks j = min(k, budget) of the
    k connection orbits, one unit each, and counts the first 2^j sets as
    covered; each of those sets is checked here on its own."""
    layers = min(len(connection_orbits(g, alpha)), budget)
    specs = enumerate_connection_sets(g, alpha, caps=caps)
    return (*per_set_sweep(specs, check, 1 << layers), layers)


def _oracle_thm_3_5(caps, budget):
    """(instance, covered, skipped) of thm-3.5's sweeping branches, set by set;
    each group has its own budget."""
    rows = []
    for g in builtin_groups(24, caps):
        if not g.abelian:
            continue
        if all(o <= 2 for o in g.element_orders):
            check = lambda spec: None
        elif _cyclic_sylow(g) or g.order % 2 == 1:
            check = _dihedralize_nonempty
        else:
            continue
        covered, skipped, _ = _layer_oracle(g, inversion_map(g), check, budget, caps)
        rows.append((g.name, covered, skipped))
    return rows


def _oracle_thm_3_1(caps, budget, names):
    """(instance, covered, skipped) of thm-3.1, set by set; one shared budget."""
    rows = []
    for name in names:
        g = make_group(name, caps)
        covered, skipped, spent = _layer_oracle(g, inversion_map(g), _dihedralize_nonempty, budget, caps)
        budget -= spent
        rows.append((name, covered, skipped))
    return rows


def _oracle_per_alpha(groups, check, budget, caps):
    """(instance, covered, skipped) of a layer sweep over every alpha of each
    group, set by set; one shared budget."""
    rows = []
    for g in groups:
        for idx, alpha in enumerate(enumerate_involutory_automorphisms(g)):
            covered, skipped, spent = _layer_oracle(g, alpha, check, budget, caps)
            budget -= spent
            rows.append((f"{g.name}|alpha#{idx}", covered, skipped))
    return rows


def _swept(reports):
    out = []
    for r in reports:
        c = r.certificate
        if "sets_swept" in c or "covered_sets" in c:
            count = c["covered_sets"] if r.verdict == "skipped" else c["sets_swept"]
            out.append((r.instance, count, r.verdict == "skipped"))
    return out


@pytest.mark.parametrize("budget", [0, 1, 5, 40, None])
def test_layer_sweeps_match_the_per_set_oracle(budget, caps):
    run_caps = caps if budget is None else _with_budget(caps, budget)
    limit = run_caps.sweep_instance_budget
    reports = run_theorem("thm-3.5", {}, run_caps)
    assert _swept(reports) == _oracle_thm_3_5(caps, limit)
    names = [g.name for g in builtin_groups(24, caps) if _cyclic_sylow(g)]
    reports = run_theorem("thm-3.1", {"groups": names}, run_caps)
    assert _swept(reports) == _oracle_thm_3_1(caps, limit, names)
    reports = run_theorem("prop-2.5", {}, run_caps)
    odd = [g for g in builtin_groups(21, caps) if _odd_abelian(g)]
    assert _swept(reports) == _oracle_per_alpha(odd, normal_form_odd_abelian, limit, caps)
    # the order-2p sweeps, against `order_2p_witness` on each set
    reports = run_theorem("lemma-4.2", {}, run_caps)
    dihedral = [make_group(f"D{2 * p}", caps) for p in (3, 5)]
    assert _swept(reports) == _oracle_per_alpha(dihedral, order_2p_witness, limit, caps)
    reports = run_theorem("thm-4.3", {}, run_caps)
    order_2p = [make_group(f"{kind}{2 * p}", caps) for p in (2, 3, 5) for kind in "ZD"]
    assert _swept(reports) == _oracle_per_alpha(order_2p, order_2p_witness, limit, caps)


def _wrong_on(orbit, layer_only: bool):
    """A dihedralization check whose vertex map differs from the real one on
    every set holding `orbit`.  With `layer_only` it composes the map with a
    swap that is an automorphism of that orbit's layer alone, so the layer
    passes its own witness check; otherwise the swap breaks the layer too."""
    a = orbit[0]

    def certify(spec):
        w = dihedralize_inversion(spec)
        if not set(orbit) <= set(spec.set_ids()):
            return w.mapping
        # the inversion layer of {a} is the matching x ~ a - x, so swapping
        # 0 with a keeps it and swapping 0 with a + 1 does not
        b = a if layer_only else a + 1
        mapping = list(w.mapping)
        mapping[0], mapping[b] = mapping[b], mapping[0]
        if not check_witness(IsomorphismWitness(w.witness.source, w.witness.target, tuple(mapping))):
            raise AssertionError("mutated witness failed")
        return tuple(mapping)

    return certify


def test_a_map_wrong_on_one_orbit_is_rejected(caps):
    g = make_group("Z12", caps)
    iota = inversion_map(g)
    orbits = connection_orbits(g, iota)
    assert orbits == [(1,), (3,), (5,), (7,), (9,), (11,)]
    bad = _wrong_on(orbits[2], layer_only=False)

    def layered(certify, budget):
        return _sweep(orbits, _sweep_layers(g, iota, certify), _SweepBudget(budget))

    def per_set(certify, budget):
        return per_set_sweep(enumerate_connection_sets(g, iota, caps=caps), certify, budget)

    # two layers certify the first four sets, which use orbits 0 and 1 only;
    # set 4 is orbit 2 alone
    assert layered(bad, 2) == (2, True, None)
    assert per_set(bad, 4) == (4, True)
    for budget in (3, 6):
        with pytest.raises(AssertionError, match="mutated witness failed"):
            layered(bad, budget)
    for budget in (5, 64):
        with pytest.raises(AssertionError, match="mutated witness failed"):
            per_set(bad, budget)
    # each layer may pass on its own, but not under a map of its own
    swapped = _wrong_on(orbits[2], layer_only=True)
    with pytest.raises(AssertionError, match="different vertex map"):
        layered(swapped, 3)
    with pytest.raises(AssertionError, match="mutated witness failed"):
        per_set(swapped, 64)


def test_thm_3_5_beyond_the_catalog(capsys):
    # Z48 and Z64 have 24 and 32 connection orbits under inversion, so 24
    # and 32 layer checks certify all 2^24 and 2^32 sets, well inside the
    # default budget and past the bit cap on set enumeration
    import json

    from gcg.cli import main

    for name, sets in (("Z48", 1 << 24), ("Z64", 1 << 32)):
        assert main(["--format", "json", "verify", "thm-3.5", "--group", name]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "certificate": {
                "branch": "cyclic-sylow", "route": "dihedralization witness per connection orbit",
                "sets_swept": sets,
            },
            "instance": name, "stats": {}, "theorem": "thm-3.5", "verdict": "verified",
        }


# ---------------------------------------------------------------------------
# the unworthiness check reads the coset law off a partition of the vertices


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_coset_partition_matches_the_all_pairs_formula(caps, data):
    g = data.draw(st.sampled_from(builtin_groups(12, caps)), label="group")
    if data.draw(st.booleans(), label="real spec"):
        alpha = data.draw(st.sampled_from(enumerate_involutory_automorphisms(g)))
        orbits = connection_orbits(g, alpha)
        keep = data.draw(st.lists(st.booleans(), min_size=len(orbits), max_size=len(orbits)))
        spec = make_spec(g, alpha, mask_of(s for o, k in zip(orbits, keep) if k for s in o))
        rows = build_gc_graph(spec).rows
        k_mask = kernel_subgroup(spec).set.mask
        cert = verify_unworthy_theory(spec).certificate
        assert cert["coset_law"] == all_pairs_coset_law(g.mul, g.inv, rows, k_mask)
        assert cert["unworthy"] == all_pairs_duplicate_rows(rows)
    else:
        # rows constant on the left or right cosets of K or of another random
        # subgroup H, so that some draws follow the wrong cosets and break
        # the law; one coset may take another's row, or one vertex a row of
        # its own
        elements = st.lists(st.integers(0, g.order - 1), max_size=2)
        k_mask = subgroup_closure(g, data.draw(elements, label="kernel"))
        h_mask = k_mask if data.draw(st.booleans()) else subgroup_closure(g, data.draw(elements))
        right = data.draw(st.booleans(), label="right cosets")
        coset_of = {}
        for x in range(g.order):
            coset_of[x] = min(g.mul[h][x] if right else g.mul[x][h] for h in bits(h_mask))
        reps = sorted(set(coset_of.values()))
        values = {c: i for i, c in enumerate(reps)}
        if data.draw(st.booleans(), label="merge"):
            values[data.draw(st.sampled_from(reps))] = values[data.draw(st.sampled_from(reps))]
        rows = tuple(values[coset_of[x]] for x in range(g.order))
        if data.draw(st.booleans(), label="split"):
            v = data.draw(st.integers(0, g.order - 1))
            rows = rows[:v] + (g.order,) + rows[v + 1:]
    got = coset_law_and_duplicates(rows, subgroup_handle(g, k_mask).coset_of)
    assert got == (all_pairs_coset_law(g.mul, g.inv, rows, k_mask), all_pairs_duplicate_rows(rows))


def test_layer_built_unworthiness_matches_set_by_set(caps):
    # Every set of every (G, alpha) to order 12, in sweep order with the
    # sweep's per-group kernel cache: the rows ORed from layers, the kernel
    # read off them and the cached cosets give what the set's own graph,
    # kernel_subgroup, verify_unworthy_theory and the all-pairs oracles give,
    # and the sweep counts every set.
    swept = {r.instance: r.certificate["sets_swept"] for r in run_theorem("prop-5.3", {"max_order": 12}, caps)}
    checked = 0
    for g in builtin_groups(12, caps):
        for key, alpha, items, certify in _unworthy_checks(g, caps):
            specs = list(enumerate_connection_sets(g, alpha, caps=caps))
            items = list(items)
            assert len(items) == len(specs) == swept[key]
            for spec, (s_mask, rows) in zip(specs, items):
                assert (s_mask, rows) == (spec.connection.mask, build_gc_graph(spec).rows)
                k_mask = kernel_subgroup(spec).set.mask
                ok, _, cert = certify((s_mask, rows))
                report = verify_unworthy_theory(spec)
                assert mask_of(cert["kernel"]) == k_mask
                assert cert == report.certificate
                assert cert["coset_law"] == all_pairs_coset_law(g.mul, g.inv, rows, k_mask)
                assert cert["unworthy"] == all_pairs_duplicate_rows(rows)
                assert ok == (report.verdict == "verified")
                checked += 1
    assert checked == 4643


def test_lex_decomposition_map_lists_cosets_by_least_element(caps, monkeypatch):
    # X -> X/K[empty |K|] sends the r-th member, ascending, of the i-th left
    # coset by least element to vertex i|K| + r.  Any order inside a coset
    # would also pass the witness check, so the map itself is compared, for
    # every set with |K| > 1 of every (G, alpha) to order 10.
    maps = []

    def recording(witness):
        maps.append(witness.mapping)
        return check_witness(witness)

    monkeypatch.setattr(theorems, "check_witness", recording)
    checked = 0
    for g in builtin_groups(10, caps):
        for alpha in enumerate_involutory_automorphisms(g):
            for spec in enumerate_connection_sets(g, alpha, caps=caps):
                maps.clear()
                assert verify_unworthy_theory(spec).verdict == "verified"
                k_mask = kernel_subgroup(spec).set.mask
                if k_mask == 1:
                    assert maps == []
                    continue
                want = [0] * g.order
                for i, coset in enumerate(sorted_tuple_cosets(g.mul, k_mask)):
                    for rank, v in enumerate(coset):
                        want[v] = i * len(coset) + rank
                assert maps == [tuple(want)]
                checked += 1
    assert checked == 450


def test_verify_unworthy_theory_reads_no_caps(caps, monkeypatch):
    # the per-set check takes no caps, so an unknown caps profile in the
    # environment does not reach it
    monkeypatch.setenv("GCG_CAPS_PROFILE", "bogus")
    g = make_group("Z4", caps)
    report = verify_unworthy_theory(make_spec(g, inversion_map(g), (1, 3)))
    assert (report.theorem_id, report.verdict) == ("cor-5.4", "verified")
    assert report.certificate["kernel"] == [0, 2]
