"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Each criterion prints `criterion-N PASS (...)` on success; a failure raises
with the offending instance so the line reads FAILED in the pytest report.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines directly.
"""
from __future__ import annotations

import random
import time
from collections import Counter

from gcg.automorphisms import (
    enumerate_involutory_automorphisms,
    fix_set,
    inversion_map,
    omega_set,
)
from gcg.canon import automorphism_group, canonical_form
from gcg.caps import caps_from_env
from gcg.catalog import builtin_descriptors, builtin_groups
from gcg.cayley import detect_cayley, stability_check
from gcg.census import RunConfig, refuting_records, run_census
from gcg.construct import (
    build_gc_graph,
    connection_orbits,
    enumerate_connection_sets,
)
from gcg.graphs import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    path_graph,
    petersen_graph,
    relabel,
    triangle_profile,
    triangles,
)
from gcg.groups import make_group
from gcg.theorems import (
    build_counterexample,
    dihedralize_inversion,
    run_theorem,
    verify_example_32,
    verify_example_33,
)

from oracles.brute import brute_automorphisms, naive_census_count, valid_connection_sets

CAPS = caps_from_env()


def _report(name: str, started: float, budget: float | None, detail: str) -> None:
    elapsed = time.perf_counter() - started
    stamp = f"{elapsed:.2f}s" + (f" < {budget:.0f}s" if budget else "")
    print(f"\n{name} PASS ({stamp}; {detail})")
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_1_fix_omega_product_law():
    started = time.perf_counter()
    pairs = 0
    for g in builtin_groups(16, CAPS):
        for alpha in enumerate_involutory_automorphisms(g):
            fix = fix_set(g, alpha)
            om = omega_set(g, alpha)
            assert len(fix) * len(om.set) == g.order, (g.name, alpha.perm)
            pairs += 1
    reports = run_theorem("lemma-2.3", {"max_order": 16}, CAPS)
    assert len(reports) == pairs == 570
    assert all(r.verdict == "verified" for r in reports)
    _report("criterion-1", started, 5.0, f"{pairs} (group, alpha) pairs")


def test_criterion_2_dihedralization_sweep():
    started = time.perf_counter()
    names = ["Z2", "Z4", "Z8", "Z6", "Z12", "Z20"]
    witnesses = 0
    for name in names:
        g = make_group(name, CAPS)
        iota = inversion_map(g)
        for spec in enumerate_connection_sets(g, iota, caps=CAPS):
            if not spec.set_ids():
                continue
            w = dihedralize_inversion(spec)
            # independent edge-preservation re-check, bypassing the witness
            # fields the construction itself validated
            x = build_gc_graph(spec)
            y_edges = {
                tuple(sorted((w.mapping[u], w.mapping[v]))) for u, v in x.edges()
            }
            target = build_gc_graph_of(w.target_group, w.target_set_ids)
            assert y_edges == set(target.edges()), (name, spec.set_ids())
            witnesses += 1
    reports = run_theorem("thm-3.1", {}, CAPS)
    assert [r.instance for r in reports] == names
    assert all(r.verdict == "verified" for r in reports)
    _report("criterion-2", started, 30.0, f"{witnesses} dihedralization witnesses")


def build_gc_graph_of(group, set_ids):
    from gcg.automorphisms import identity_automorphism
    from gcg.construct import make_spec

    return build_gc_graph(make_spec(group, identity_automorphism(group), set_ids))


def test_criterion_3_order_2p_exhaustive():
    started = time.perf_counter()
    reports = run_theorem("thm-4.3", {}, CAPS)  # p in {2, 3, 5}
    assert len(reports) == 20
    assert all(r.verdict == "verified" for r in reports), [
        (r.instance, r.verdict) for r in reports if r.verdict != "verified"
    ]
    swept = sum(r.certificate.get("sets_swept", 0) for r in reports)
    assert swept == 298
    # independent cross-check of every swept set: the regular-subgroup
    # search finds each graph Cayley on its own
    detected = 0
    for name in ("Z4", "D4", "Z6", "D6", "Z10", "D10"):
        g = make_group(name, CAPS)
        for alpha in enumerate_involutory_automorphisms(g):
            for spec in enumerate_connection_sets(g, alpha, caps=CAPS):
                verdict = detect_cayley(build_gc_graph(spec), CAPS)
                assert verdict.status == "cayley", (name, spec.set_ids(), verdict.status)
                detected += 1
    assert detected == swept
    _report("criterion-3", started, 60.0, f"{swept} specs certified across 20 sweeps and detected Cayley")


def test_criterion_4_counterexample_families():
    started = time.perf_counter()
    instances = []
    for m, n in ((1, 2), (2, 2), (1, 3)):
        rep = verify_example_32(m, n, CAPS)
        assert rep.verdict == "verified", (m, n, rep.certificate)
        assert rep.certificate["orbit_count"] >= 2
        instances.append(f"ex32({m},{n})")
    for k in (1, 2):
        rep = verify_example_33(k, CAPS)
        assert rep.verdict == "verified", (k, rep.certificate)
        assert rep.certificate["orbit_count"] >= 2
        assert rep.certificate["triangle_free_vertex"] == 0
        # the designated vertex (0,0,k) really sits on its listed triangle
        spec = build_counterexample("ex33", {"k": k}, CAPS)
        x = build_gc_graph(spec)
        tri = rep.certificate["triangle"]
        assert tri[0] == k
        for a in tri:
            for b in tri:
                if a != b:
                    assert x.has_edge(a, b)
        assert triangle_profile(x)[0] == 0
        instances.append(f"ex33({k})")
    # every triangle of each two-power instance passes through an involution
    for m, n in ((1, 2), (2, 2), (1, 3)):
        spec = build_counterexample("ex32", {"m": m, "n": n}, CAPS)
        g = spec.group
        x = build_gc_graph(spec)
        for u, v, w in triangles(x):
            assert any(g.mul[t][t] == 0 for t in (u, v, w)), (m, n, (u, v, w))
    _report("criterion-4", started, 10.0, ", ".join(instances))


def test_criterion_5_inversion_dichotomy():
    started = time.perf_counter()
    reports = run_theorem("thm-3.5", {"max_order": 24}, CAPS)
    assert len(reports) == 50
    branches = Counter()
    for rep in reports:
        assert rep.verdict == "verified", (rep.instance, rep.certificate)
        branch = rep.certificate["branch"]
        branches[branch] += 1
        g = make_group(rep.instance, CAPS)
        elementary = all(o <= 2 for o in g.element_orders)
        cyclic_sylow = (not elementary) and sum(
            1 for o in g.element_orders if o == 2
        ) <= 1
        expected = (
            "elementary" if elementary else "cyclic-sylow" if cyclic_sylow else "neither"
        )
        assert branch == expected, rep.instance
        if branch == "neither":
            assert rep.certificate["orbit_count"] >= 2
            assert "orbit_witness" in rep.certificate
        else:
            # positive branches certify Cayley-ness across the full sweep
            orbits = connection_orbits(g, inversion_map(g))
            assert rep.certificate["sets_swept"] == 1 << len(orbits), rep.instance
    assert branches["neither"] >= 1 and branches["elementary"] >= 1
    assert branches["cyclic-sylow"] >= 1
    _report(
        "criterion-5", started, 180.0,
        f"50 abelian groups: {dict(branches)}",
    )


def test_criterion_6_unworthiness_suite():
    started = time.perf_counter()
    counts = {}
    for tid in ("prop-5.1", "cor-5.2", "prop-5.3", "cor-5.4"):
        reports = run_theorem(tid, {"max_order": 12}, CAPS)
        assert all(r.verdict == "verified" for r in reports), tid
        counts[tid] = len(reports)
    assert counts == {
        "prop-5.1": 134, "cor-5.2": 134, "prop-5.3": 134, "cor-5.4": 100,
    }
    _report("criterion-6", started, 60.0, f"report counts {counts}")


def test_criterion_7_oracle_equivalences():
    started = time.perf_counter()
    fixtures = [
        cycle_graph(4), cycle_graph(5), cycle_graph(6), cycle_graph(7),
        complete_graph(4), empty_graph(5), path_graph(4),
        disjoint_union(complete_graph(3), complete_graph(3)),
        from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
        from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)]),
        from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7),
                       (7, 4), (0, 4), (1, 5), (2, 6), (3, 7)]),
    ]
    for g in fixtures:
        assert automorphism_group(g, CAPS.aut_node_budget).order == len(
            brute_automorphisms(g.rows)
        )
    rng = random.Random(0xACCE97)
    relabelings = 0
    for g in fixtures + [petersen_graph()]:
        base = canonical_form(g).fingerprint
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)).fingerprint == base
            relabelings += 1
    checked_pairs = 0
    for name in builtin_descriptors(12):
        grp = make_group(name, CAPS)
        for alpha in enumerate_involutory_automorphisms(grp):
            ours = {
                frozenset(s.set_ids())
                for s in enumerate_connection_sets(grp, alpha, caps=CAPS)
            }
            brute = set(valid_connection_sets(grp.mul, grp.inv, alpha.perm))
            assert ours == brute, (name, alpha.perm)
            checked_pairs += 1
    _report(
        "criterion-7", started, None,
        f"{len(fixtures)} brute groups, {relabelings} relabelings, "
        f"{checked_pairs} enumeration sweeps",
    )


def test_criterion_8_stability():
    started = time.perf_counter()
    spec32 = build_counterexample("ex32", {"m": 1, "n": 2}, CAPS)
    r32 = stability_check(build_gc_graph(spec32))
    assert (r32.status, r32.aut_order, r32.cover_aut_order) == ("unstable", 16, 128)
    spec33 = build_counterexample("ex33", {"k": 1}, CAPS)
    r33 = stability_check(build_gc_graph(spec33))
    assert (r33.status, r33.aut_order, r33.cover_aut_order) == ("unstable", 32, 768)
    rc3 = stability_check(cycle_graph(3))
    assert (rc3.status, rc3.aut_order, rc3.cover_aut_order) == ("stable", 6, 12)
    assert r32.cover_aut_order > 2 * r32.aut_order
    assert r33.cover_aut_order > 2 * r33.aut_order
    assert rc3.cover_aut_order == 2 * rc3.aut_order
    _report(
        "criterion-8", started, 10.0,
        "ex32(1,2): 128 > 2*16, ex33(1): 768 > 2*32, C3: 12 = 2*6",
    )


def test_criterion_9_census_determinism(tmp_path):
    started = time.perf_counter()
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    records = run_census(RunConfig(max_order=8, out_path=str(serial), jobs=1, caps=CAPS))
    run_census(RunConfig(max_order=8, out_path=str(parallel), jobs=4, caps=CAPS))
    assert serial.read_bytes() == parallel.read_bytes()
    triples = []
    for name in builtin_descriptors(8):
        g = make_group(name, CAPS)
        triples.append(
            (g.mul, g.inv, [a.perm for a in enumerate_involutory_automorphisms(g)])
        )
    assert len(records) == naive_census_count(triples) == 928
    assert refuting_records(records) == []
    _report(
        "criterion-9", started, None,
        f"{len(records)} records byte-identical at 1 and 4 workers, 0 refutations",
    )
