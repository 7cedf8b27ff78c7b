from __future__ import annotations

import pytest

from gcg.automorphisms import (
    enumerate_automorphisms,
    enumerate_involutory_automorphisms,
    identity_automorphism,
    inversion_map,
)
from gcg.construct import build_gc_graph, enumerate_connection_sets, make_spec
from gcg.errors import ShapeError
from gcg.graphs import check_witness
from gcg.groups import make_group
from gcg.theorems import (
    THEOREM_IDS,
    build_counterexample,
    check_inversion_dichotomy,
    dihedralize_inversion,
    normal_form_odd_abelian,
    order_2p_witness,
    run_theorem,
    verify_conjugation_isomorphism,
    verify_example_32,
    verify_example_33,
    verify_product_lemma,
)


def all_verified(reports):
    assert reports, "runner produced no reports"
    for r in reports:
        assert r.verdict == "verified", (r.theorem_id, r.instance, r.certificate)
    return reports


def test_theorem_registry():
    assert len(THEOREM_IDS) == 18
    assert THEOREM_IDS[0] == "prop-2.1"
    with pytest.raises(ShapeError):
        run_theorem("thm-9.9")


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


def test_dihedralization_runner(caps):
    reports = all_verified(run_theorem("thm-3.1", caps=caps))
    assert [r.instance for r in reports] == ["Z2", "Z4", "Z8", "Z6", "Z12", "Z20"]
    for r in reports:
        assert r.certificate["sets_swept"] >= 1


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
    w = order_2p_witness(make_spec(z6, identity_automorphism(z6), (1, 5)), caps)
    assert w.route == "cyclic-identity"
    w = order_2p_witness(make_spec(z6, inversion_map(z6), (1, 3, 5)), caps)
    assert w.route == "cyclic-dihedralize"
    assert check_witness(w.witness)

    d6 = make_group("D6", caps)
    ident = identity_automorphism(d6)
    refl = (3, 4, 5)
    w = order_2p_witness(make_spec(d6, ident, refl), caps)
    assert w.route == "dihedral-identity"
    phi_alpha = [a for a in enumerate_involutory_automorphisms(d6)
                 if a.perm != ident.perm][0]
    spec = next(iter(
        s for s in enumerate_connection_sets(d6, phi_alpha, nonempty_only=True, caps=caps)
    ))
    w = order_2p_witness(spec, caps)
    assert w.route == "dihedral-phi"
    assert check_witness(w.witness)
    assert "halfshift" in w.params

    d4 = make_group("D4", caps)
    alpha = enumerate_involutory_automorphisms(d4)[1]
    spec4 = next(iter(
        s for s in enumerate_connection_sets(d4, alpha, nonempty_only=True, caps=caps)
    ))
    w4 = order_2p_witness(spec4, caps)
    assert w4.route in ("small-direct", "dihedral-identity", "cyclic-identity",
                        "cyclic-dihedralize")

    with pytest.raises(ShapeError):
        z9 = make_group("Z9", caps)
        order_2p_witness(make_spec(z9, identity_automorphism(z9), (1, 8)), caps)


def test_order_2p_runners(caps):
    reports = all_verified(run_theorem("lemma-4.1", caps=caps))
    assert [r.instance for r in reports] == ["Z4", "Z6", "Z10"]
    all_verified(run_theorem("lemma-4.2", {"p": 3}, caps))
    reports = all_verified(run_theorem("thm-4.3", caps=caps))
    assert len(reports) == 20
    swept = sum(r.certificate.get("sets_swept", 0) for r in reports)
    assert swept == 298
    assert all(r.certificate["cayley_unknown"] == 0 for r in reports)


def test_thm_4_3_counts_unknown_cayley_cross_checks():
    # a one-node regular-subgroup search cannot settle the connected,
    # co-connected graphs, and the reports say how many went unsettled
    from gcg.caps import Caps

    reports = all_verified(run_theorem("thm-4.3", {"p": 3}, Caps(regular_search_budget=1)))
    unknown = [r.certificate["cayley_unknown"] for r in reports]
    assert sum(unknown) > 0
    assert all(u <= r.certificate["sets_swept"] for u, r in zip(unknown, reports))


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
