from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gcg import canon
from gcg.automorphisms import automorphism_from_perm, enumerate_involutory_automorphisms, inversion_map
from gcg.canon import automorphism_group, is_isomorphic
from gcg.caps import Caps
from gcg.catalog import builtin_descriptors
from gcg.cayley import detect_cayley, is_vertex_transitive, stability_check, twisted_translation
from gcg.construct import build_gc_graph, connection_orbits, enumerate_connection_sets, make_spec
from gcg.graphs import (
    Graph,
    check_witness,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    path_graph,
    petersen_graph,
    relabel,
)
from gcg.groups import make_group

from oracles.brute import brute_vertex_orbits, circulant_rows, enumerated_cayley_status


def test_vertex_transitivity_basics():
    assert is_vertex_transitive(cycle_graph(7))
    assert is_vertex_transitive(complete_graph(5))
    assert is_vertex_transitive(petersen_graph())
    assert not is_vertex_transitive(path_graph(3))
    assert not is_vertex_transitive(from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]))
    # transitivity matches a one-orbit brute check on small graphs
    for g in (cycle_graph(6), path_graph(4), disjoint_union(cycle_graph(3), cycle_graph(3))):
        assert is_vertex_transitive(g) == (len(brute_vertex_orbits(g.rows)) == 1)


def test_detect_cayley_on_circulant(caps):
    verdict = detect_cayley(cycle_graph(6), caps)
    assert verdict.status == "cayley"
    assert verdict.group is not None and verdict.group.order == 6
    assert verdict.witness is not None and check_witness(verdict.witness)
    # the recovered connection set matches the witness edges
    ids = verdict.connection_ids
    assert ids is not None and len(ids) == 2


def _cayley_graph(group, ids):
    # Cay(G, S) is the GC graph of the identity automorphism: x ~ xs
    ident = automorphism_from_perm(group, range(group.order))
    return build_gc_graph(make_spec(group, ident, ids))


def test_detect_cayley_trivial_families(caps):
    for g in (empty_graph(5), complete_graph(6)):
        verdict = detect_cayley(g, caps)
        assert verdict.status == "cayley"
        assert verdict.reason.endswith("graph is a circulant")
        assert verdict.group.order == g.n and verdict.group.name == f"Reg{g.n}"
        assert check_witness(verdict.witness) and verdict.witness.target == g
        assert verdict.witness.source == _cayley_graph(verdict.group, verdict.connection_ids)


def test_component_isomorphisms_need_no_canonical_search(caps, monkeypatch):
    # the isomorphisms between components come from Aut(X)'s first
    # transversal: detection searches X and the component through the base
    # point, and no other component (the complement of 3C4 is detected
    # through 3C4, whose component C4 is detected through 2K2); a complete or
    # edgeless component (K2 there, K3 in 2K3 and in K3,3 = co-2K3) takes
    # the cyclic shifts with no search
    searched = []

    class Counting(canon._Budget):
        def __init__(self, *args):
            super().__init__(*args)
            searched.append(self.n)

    monkeypatch.setattr(canon, "_Budget", Counting)
    c5, c4 = cycle_graph(5), cycle_graph(4)
    two_c5 = relabel(_union(c5, c5), (3, 7, 0, 9, 5, 1, 8, 2, 6, 4))
    two_k3 = _union(complete_graph(3), complete_graph(3))
    for g, sizes in (
        (two_c5, [10, 5]),
        (_union(c4, c4, c4).complement(), [12, 4]),
        (two_k3, [6]),
        (two_k3.complement(), [6]),
    ):
        canon._search_cached.cache_clear()
        searched.clear()
        verdict = detect_cayley(g, caps)
        assert verdict.status == "cayley"
        assert check_witness(verdict.witness) and verdict.witness.target == g
        assert verdict.witness.source == _cayley_graph(verdict.group, verdict.connection_ids)
        assert searched == sizes


def test_detect_cayley_petersen(caps):
    verdict = detect_cayley(petersen_graph(), caps)
    assert verdict.status == "not_cayley"
    assert verdict.reason == "no regular subgroup in the full automorphism group"
    assert verdict.aut_order == 120


def test_detect_cayley_intransitive(caps):
    verdict = detect_cayley(path_graph(4), caps)
    assert verdict.status == "not_cayley"
    assert verdict.orbit_witness is not None
    u, v = verdict.orbit_witness
    assert u != v


def test_detect_cayley_unknown_under_tiny_budget():
    # C6 is connected and co-connected, so it reaches the chain search
    g = cycle_graph(6)
    assert g.is_connected() and g.complement().is_connected()
    verdict = detect_cayley(g, Caps(regular_search_budget=1))
    assert verdict.status == "unknown"
    assert verdict.reason.startswith("regular-subgroup search")
    assert "1 chain nodes" in verdict.reason


def test_gc_graphs_of_cyclic_groups_are_cayley(caps):
    # every valid spec over Z8 yields a detected Cayley graph
    g = make_group("Z8", caps)
    for alpha in enumerate_involutory_automorphisms(g):
        for spec in enumerate_connection_sets(g, alpha, caps=caps):
            x = build_gc_graph(spec)
            verdict = detect_cayley(x, caps)
            assert verdict.status == "cayley", (alpha.perm, spec.set_ids())
            if verdict.witness is not None:
                assert check_witness(verdict.witness)


def test_known_non_vertex_transitive_gc_graph(caps):
    # order-12 spec with a certified intransitive graph
    g = make_group("Z2xZ2xZ3", caps)
    spec = make_spec(g, inversion_map(g), (3, 6, 10))
    x = build_gc_graph(spec)
    assert not is_vertex_transitive(x)
    verdict = detect_cayley(x, caps)
    assert verdict.status == "not_cayley"
    assert verdict.orbit_witness is not None


def test_stability_of_odd_cycles():
    r = stability_check(cycle_graph(3))
    assert r.status == "stable"
    assert r.aut_order == 6 and r.cover_aut_order == 12
    assert stability_check(cycle_graph(5)).status == "stable"


def test_stability_not_applicable():
    assert stability_check(cycle_graph(4)).status == "not_applicable"
    assert stability_check(disjoint_union(cycle_graph(3), cycle_graph(3))).status == "not_applicable"


def test_unstable_gc_graphs(caps):
    # frozen desk cases: both engines certify instability with exact orders
    g1 = make_group("Z2xZ4", caps)
    spec1 = make_spec(g1, inversion_map(g1), (1, 4, 5))
    r1 = stability_check(build_gc_graph(spec1))
    assert r1.status == "unstable"
    assert r1.cover_aut_order > 2 * r1.aut_order

    g2 = make_group("Z2xZ2xZ3", caps)
    spec2 = make_spec(g2, inversion_map(g2), (3, 6, 10))
    r2 = stability_check(build_gc_graph(spec2))
    assert r2.status == "unstable"
    assert r2.cover_aut_order > 2 * r2.aut_order


def _certified_and_searched(x, pair):
    """The certificate route's and the pair-free cover search's answers on x."""
    return stability_check(x, two_fold=pair), stability_check(x)


def test_twisted_translation_agrees_with_the_cover_search(caps):
    # the pair-free double-cover search is the independent answer: every
    # connected non-bipartite census graph to order 10 with alpha != id
    checked = 0
    for name in builtin_descriptors(10):
        g = make_group(name, caps)
        for alpha in enumerate_involutory_automorphisms(g):
            pair = twisted_translation(g, alpha.perm)
            assert (pair is None) == (alpha.perm == tuple(range(g.order)))
            if pair is None:
                continue
            for spec in enumerate_connection_sets(g, alpha, caps=caps):
                x = build_gc_graph(spec)
                if not x.is_connected() or x.is_bipartite():
                    continue
                certified, searched = _certified_and_searched(x, pair)
                assert certified.status == searched.status == "unstable"
                assert certified.two_fold == pair
                assert certified.aut_order is None and certified.cover_aut_order is None
                assert certified.reason.endswith(f"t = tau(0) = {pair[1][0]}")
                assert searched.cover_aut_order > 2 * searched.aut_order
                checked += 1
    assert checked == 184


@st.composite
def alpha_non_identity_specs(draw):
    caps = Caps()
    g = make_group(draw(st.sampled_from(builtin_descriptors(12))), caps)
    involutions = enumerate_involutory_automorphisms(g)[1:]   # index 0 is the identity
    assume(involutions)
    alpha = draw(st.sampled_from(involutions))
    orbits = connection_orbits(g, alpha)
    chosen = draw(st.lists(st.booleans(), min_size=len(orbits), max_size=len(orbits)))
    return make_spec(g, alpha, [s for orbit, keep in zip(orbits, chosen) if keep for s in orbit])


@settings(max_examples=80, deadline=None)
@given(alpha_non_identity_specs())
def test_twisted_translation_agrees_with_the_cover_search_to_order_12(spec):
    # the dihedral groups D6, D8, D10 and D12 included
    x = build_gc_graph(spec)
    pair = twisted_translation(spec.group, spec.alpha.perm)
    certified, searched = _certified_and_searched(x, pair)
    assert certified.status == searched.status
    if searched.status != "not_applicable":
        assert certified.status == "unstable" and certified.two_fold == pair
        assert searched.cover_aut_order > 2 * searched.aut_order


def test_stability_check_refuses_a_bad_two_fold_pair(caps):
    g = make_group("D8", caps)
    involutions = enumerate_involutory_automorphisms(g)
    x = build_gc_graph(make_spec(g, involutions[2], (1, 4, 5, 7)))
    assert x.is_connected() and not x.is_bipartite()
    sigma, tau = twisted_translation(g, involutions[2].perm)
    assert stability_check(x, 0, (sigma, tau)).status == "unstable"   # no search, so no budget
    identity = tuple(range(g.order))
    right = tuple(g.mul[v][tau[0]] for v in range(g.order))   # x -> xt, not tx
    for pair, match in (
        ((identity, identity), "sigma = tau"),
        ((sigma, sigma), "N\\(sigma"),
        ((sigma, right), "N\\(sigma"),
        (twisted_translation(g, involutions[1].perm), "N\\(sigma"),
        ((sigma, tau[:-1]), "not a permutation"),
        ((sigma, (0,) * g.order), "not a permutation"),
    ):
        with pytest.raises(ValueError, match=match):
            stability_check(x, two_fold=pair)


def _union(*parts):
    out = parts[0]
    for p in parts[1:]:
        out = disjoint_union(out, p)
    return out


def _agrees_with_oracle(g, caps):
    verdict = detect_cayley(g, caps)
    status, reason = enumerated_cayley_status(g.rows)
    assert verdict.status == status, (g.rows, verdict.reason, reason)
    if verdict.status == "cayley":
        assert verdict.group.order == g.n
        assert check_witness(verdict.witness)
    return verdict, reason


def test_detect_cayley_on_large_cycle(caps):
    # vertex ids above 255 once broke byte-keyed permutations
    verdict = detect_cayley(cycle_graph(300), caps)
    assert verdict.status == "cayley"
    assert verdict.group.order == 300
    assert check_witness(verdict.witness)


def test_census_graphs_to_order_8_match_enumeration_oracle(caps):
    seen = set()
    for name in builtin_descriptors(8):
        g = make_group(name, caps)
        for alpha in enumerate_involutory_automorphisms(g):
            for spec in enumerate_connection_sets(g, alpha, caps=caps):
                x = build_gc_graph(spec)
                if x.rows not in seen:
                    seen.add(x.rows)
                    _agrees_with_oracle(x, caps)
    assert len(seen) > 100


def test_petersen_family_matches_oracle(caps):
    p = petersen_graph()
    verdict, reason = _agrees_with_oracle(p, caps)
    assert verdict.status == "not_cayley" and verdict.reason == reason
    # 2P is disconnected: the answer comes from one component
    verdict, reason = _agrees_with_oracle(disjoint_union(p, p), caps)
    assert verdict.status == "not_cayley" and verdict.reason == reason
    assert verdict.aut_order == 2 * 120 * 120
    _agrees_with_oracle(p.complement(), caps)


def test_large_automorphism_groups(caps):
    k5, c4, k4 = complete_graph(5), cycle_graph(4), complete_graph(4)
    verdict, _ = _agrees_with_oracle(_union(k5, k5), caps)
    assert verdict.aut_order == 28800
    # |Aut| = 3932160 and 7962624: beyond listing, so the reference answer
    # is an explicit circulant presentation, certified by an isomorphism
    for g, n, conn in (
        (_union(c4, c4, c4, c4, c4), 20, (5, 15)),
        (_union(k4, k4, k4, k4).complement(), 16, [s for s in range(16) if s % 4]),
    ):
        verdict = detect_cayley(g, caps)
        assert verdict.status == "cayley"
        assert check_witness(verdict.witness)
        assert is_isomorphic(g, Graph(n, circulant_rows(n, conn))) is not None
    # the same shapes at listable size agree with the oracle
    _agrees_with_oracle(_union(c4, c4, c4), caps)
    _agrees_with_oracle(_union(k4, k4, k4).complement(), caps)


@st.composite
def unions_of_circulants(draw):
    k = draw(st.integers(3, 7))
    m = draw(st.integers(2, 3))
    half = draw(st.lists(st.integers(1, k // 2), min_size=1, max_size=k // 2, unique=True))
    y = Graph(k, circulant_rows(k, half + [-s for s in half]))
    g = _union(*[y] * m)
    if draw(st.booleans()):
        g = g.complement()
    return relabel(g, draw(st.permutations(range(g.n))))


@settings(max_examples=30, deadline=None)
@given(unions_of_circulants())
def test_unions_of_circulants_match_oracle(g):
    assume(automorphism_group(g).order <= 100_000)
    verdict, _ = _agrees_with_oracle(g, Caps())
    assert verdict.status == "cayley"
