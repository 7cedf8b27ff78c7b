from __future__ import annotations

import collections
import functools
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcg import canon, perms
from gcg.automorphisms import enumerate_involutory_automorphisms
from gcg.canon import (
    _aut_search,
    _cover_seeds,
    _neighbours,
    _refine,
    _SiblingOrbits,
    _target_cell,
    _trace,
    CanonicalForm,
    automorphism_group,
    canonical_form,
    double_cover_automorphism_group,
    is_isomorphic,
)
from gcg.caps import Caps
from gcg.catalog import builtin_descriptors
from gcg.cayley import detect_cayley, stability_check
from gcg.census import RunConfig, run_census
from gcg.construct import build_gc_graph, enumerate_connection_sets, make_spec
from gcg.errors import BudgetExceeded
from gcg.formats import from_graph6, graph6_in_order, to_graph6
from gcg.graphs import (
    Graph,
    bipartite_double_cover,
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
from gcg.groups import make_group, mask_of
from gcg.perms import StabilizerChain, pinv

from oracles import brute
from oracles.brute import (
    SchreierSimsChain,
    _orbit_hits,
    brute_automorphisms,
    brute_vertex_orbits,
    circulant_rows,
    eager_transversals,
    graph6_keyed_canon_search,
    is_graph_automorphism,
    leaf_descent_aut_search,
    refining_canon_search,
    scanning_refine,
)

FIXTURES = [
    ("C4", cycle_graph(4), 8),
    ("C5", cycle_graph(5), 10),
    ("C6", cycle_graph(6), 12),
    ("K4", complete_graph(4), 24),
    ("K5", complete_graph(5), 120),
    ("E5", empty_graph(5), 120),
    ("P4", path_graph(4), 2),
    ("K3+K3", disjoint_union(complete_graph(3), complete_graph(3)), 72),
    ("C3+P2", disjoint_union(cycle_graph(3), path_graph(2)), 12),
    ("paw", from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]), 2),
    ("K33", from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)]), 72),
    ("cube", from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6),
                            (6, 7), (7, 4), (0, 4), (1, 5), (2, 6), (3, 7)]), 48),
]


def test_automorphism_orders_match_brute_force():
    # the oracle filters all n! candidate bijections (n <= 8)
    for name, g, want in FIXTURES:
        desc = automorphism_group(g)
        assert desc.order == want, name
        assert desc.order == len(brute_automorphisms(g.rows)), name


def test_automorphism_generators_are_automorphisms():
    for name, g, _ in FIXTURES:
        desc = automorphism_group(g)
        assert desc.degree == g.n
        for gen in desc.generators:
            assert check_witness_like(g, gen), name


def check_witness_like(g, perm):
    from gcg.graphs import IsomorphismWitness, check_witness

    return check_witness(IsomorphismWitness(g, g, tuple(perm)))


def test_vertex_orbits_match_brute_force():
    for name, g, _ in FIXTURES:
        desc = automorphism_group(g)
        ours = sorted(tuple(sorted(o)) for o in desc.orbits)
        brute = sorted(tuple(sorted(o)) for o in brute_vertex_orbits(g.rows))
        assert ours == brute, name


def test_petersen_automorphism_group():
    desc = automorphism_group(petersen_graph())
    assert desc.order == 120
    assert len(desc.orbits) == 1


def test_canonical_fingerprint_invariant_under_relabeling():
    rng = random.Random(20260818)
    for name, g, _ in FIXTURES:
        base = canonical_form(g).fingerprint
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)).fingerprint == base, name


def test_fingerprints_separate_nonisomorphic_pairs():
    pairs = [
        (cycle_graph(6), disjoint_union(cycle_graph(3), cycle_graph(3))),
        (path_graph(4), from_edges(4, [(0, 1), (0, 2), (0, 3)])),
        (complete_graph(4), cycle_graph(4)),
    ]
    for a, b in pairs:
        assert canonical_form(a).fingerprint != canonical_form(b).fingerprint


def test_is_isomorphic_returns_checked_witness():
    rng = random.Random(7)
    for name, g, _ in FIXTURES:
        perm = list(range(g.n))
        rng.shuffle(perm)
        w = is_isomorphic(g, relabel(g, perm))
        assert w is not None, name
        assert check_witness(w), name
    assert is_isomorphic(cycle_graph(6),
                         disjoint_union(cycle_graph(3), cycle_graph(3))) is None
    assert is_isomorphic(cycle_graph(4), cycle_graph(5)) is None


def test_budget_errors_name_the_search():
    g = cycle_graph(6)
    with pytest.raises(BudgetExceeded) as exc:
        automorphism_group(g, budget=1)
    assert str(exc.value) == "automorphism search: budget exhausted after 1 refinement nodes on 6 vertices"
    # one walk finds Aut and the canonical leaf, so both run out together
    with pytest.raises(BudgetExceeded, match="^automorphism search: budget exhausted after 2 refinement nodes on 6 vertices$"):
        canonical_form(g, budget=2)


def test_empty_graph_has_a_canonical_form_and_a_trivial_group():
    assert canonical_form(from_graph6("?")).fingerprint == b"?"
    assert automorphism_group(Graph(0, ())).order == 1


def test_cover_budget_error_names_the_search(caps):
    # Cay(D6, {1, 2, 3, 4}) (alpha #0): its own search fits in 9 nodes, its
    # double cover's needs 14
    g = make_group("D6", caps)
    x = build_gc_graph(make_spec(g, enumerate_involutory_automorphisms(g)[0], (1, 2, 3, 4)))
    with pytest.raises(BudgetExceeded) as exc:
        stability_check(x, 9)
    assert str(exc.value) == (
        "double-cover automorphism search: budget exhausted after 9 refinement nodes on 12 vertices"
    )
    assert stability_check(x, 14).status == "unstable"


def test_seeds_must_be_automorphisms():
    g = cycle_graph(5)
    shift = tuple((v + 1) % 5 for v in range(5))
    assert _aut_search(g.rows, g.n, 100, [shift])[1][0] == shift
    with pytest.raises(ValueError, match="is not an automorphism"):
        _aut_search(g.rows, g.n, 100, [(1, 0, 2, 3, 4)])


def test_sympy_cross_check_on_generators():
    sympy = __import__("sympy.combinatorics", fromlist=["Permutation", "PermutationGroup"])
    for name, g, want in FIXTURES:
        desc = automorphism_group(g)
        if desc.order == 1:
            continue
        perms = [sympy.Permutation(list(p), size=g.n) for p in desc.generators]
        assert sympy.PermutationGroup(perms).order() == want, name


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=10,
            ),
            st.permutations(list(range(n))),
        )
    )
)
def test_random_graphs_canonical_and_aut_agree_with_brute(case):
    n, edges, perm = case
    g = from_edges(n, edges)
    assert automorphism_group(g).order == len(brute_automorphisms(g.rows))
    assert canonical_form(relabel(g, perm)).fingerprint == canonical_form(g).fingerprint


def _chain_agrees_with_oracles(g):
    """|Aut| from the search's strong generating set equals the incremental
    Schreier-Sims order of the same generators and the brute-force count, and
    every transversal element is an automorphism with the promised action."""
    desc = automorphism_group(g)
    sifted = SchreierSimsChain(g.n)
    for gen in desc.generators:
        sifted.add(gen)
    assert desc.order == sifted.order()
    assert desc.order == len(brute_automorphisms(g.rows))
    chain = automorphism_group(g).chain
    for i, b in enumerate(chain.base):
        for point, u in chain.transversal[i].items():
            assert is_graph_automorphism(g.rows, u)
            assert all(u[c] == c for c in chain.base[:i])
            assert u[b] == point


def _distinct_census_graphs(max_order, caps):
    seen = set()
    for name in builtin_descriptors(max_order):
        grp = make_group(name, caps)
        for alpha in enumerate_involutory_automorphisms(grp):
            for spec in enumerate_connection_sets(grp, alpha, caps=caps):
                x = build_gc_graph(spec)
                if x.rows not in seen:
                    seen.add(x.rows)
                    yield x


def test_chain_orders_on_census_graphs_to_order_8(caps):
    graphs = list(_distinct_census_graphs(8, caps))
    for x in graphs:
        _chain_agrees_with_oracles(x)
    assert len(graphs) > 400


def _fingerprint_is_graph6_of_the_relabelled_graph(g):
    form = canonical_form(g)
    assert form.fingerprint == to_graph6(relabel(g, form.labeling)).encode("ascii")


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] < e[1]
        )).map(lambda edges: from_edges(n, sorted(edges)))
    )
)
def test_fingerprint_is_graph6_of_the_relabelled_graph(g):
    # the fingerprint is the best leaf's graph6; the oracle relabels and encodes
    _fingerprint_is_graph6_of_the_relabelled_graph(g)


def test_census_fingerprints_are_graph6_of_the_relabelled_graphs(caps):
    count = 0
    for x in _distinct_census_graphs(8, caps):
        _fingerprint_is_graph6_of_the_relabelled_graph(x)
        count += 1
    assert count == 430


def _recorded_budgets(mp, *modules):
    """Sets `_Budget` of the modules to a subclass that records every budget
    made; returns the record."""
    budgets = []

    class Counting(canon._Budget):
        def __init__(self, *args):
            super().__init__(*args)
            budgets.append(self)

    for module in modules:
        mp.setattr(module, "_Budget", Counting)
    return budgets


def test_unseeded_search_trees_are_pinned(caps, monkeypatch):
    # base, generators, canonical labelling and nodes spent of the one walk
    # over the distinct census graphs to order 8, captured when it took over
    # from an automorphism search and a canonical search run one after the
    # other
    budgets = _recorded_budgets(monkeypatch, canon)
    digest = hashlib.sha256()
    count = 0
    for x in _distinct_census_graphs(8, caps):
        budgets.clear()
        base, gens, lab = _aut_search(x.rows, x.n, 10**9)
        (budget,) = budgets
        digest.update(repr((x.rows, base, gens, lab, budget.nodes)).encode())
        count += 1
    assert count == 430
    assert digest.hexdigest() == "5910f4bbe53507222bc65ee5f082dea4ce9ac44916ed38cb08a66781d29d0aaf"


def test_seeded_search_trees_are_pinned(caps, monkeypatch):
    # base, generators and nodes spent of the double-cover search, seeded as
    # `double_cover_automorphism_group` seeds it, over the distinct census
    # graphs to order 8, captured while every probe still walked down to a
    # leaf and keyed it by its graph6
    budgets = _recorded_budgets(monkeypatch, canon)
    digest = hashlib.sha256()
    count = 0
    for x in _distinct_census_graphs(8, caps):
        _, gens, _ = _aut_search(x.rows, x.n, 10**9)
        cover = bipartite_double_cover(x)
        budgets.clear()
        base, cover_gens, _ = _aut_search(
            cover.rows, cover.n, 10**9, _cover_seeds(x.n, gens), "double-cover automorphism search")
        (budget,) = budgets
        digest.update(repr((x.rows, base, cover_gens, budget.nodes)).encode())
        count += 1
    assert count == 430
    assert digest.hexdigest() == "bc96aaf60e8a7a4a4ac1d8b2061809a2fdf06240b2628642d325c3677fb17792"


def _hypercube(d):
    n = 1 << d
    return from_edges(n, [(v, v ^ 1 << i) for v in range(n) for i in range(d) if v >> i & 1 == 0])


def _rook(m, k):
    # K_m box K_k: vertex a * k + b, adjacent when one coordinate agrees
    n = m * k
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if u // k == v // k or u % k == v % k])


def _crown(k):
    # K_{k,k} minus a perfect matching
    return from_edges(2 * k, [(i, k + j) for i in range(k) for j in range(k) if i != j])


SEARCH_FAMILIES = (
    [cycle_graph(n) for n in range(3, 13)]
    + [_hypercube(d) for d in (2, 3, 4)]
    + [_rook(m, k) for m, k in ((2, 3), (3, 3), (2, 4), (3, 4))]
    + [petersen_graph()]
    + [_crown(k) for k in (3, 4, 5, 6)]
)


def _walked(search, *args):
    """The answer of one search and the nodes it charged."""
    with pytest.MonkeyPatch.context() as mp:
        budgets = _recorded_budgets(mp, canon, brute)
        answer = search(*args)
    (budget,) = budgets
    return answer, budget.nodes


def test_search_trees_equal_the_leaf_descent_on_families():
    # on these graphs the walk makes no canonical descent: its base,
    # generators and nodes charged, and those of the seeded double-cover
    # search, are those of the search that walked every probe down to a leaf
    # and keyed leaves by graph6, and its labelling is that of the canonical
    # search that followed it
    for g in SEARCH_FAMILIES:
        (base, gens, lab), nodes = _walked(_aut_search, g.rows, g.n, 10**9)
        assert ((base, gens), nodes) == _walked(leaf_descent_aut_search, g.rows, g.n, 10**9)
        assert lab == graph6_keyed_canon_search(g.rows, g.n, gens, 10**9)
        cover = bipartite_double_cover(g)
        seeded = (cover.rows, cover.n, 10**9, _cover_seeds(g.n, gens), "double-cover automorphism search")
        (*cover_tree, _), cover_nodes = _walked(_aut_search, *seeded)
        assert (tuple(cover_tree), cover_nodes) == _walked(leaf_descent_aut_search, *seeded)


def _walk_agrees_with_the_oracles(g) -> tuple[int, int]:
    """The walk's base and generators are the leaf-descent search's, its
    labelling and fingerprint are those of the canonical search given those
    generators that refines every node, it charges at least the nodes of the
    former and at most those of both, and one node fewer runs it out with
    the automorphism search's message.  Returns the nodes charged by the
    walk and by the leaf-descent search."""
    (base, gens, lab), nodes = _walked(_aut_search, g.rows, g.n, 10**9)
    (want_base, want_gens), aut_nodes = _walked(leaf_descent_aut_search, g.rows, g.n, 10**9)
    want_lab, canon_nodes = _walked(refining_canon_search, g.rows, g.n, list(gens), 10**9)
    assert (base, gens, lab) == (want_base, want_gens, want_lab)
    assert canonical_form(g, 10**9) == CanonicalForm(lab, graph6_in_order(g.rows, pinv(lab)).encode("ascii"))
    assert aut_nodes <= nodes <= aut_nodes + canon_nodes
    if nodes:
        message = f"^automorphism search: budget exhausted after {nodes - 1} refinement nodes on {g.n} vertices$"
        with pytest.raises(BudgetExceeded, match=message):
            _aut_search(g.rows, g.n, nodes - 1)
    return nodes, aut_nodes


def _cover_walk_agrees_with_the_oracles(g) -> None:
    """The walk of the double cover, seeded as `double_cover_automorphism_group`
    seeds it, has the leaf-descent search's base and generators, and charges
    at least that search's nodes and at most those of it and of the canonical
    search that refines every node."""
    _, gens, _ = _aut_search(g.rows, g.n, 10**9)
    cover = bipartite_double_cover(g)
    seeded = (cover.rows, cover.n, 10**9, _cover_seeds(g.n, gens), "double-cover automorphism search")
    (base, cover_gens, _), nodes = _walked(_aut_search, *seeded)
    want, aut_nodes = _walked(leaf_descent_aut_search, *seeded)
    assert (base, cover_gens) == want
    _, canon_nodes = _walked(refining_canon_search, cover.rows, cover.n, list(cover_gens), 10**9)
    assert aut_nodes <= nodes <= aut_nodes + canon_nodes


@functools.cache
def _census_graphs_to_order_10() -> tuple[Graph, ...]:
    return tuple(_distinct_census_graphs(10, Caps()))


@st.composite
def _relabelled_symmetric_graphs(draw) -> Graph:
    """A census graph to order 10, or a disjoint union of two circulants,
    maybe complemented, with its vertices renamed.  About one relabelled
    census graph in twelve makes the walk descend into a sibling whose trace
    is less than the first path's; uniform random graphs almost never do."""
    def circulant(n: int) -> Graph:
        jumps = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
        return Graph(n, circulant_rows(n, [*jumps, *(-d for d in jumps)]))

    if draw(st.booleans()):
        pool = _census_graphs_to_order_10()
        x = pool[draw(st.integers(0, len(pool) - 1))]
    else:
        a = draw(st.integers(1, 9))
        b = draw(st.integers(0, 10 - a))
        x = disjoint_union(circulant(a), circulant(b)) if b else circulant(a)
    if draw(st.booleans()):
        x = x.complement()
    return relabel(x, draw(st.permutations(range(x.n))))


@settings(max_examples=240, deadline=None)
@given(
    st.integers(min_value=1, max_value=10).flatmap(
        lambda n: st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] < e[1]
        )).map(lambda edges: from_edges(n, sorted(edges)))
    )
    | _relabelled_symmetric_graphs()
)
def test_search_trees_equal_the_leaf_descent_on_random_graphs(g):
    # the walk's automorphism tree is the leaf-descent search's; its
    # canonical descents find the refining canonical search's leaf; and so
    # for the seeded walk of the double cover
    _walk_agrees_with_the_oracles(g)
    _cover_walk_agrees_with_the_oracles(g)


def _refined_and_charged(g):
    """`_child` calls and nodes charged by one automorphism search of g."""
    refined = []
    child = canon._child

    def counting_child(*args):
        refined.append(args[3])
        return child(*args)

    with pytest.MonkeyPatch.context() as mp:
        budgets = _recorded_budgets(mp, canon)
        mp.setattr(canon, "_child", counting_child)
        _aut_search(g.rows, g.n, 10**9)
    (budget,) = budgets
    return len(refined), budget.nodes


def test_probes_stop_where_they_line_up_with_the_first_path():
    # on K_{6,6} minus a perfect matching the early route fires: 6 of the 25
    # nodes charged are never refined
    assert _refined_and_charged(_crown(6)) == (19, 25)
    # on Q5 it cannot fire above a leaf: an automorphism fixing the vertices
    # of every non-singleton cell of a node there is the identity, and the
    # probe's singletons differ from the first path's
    assert _refined_and_charged(_hypercube(5)) == (20, 20)


def _outcome(search, rows, n, limit, *seeded):
    """(base, gens) of one search, or its budget error."""
    try:
        return tuple(search(rows, n, limit, *seeded)[:2])
    except BudgetExceeded as exc:
        return str(exc)


def test_budgets_run_out_where_the_leaf_descent_runs_out():
    # an automorphism search first raises at the same budget, with the same
    # message, as the search that walked every probe down to a leaf
    for g in (_hypercube(4), petersen_graph(), _crown(5), _rook(3, 3), cycle_graph(8)):
        _, gens, _ = _aut_search(g.rows, g.n, 10**9)
        cover = bipartite_double_cover(g)
        seeded = (_cover_seeds(g.n, gens), "double-cover automorphism search")
        for rows, n, extra in ((g.rows, g.n, ()), (cover.rows, cover.n, seeded)):
            for limit in itertools.count():
                old = _outcome(leaf_descent_aut_search, rows, n, limit, *extra)
                assert _outcome(_aut_search, rows, n, limit, *extra) == old
                if not isinstance(old, str):
                    break
            assert limit > 0


def _cover_agrees_with_oracles(x):
    """The seeded double-cover order equals the cold search's, the incremental
    Schreier-Sims order of the returned generators and, for a connected
    graph on at most 5 vertices, the brute-force count (the cover of a
    disconnected one can have 10! automorphisms)."""
    desc = double_cover_automorphism_group(x)
    cover = bipartite_double_cover(x)
    assert desc.degree == cover.n
    assert all(is_graph_automorphism(cover.rows, gen) for gen in desc.generators)
    assert desc.order == automorphism_group(cover).order
    sifted = SchreierSimsChain(cover.n)
    for gen in desc.generators:
        sifted.add(gen)
    assert desc.order == sifted.order()
    if x.n <= 5 and x.is_connected():
        assert desc.order == len(brute_automorphisms(cover.rows))


def test_seeded_cover_orders_on_census_graphs_to_order_8(caps):
    count = 0
    for x in _distinct_census_graphs(8, caps):
        if x.is_connected() and not x.is_bipartite():
            _cover_agrees_with_oracles(x)
            count += 1
    assert count > 100


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] < e[1]
            )),
        )
    )
)
def test_seeded_cover_orders_on_random_graphs(case):
    n, edges = case
    _cover_agrees_with_oracles(from_edges(n, sorted(edges)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sibling_orbits_prune_like_the_oracle(data):
    # the per-node state prunes exactly the siblings `_orbit_hits` prunes,
    # also when automorphisms are found part-way through the node, before
    # or after a sibling is explored
    n = data.draw(st.integers(min_value=1, max_value=9))
    points = list(range(n))
    prefix = tuple(data.draw(st.lists(st.sampled_from(points), unique=True, max_size=min(3, n - 1))))
    rest = [p for p in points if p not in prefix]

    def perm():
        if not data.draw(st.booleans()):
            return tuple(data.draw(st.permutations(points)))
        p = list(points)   # fixes the prefix
        for a, b in zip(rest, data.draw(st.permutations(rest))):
            p[a] = b
        return tuple(p)

    gens = [perm() for _ in range(data.draw(st.integers(0, 2)))]
    orbits = _SiblingOrbits(prefix, gens)
    explored: list[int] = []
    leftmost = data.draw(st.booleans())
    for k, v in enumerate(data.draw(st.permutations(rest))):
        gens += [perm() for _ in range(data.draw(st.integers(0, 2)))]
        if k == 0 and leftmost:   # the leftmost path's child is never checked
            explored.append(v)
            orbits.explored(v)
            continue
        hit = orbits.hits(v)
        assert hit == _orbit_hits(v, explored, prefix, gens, n)
        if not hit:
            explored.append(v)
            orbits.explored(v)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] < e[1]
            )),
        )
    )
)
def test_chain_orders_on_random_graphs(case):
    n, edges = case
    _chain_agrees_with_oracles(from_edges(n, sorted(edges)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_trace_matches_pairwise_formula(data):
    # the neighbor-count trace equals the all-pairs formula it replaced
    n = data.draw(st.integers(min_value=1, max_value=12))
    edges = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    g = from_edges(n, sorted((a, b) for a, b in edges if a != b))
    order = data.draw(st.permutations(list(range(n))))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    cells = [list(order[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
    masks = [mask_of(c) for c in cells]
    pairwise = [len(cells)] + [len(c) for c in cells]
    pairwise += [(g.rows[c[0]] & m).bit_count() for c in cells for m in masks]
    assert _trace(g.rows, cells, _neighbours(g.rows)) == tuple(pairwise)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_refine_matches_scanning_refine(data):
    # visiting only the cells a splitter touches splits exactly as a scan of
    # every cell does: same cells, same order within them, same trace
    n = data.draw(st.integers(min_value=1, max_value=16))
    edges = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    g = from_edges(n, sorted((a, b) for a, b in edges if a != b))
    order = data.draw(st.permutations(list(range(n))))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    cells = [list(order[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
    worklist = data.draw(st.one_of(
        st.just([mask_of(range(n))]),
        st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=3),
    ))
    fast, slow = [list(c) for c in cells], [list(c) for c in cells]
    nbrs = _neighbours(g.rows)
    assert _refine(g.rows, fast, list(worklist), nbrs) == scanning_refine(g.rows, slow, list(worklist))
    assert fast == slow


def test_refine_matches_scanning_refine_on_search_nodes():
    # the partitions the searches refine: equitable, then one vertex individualized
    for g in (cycle_graph(40), petersen_graph(), disjoint_union(cycle_graph(5), path_graph(6))):
        n, nbrs = g.n, _neighbours(g.rows)
        cells = [list(range(n))]
        assert _refine(g.rows, cells, [mask_of(range(n))], nbrs) == scanning_refine(
            g.rows, [list(range(n))], [mask_of(range(n))])
        for t, cell in enumerate(cells):
            for v in cell if len(cell) > 1 else ():
                fast = [list(c) for c in cells]
                fast[t : t + 1] = [[v], [u for u in cell if u != v]]
                slow = [list(c) for c in fast]
                assert _refine(g.rows, fast, [1 << v], nbrs) == scanning_refine(g.rows, slow, [1 << v])
                assert fast == slow


def _clear_searches():
    canon._search_cached.cache_clear()
    canon._cover_cached.cache_clear()


def test_canonical_form_equals_the_refining_search_on_census_graphs_to_order_12(caps):
    # 3,083 of the graphs need no canonical descent; the rest charge 1,628
    # nodes more than the automorphism-only search
    count = exact = charged = 0
    for x in _distinct_census_graphs(12, caps):
        nodes, aut_nodes = _walk_agrees_with_the_oracles(x)
        exact += nodes == aut_nodes
        charged += nodes
        count += 1
    assert (count, exact, charged) == (3496, 3083, 50044)


def test_census_runs_one_search_per_graph(caps, tmp_path, monkeypatch):
    # the order-11 census walks each of its 212 distinct graphs once for both
    # Aut and the fingerprint, and searches 43 double covers
    _clear_searches()
    budgets = _recorded_budgets(monkeypatch, canon)
    refined: collections.Counter = collections.Counter()
    child = canon._child

    def counting_child(*args):
        refined[args[4].stage] += 1
        return child(*args)

    monkeypatch.setattr(canon, "_child", counting_child)
    run_census(RunConfig(max_order=11, out_path=str(tmp_path / "census.jsonl"), jobs=1, caps=caps))
    searches = collections.Counter(b.stage for b in budgets)
    assert searches == {"automorphism search": 212, "double-cover automorphism search": 43}
    charged = sum(b.nodes for b in budgets if b.stage == "automorphism search")
    assert (charged, refined["automorphism search"]) == (3029, 2330)


def test_lazy_transversals_equal_the_eager_builder_on_census_graphs_to_order_8(caps):
    count = 0
    for x in _distinct_census_graphs(8, caps):
        base, gens, _ = _aut_search(x.rows, x.n, 10**9)
        chain = StabilizerChain.from_strong_generators(x.n, base, gens)
        want_base, want = eager_transversals(x.n, base, gens)
        assert chain.base == want_base
        assert chain.order() == math.prod(len(t) for t in want)
        # the same elements, in the same breadth-first order
        assert [list(t.items()) for t in chain.transversal] == [list(t.items()) for t in want]
        count += 1
    assert count == 430


def test_order_and_orbits_build_no_transversal(monkeypatch):
    calls = []
    pmul = perms.pmul

    def counting_pmul(a, b):
        calls.append(1)
        return pmul(a, b)

    monkeypatch.setattr(perms, "pmul", counting_pmul)
    _clear_searches()
    x = disjoint_union(cycle_graph(5), path_graph(6))
    desc = automorphism_group(x)
    assert (desc.order, len(desc.orbits)) == (20, 4)
    assert detect_cayley(x).status == "not_cayley"
    assert calls == []
    assert desc.chain._transversal is None
    transversal = desc.chain.transversal
    assert calls and desc.chain.transversal is transversal
