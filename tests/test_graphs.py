from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcg.graphs import (
    Graph,
    IsomorphismWitness,
    bipartite_double_cover,
    check_witness,
    complete_graph,
    cycle_graph,
    direct_product,
    disjoint_union,
    empty_graph,
    from_edges,
    lexicographic_product,
    path_graph,
    petersen_graph,
    relabel,
    triangle_profile,
    triangles,
)
from gcg.errors import SpecError


def small_graphs(max_n=7):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.builds(
            lambda es: from_edges(n, es),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=12,
            ),
        )
    )


def test_graph_invariants_rejected():
    with pytest.raises(Exception):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(Exception):
        Graph(1, (0b1,))  # self-loop


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_corrupted_rows_raise(data):
    # the row checks scan only the upper neighbours of each row, then count
    x = data.draw(small_graphs(max_n=12))
    n, rows = x.n, list(x.rows)
    assert Graph(n, tuple(rows)) == x
    kind = data.draw(st.sampled_from(("range", "loop", "above", "below", "drop")))
    i = data.draw(st.integers(0, n - 1))
    if kind == "range":
        rows[i] |= 1 << data.draw(st.integers(n, n + 3))
        message = "outside vertex range"
    elif kind == "loop":
        rows[i] |= 1 << i
        message = f"loop at vertex {i}"
    elif kind == "drop":
        if not rows[i]:
            return
        j = data.draw(st.sampled_from(x.neighbors(i)))
        rows[j] &= ~(1 << i)   # i-j survives only in row i
        message = f"asymmetric edge {i}-{j}"
    else:
        free = [j for j in range(n) if j != i and not rows[i] >> j & 1 and (j > i) == (kind == "above")]
        if not free:
            return
        j = data.draw(st.sampled_from(free))
        rows[i] |= 1 << j
        message = f"asymmetric edge {i}-{j}"
    with pytest.raises(SpecError, match=message):
        Graph(n, tuple(rows))


def test_basic_accessors():
    x = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert x.has_edge(0, 1) and not x.has_edge(0, 2)
    assert x.degree(1) == 2
    assert x.degrees() == (2, 2, 2, 2)
    assert x.neighbors(0) == (1, 3)
    assert sorted(x.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert x.edge_count() == 4
    assert x.is_connected()
    assert x.is_bipartite()


def test_components_and_connectivity():
    x = disjoint_union(cycle_graph(3), path_graph(2))
    assert not x.is_connected()
    assert [sorted(c) for c in x.components()] == [[0, 1, 2], [3, 4]]
    assert not x.is_bipartite()  # the triangle component is odd


def test_named_graphs():
    assert empty_graph(3).edge_count() == 0
    assert complete_graph(4).edge_count() == 6
    assert cycle_graph(5).degrees() == (2,) * 5
    assert path_graph(4).degrees() == (1, 2, 2, 1)
    p = petersen_graph()
    assert p.n == 10 and p.degrees() == (3,) * 10
    assert p.edge_count() == 15
    assert not p.is_bipartite()
    assert list(triangles(p)) == []


def test_complement():
    x = cycle_graph(5).complement()
    assert x.degrees() == (2,) * 5
    assert not x.has_edge(0, 1) and x.has_edge(0, 2)


def test_triangle_listing():
    k4 = complete_graph(4)
    assert list(triangles(k4)) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    assert triangle_profile(k4) == (3, 3, 3, 3)
    assert triangle_profile(cycle_graph(3)) == (1, 1, 1)
    assert triangle_profile(cycle_graph(4)) == (0, 0, 0, 0)


def test_double_cover_of_triangle_is_hexagon():
    b = bipartite_double_cover(cycle_graph(3))
    assert b.n == 6
    assert b.degrees() == (2,) * 6
    assert b.is_connected()
    assert b.is_bipartite()


def test_double_cover_of_bipartite_graph_disconnects():
    b = bipartite_double_cover(cycle_graph(4))
    assert len(b.components()) == 2


def test_direct_product_order_and_degrees():
    x = direct_product(cycle_graph(3), complete_graph(3))
    assert x.n == 9
    assert x.degrees() == (4,) * 9


def test_lexicographic_product():
    x = lexicographic_product(complete_graph(2), empty_graph(3))
    # blow each K2 endpoint into 3 independent copies: K_{3,3}
    assert x.n == 6
    assert x.degrees() == (3,) * 6
    assert x.is_bipartite()
    y = lexicographic_product(cycle_graph(5), empty_graph(2))
    assert y.degrees() == (4,) * 10


def test_witness_checking():
    c4 = cycle_graph(4)
    other = from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
    ok = IsomorphismWitness(c4, other, (0, 2, 1, 3))
    assert check_witness(ok)
    bad = IsomorphismWitness(c4, other, (0, 1, 2, 3))
    assert not check_witness(bad)
    assert not check_witness(IsomorphismWitness(c4, cycle_graph(5), (0, 1, 2, 3)))


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_relabel_preserves_invariants(x, rng):
    perm = list(range(x.n))
    rng.shuffle(perm)
    y = relabel(x, perm)
    assert sorted(y.degrees()) == sorted(x.degrees())
    assert y.edge_count() == x.edge_count()
    assert sorted(triangle_profile(y)) == sorted(triangle_profile(x))
    assert check_witness(IsomorphismWitness(x, y, tuple(perm)))


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_triangle_profile_counts_triangle_list(x):
    profile = [0] * x.n
    for u, v, w in triangles(x):
        assert u < v < w
        assert x.has_edge(u, v) and x.has_edge(v, w) and x.has_edge(u, w)
        profile[u] += 1
        profile[v] += 1
        profile[w] += 1
    assert tuple(profile) == triangle_profile(x)
