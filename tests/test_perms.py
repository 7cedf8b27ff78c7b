from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from gcg.perms import (
    StabilizerChain,
    identity_perm,
    orbit_partition,
    pinv,
    pmul,
)

from oracles.brute import SchreierSimsChain


def brute_group(gens: list[tuple[int, ...]], n: int) -> set[tuple[int, ...]]:
    seen = {tuple(range(n))}
    frontier = [tuple(range(n))]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = pmul(g, x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def test_pmul_applies_right_then_left():
    a = (1, 2, 0)
    b = (0, 2, 1)
    assert pmul(a, b) == tuple(a[b[i]] for i in range(3))


def test_pinv_roundtrip():
    p = (2, 0, 3, 1)
    assert pmul(p, pinv(p)) == identity_perm(4)
    assert pmul(pinv(p), p) == identity_perm(4)


def test_chain_symmetric_group_orders():
    for n in (2, 3, 4, 5, 6, 8):
        gens = [
            tuple([1, 0] + list(range(2, n))),
            tuple(list(range(1, n)) + [0]),
        ]
        chain = SchreierSimsChain(n)
        for g in gens:
            chain.add(g)
        assert chain.order() == math.factorial(n)


def test_chain_add_reports_growth():
    chain = SchreierSimsChain(4)
    swap = (1, 0, 2, 3)
    assert chain.add(swap) is True
    assert chain.add(swap) is False
    assert chain.order() == 2


def test_chain_contains_matches_enumeration():
    gens = [(1, 0, 2, 3), (0, 1, 3, 2)]
    chain = SchreierSimsChain(4)
    for g in gens:
        chain.add(g)
    members = brute_group(gens, 4)
    assert chain.order() == len(members) == 4
    from itertools import permutations

    for p in permutations(range(4)):
        assert chain.contains(p) == (p in members)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chain_matches_brute_force_closure(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    k = data.draw(st.integers(min_value=1, max_value=3))
    gens = [tuple(data.draw(st.permutations(list(range(n))))) for _ in range(k)]
    chain = SchreierSimsChain(n)
    for g in gens:
        chain.add(g)
    members = brute_group(gens, n)
    assert chain.order() == len(members)
    probe = tuple(data.draw(st.permutations(list(range(n)))))
    assert chain.contains(probe) == (probe in members)


def test_chain_from_adjacent_transpositions():
    # the transpositions (j, j+1) with j >= i generate Sym{i..n-1}, the
    # pointwise stabilizer of 0..i-1: a strong generating set for base 0..n-2
    for n in (2, 3, 4, 6):
        gens = [tuple(j + 1 if x == j else j if x == j + 1 else x for x in range(n))
                for j in range(n - 1)]
        chain = StabilizerChain.from_strong_generators(n, list(range(n - 1)), gens)
        assert chain.order() == math.factorial(n)
        assert chain.base == tuple(range(n - 1))
        for i, b in enumerate(chain.base):
            assert sorted(chain.transversal[i]) == list(range(i, n))
            for point, u in chain.transversal[i].items():
                assert u[b] == point
                assert all(u[c] == c for c in chain.base[:i])


def test_chain_drops_trivial_levels():
    # <(2 3)> relative to base 0, 2: level 0 has a one-point orbit
    chain = StabilizerChain.from_strong_generators(4, [0, 2], [(0, 1, 3, 2)])
    assert chain.base == (2,)
    assert chain.order() == 2
    assert StabilizerChain.from_strong_generators(3, [0, 1], []).order() == 1


def test_orbit_partition_union_of_generators():
    gens = [(1, 0, 2, 3, 4), (0, 1, 2, 4, 3)]
    assert orbit_partition(5, gens) == ((0, 1), (2,), (3, 4))


def test_orbit_partition_no_generators():
    assert orbit_partition(3, []) == ((0,), (1,), (2,))
