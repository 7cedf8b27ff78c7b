from __future__ import annotations

import pytest

from gcg.automorphisms import (
    enumerate_involutory_automorphisms,
    identity_automorphism,
    inversion_map,
)
from gcg.caps import Caps
from gcg.catalog import builtin_groups
from gcg.construct import (
    build_gc_graph,
    connection_orbits,
    connection_rows,
    enumerate_connection_sets,
    kernel_subgroup,
    make_spec,
    quotient_by_kernel,
    validate_connection_set,
)
from gcg.errors import CapExceeded, SpecError
from gcg.groups import make_group, mask_of

from oracles.brute import sorted_tuple_quotient, valid_connection_sets


def test_c4_from_z4_inversion(caps):
    g = make_group("Z4", caps)
    spec = make_spec(g, inversion_map(g), (1, 3))
    x = build_gc_graph(spec)
    assert sorted(x.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert x.degrees() == (2, 2, 2, 2)


def test_condition_ii_witness(caps):
    g = make_group("Z4", caps)
    report = validate_connection_set(g, inversion_map(g), mask_of([2]))
    assert report.cond_i and report.cond_iii
    assert not report.cond_ii
    assert report.witness_ii == 1
    assert not report.ok
    with pytest.raises(SpecError):
        make_spec(g, inversion_map(g), (2,))


def test_condition_iii_witness(caps):
    g = make_group("Z5", caps)
    report = validate_connection_set(g, identity_automorphism(g), mask_of([1]))
    assert report.cond_ii
    assert not report.cond_iii
    assert report.witness_iii == 1


def test_set_ids_must_lie_in_group(caps):
    g = make_group("Z3", caps)
    with pytest.raises(SpecError):
        make_spec(g, identity_automorphism(g), (5,))


def test_empty_set_is_valid(caps):
    g = make_group("Z5", caps)
    spec = make_spec(g, inversion_map(g), ())
    assert list(build_gc_graph(spec).edges()) == []


def test_connection_orbits_cover_complement_of_omega(caps):
    g = make_group("Z8", caps)
    for alpha in enumerate_involutory_automorphisms(g):
        orbits = connection_orbits(g, alpha)
        flat = [s for orbit in orbits for s in orbit]
        assert len(flat) == len(set(flat))
        specs = list(enumerate_connection_sets(g, alpha, caps=caps))
        assert len(specs) == 1 << len(orbits)


def test_enumeration_matches_power_set_oracle(caps):
    # oracle filters every subset of the complement of omega directly
    cases = [
        ("Z6", None), ("Z8", None), ("D6", None), ("D8", None),
        ("Z2xZ2xZ3", None), ("Z12", None), ("A4", None),
    ]
    for name, _ in cases:
        g = make_group(name, caps)
        for alpha in enumerate_involutory_automorphisms(g):
            ours = {frozenset(s.set_ids())
                    for s in enumerate_connection_sets(g, alpha, caps=caps)}
            brute = set(valid_connection_sets(g.mul, g.inv, alpha.perm))
            assert ours == brute, (name, alpha.perm)


def test_connection_rows_match_the_power_set_oracle(caps):
    # every (G, alpha) to order 10: set i is the union of the orbits at the
    # one bits of i, and its rows, ORed from single-orbit layers, are those
    # of its own graph
    for g in builtin_groups(10, caps):
        for alpha in enumerate_involutory_automorphisms(g):
            orbits = connection_orbits(g, alpha)

            def index(s, orbits=orbits):
                return sum(1 << j for j, orbit in enumerate(orbits) if orbit[0] in s)

            brute = sorted(valid_connection_sets(g.mul, g.inv, alpha.perm), key=index)
            pairs = list(connection_rows(g, alpha, orbits))
            assert [mask for mask, _ in pairs] == [mask_of(s) for s in brute], (g.name, alpha.perm)
            for mask, rows in pairs:
                assert rows == build_gc_graph(make_spec(g, alpha, mask)).rows


def test_enumeration_flags(caps):
    g = make_group("Z6", caps)
    alpha = inversion_map(g)
    everything = list(enumerate_connection_sets(g, alpha, caps=caps))
    nonempty = list(enumerate_connection_sets(g, alpha, nonempty_only=True, caps=caps))
    assert len(nonempty) == len(everything) - 1
    assert all(s.set_ids() for s in nonempty)
    halved = list(enumerate_connection_sets(g, alpha, up_to_complement=True, caps=caps))
    assert len(everything) == 8 and len(halved) == 4
    connected = list(enumerate_connection_sets(g, alpha, connected_only=True, caps=caps))
    assert all(build_gc_graph(s).is_connected() for s in connected)
    assert len(connected) < len(everything)


def test_enumeration_respects_bit_budget(caps):
    g = make_group("Z16", caps)
    alpha = identity_automorphism(g)
    tight = Caps(bit_budget=3)
    with pytest.raises(CapExceeded):
        list(enumerate_connection_sets(g, alpha, caps=tight))


def test_degree_equals_set_size(caps):
    for name in ("Z8", "D6", "Z2xZ2"):
        g = make_group(name, caps)
        for alpha in enumerate_involutory_automorphisms(g):
            for spec in enumerate_connection_sets(g, alpha, caps=caps):
                x = build_gc_graph(spec)
                k = len(spec.set_ids())
                assert x.degrees() == (k,) * g.order
                for u, v in x.edges():
                    assert u != v
                    assert x.rows[v] >> u & 1


def test_kernel_and_quotient(caps):
    g = make_group("Z6", caps)
    spec = make_spec(g, inversion_map(g), (1, 3, 5))
    k = kernel_subgroup(spec)
    assert k.members() == (0, 2, 4)
    q = quotient_by_kernel(build_gc_graph(spec), k)
    assert q.n == 2
    assert list(q.edges()) == [(0, 1)]


def test_quotient_matches_the_sorted_tuple_oracle(caps):
    # every valid set of every (G, alpha) to order 10, non-abelian groups
    # and non-normal kernels among them
    for g in builtin_groups(10, caps):
        for alpha in enumerate_involutory_automorphisms(g):
            for spec in enumerate_connection_sets(g, alpha, caps=caps):
                x = build_gc_graph(spec)
                k = kernel_subgroup(spec)
                q = quotient_by_kernel(x, k)
                want = sorted_tuple_quotient(g.mul, x.rows, k.set.mask)
                assert (q.n, q.rows) == (len(want), want)


def test_kernel_members(caps):
    g = make_group("Z4", caps)
    spec = make_spec(g, inversion_map(g), (1, 3))
    assert kernel_subgroup(spec).members() == (0, 2)
    g5 = make_group("Z5", caps)
    spec2 = make_spec(g5, identity_automorphism(g5), (1, 4))
    assert kernel_subgroup(spec2).members() == (0,)
