from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcg.catalog import BUILTIN_DESCRIPTORS, builtin_descriptors, builtin_groups
from gcg.errors import CapExceeded, DescriptorError
from gcg.groups import (
    Cyclic,
    Product,
    bits,
    check_group_axioms,
    descriptor_order,
    format_descriptor,
    generators,
    group_from_table,
    make_generalized_dihedral,
    make_group,
    mask_of,
    parse_descriptor,
    product_group,
    subgroup_closure,
    subgroup_handle,
)

from oracles.brute import generating_ids, pairwise_subgroup_closure, triple_loop_group_axioms


def test_parse_format_roundtrip():
    for name in ("Z1", "Z12", "D8", "A4", "Z2xZ2xZ3", "Z4xZ6"):
        assert format_descriptor(parse_descriptor(name)) == name


def test_parse_rejects_junk():
    for bad in ("", "Z0", "D3", "Q8", "Z2x", "xZ2", "Z-4"):
        with pytest.raises(DescriptorError):
            parse_descriptor(bad)


def test_descriptor_order():
    assert descriptor_order(parse_descriptor("Z6")) == 6
    assert descriptor_order(parse_descriptor("D8")) == 8
    assert descriptor_order(parse_descriptor("Z2xZ2xZ3")) == 12
    assert descriptor_order(parse_descriptor("A4")) == 12


def test_every_builtin_satisfies_group_axioms(caps):
    for g in builtin_groups(24, caps):
        check_group_axioms(g.mul, g.order)
        assert g.order == len(g.mul)
        assert g.element_orders[0] == 1


def test_cyclic_group_tables(caps):
    g = make_group("Z6", caps)
    assert g.abelian
    assert g.mul[2][5] == 1
    assert g.inv[1] == 5
    assert sorted(g.element_orders) == [1, 2, 3, 3, 6, 6]


def test_dihedral_group_tables(caps):
    g = make_group("D6", caps)
    assert not g.abelian
    assert g.order == 6
    # reflections are the elements p..2p-1 and square to the identity
    assert all(g.mul[i][i] == 0 for i in range(3, 6))
    assert sorted(g.element_orders) == [1, 2, 2, 2, 3, 3]


def test_dihedral_is_generalized_dihedral_of_cyclic(caps):
    for n in range(1, 13):
        g = make_group(f"D{2 * n}", caps)
        dih = make_generalized_dihedral(make_group(f"Z{n}", caps))
        assert g.mul == dih.mul
    assert make_group("D2", caps).names == ("1", "t")
    assert make_group("D8", caps).names == ("1", "r", "r2", "r3", "t", "tr", "tr2", "tr3")


def test_make_group_shares_one_group_per_descriptor(caps):
    g = make_group("Z2xZ3", caps)
    assert make_group(parse_descriptor("Z2xZ3"), caps) is g
    assert make_group(Product((Cyclic(2), Cyclic(3))), caps) is g
    assert make_group("Z3xZ2", caps) is not g


def test_shared_group_still_checks_the_order_cap(caps):
    make_group("Z12", caps)
    with pytest.raises(CapExceeded):
        make_group("Z12", replace(caps, order_cap=8))
    assert make_group("Z12", caps).order == 12


def test_product_group_row_major(caps):
    a = make_group("Z2", caps)
    b = make_group("Z3", caps)
    g = product_group(a, b)
    # element (i, j) has id i*3 + j
    assert g.order == 6
    assert g.mul[1 * 3 + 2][0 * 3 + 2] == 1 * 3 + (2 + 2) % 3
    assert g.abelian


def test_generalized_dihedral_relation(caps):
    inner = make_group("Z5", caps)
    g = make_generalized_dihedral(inner)
    check_group_axioms(g.mul, g.order)
    assert g.order == 10
    m = inner.order
    # every flip element inverts the inner part: (1,x)(1,y) = (0, -x + y)
    for x in range(m):
        for y in range(m):
            assert g.mul[m + x][m + y] == inner.mul[inner.inv[x]][y]


def _axioms_outcome(check, mul, order):
    try:
        check(mul, order)
    except DescriptorError as exc:
        return str(exc)
    return None


def test_generator_associativity_agrees_with_the_triple_loop(caps):
    # every catalog table, then tables perturbed off row and column 0 (one
    # entry changed, two entries of a row swapped) or relabelled by a
    # permutation fixing the identity: both checks accept the same tables and
    # refuse the others with the same message
    tables = [g.mul for g in builtin_groups(24, caps)]
    for mul in tables:
        assert _axioms_outcome(check_group_axioms, mul, len(mul)) is None
        assert _axioms_outcome(triple_loop_group_axioms, mul, len(mul)) is None
    rng = random.Random(20261019)
    outcomes = []
    for _ in range(3000):
        mul = [list(row) for row in rng.choice(tables)]
        n = len(mul)
        if n < 3:
            continue
        kind = rng.randrange(3)
        if kind == 0:
            mul[rng.randrange(1, n)][rng.randrange(1, n)] = rng.randrange(n)
        elif kind == 1:
            row = mul[rng.randrange(1, n)]
            a, b = rng.randrange(1, n), rng.randrange(1, n)
            row[a], row[b] = row[b], row[a]
        else:
            p = [0] + rng.sample(range(1, n), n - 1)
            q = [0] * n
            for x, y in enumerate(p):
                q[y] = x
            mul = [[p[mul[q[x]][q[y]]] for y in range(n)] for x in range(n)]
        fast = _axioms_outcome(check_group_axioms, mul, n)
        assert fast == _axioms_outcome(triple_loop_group_axioms, mul, n)
        outcomes.append(fast)
    assert outcomes.count("associativity fails") > 1000
    assert outcomes.count(None) > 1000


def test_a_perturbed_table_above_order_64_is_refused(caps):
    # associativity is checked at every order: Z66's table with two entries
    # of a row swapped off column 0 keeps its identity and inverses, but its
    # columns repeat an element, so it is no group
    g = make_group("Z66", caps)
    mul = [list(row) for row in g.mul]
    mul[1][2], mul[1][3] = mul[1][3], mul[1][2]
    with pytest.raises(DescriptorError, match="associativity fails"):
        group_from_table(mul, None, g.descriptor)


def test_alt4_is_nonabelian_order_12(caps):
    g = make_group("A4", caps)
    check_group_axioms(g.mul, g.order)
    assert g.order == 12
    assert not g.abelian
    assert sorted(g.element_orders) == [1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3]


def test_catalog_sorted_and_complete(caps):
    names = builtin_descriptors(24)
    orders = [descriptor_order(parse_descriptor(n)) for n in names]
    assert orders == sorted(orders)
    assert len(set(names)) == len(names)
    assert set(builtin_descriptors(8)) <= set(names)
    # every abelian group of order <= 8 appears in some presentation
    for want in ("Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7", "Z8",
                 "Z2xZ4", "Z2xZ2xZ2"):
        assert want in names


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert list(bits(0b100101)) == [0, 2, 5]


def test_subgroup_closure_and_handle(caps):
    g = make_group("Z12", caps)
    mask = subgroup_closure(g, [4])
    assert sorted(bits(mask)) == [0, 4, 8]
    handle = subgroup_handle(g, mask)
    assert len(handle) == 3
    assert len(handle.cosets()) == 4


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_subgroup_closure_matches_the_pairwise_closure(caps, data):
    # the reach walk by the seeds against the closure over every pair of
    # members, on random seeds (identity and repeats allowed) of every
    # catalog group to order 24
    name = data.draw(st.sampled_from(builtin_descriptors(24)), label="group")
    g = make_group(name, caps)
    seed = data.draw(st.lists(st.integers(0, g.order - 1), max_size=4), label="seed")
    assert subgroup_closure(g, seed) == pairwise_subgroup_closure(g, seed)


def test_generators_match_the_greedy_oracle(caps):
    # the same generators in the same order, which fixes the branching order
    # of the Aut(G) backtrack and so the order of its answers
    for g in builtin_groups(None, caps):
        assert generators(g.mul, g.order) == generating_ids(g), g.name


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_coset_table_lists_the_left_cosets(caps, data):
    # subgroups closed from random elements of every catalog group to order
    # 24, the non-abelian D6, D8 and A4 among them, so that left and right
    # cosets differ for some draws
    name = data.draw(st.sampled_from(builtin_descriptors(24)), label="group")
    g = make_group(name, caps)
    seed = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3), label="seed")
    k = subgroup_handle(g, subgroup_closure(g, seed))
    for x in range(g.order):
        assert k.coset_of[x] == mask_of(g.mul[x][h] for h in k.members())
        assert k.coset_of[x] >> x & 1
    cosets = k.cosets()
    assert set(cosets) == set(k.coset_of)
    assert sum(c.bit_count() for c in cosets) == g.order
    assert mask_of(x for c in cosets for x in bits(c)) == (1 << g.order) - 1
    leasts = [(c & -c).bit_length() - 1 for c in cosets]
    assert leasts == sorted(leasts)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from([n for n in BUILTIN_DESCRIPTORS
                             if descriptor_order(parse_descriptor(n)) <= 16]))
def test_inverse_table_is_involutive(name, caps):
    g = make_group(name, caps)
    for x in range(g.order):
        assert g.mul[x][g.inv[x]] == 0
        assert g.inv[g.inv[x]] == x
