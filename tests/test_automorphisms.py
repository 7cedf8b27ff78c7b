from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcg.automorphisms import (
    _internal_product,
    automorphism_from_perm,
    classify_dihedral_involutions,
    decompose_cyclic_sylow,
    decompose_odd_abelian,
    enumerate_automorphisms,
    enumerate_involutory_automorphisms,
    fix_set,
    identity_automorphism,
    inversion_map,
    is_prime,
    omega_set,
)
from gcg.catalog import builtin_descriptors, builtin_groups
from gcg.errors import DescriptorError, ShapeError
from gcg.groups import Opaque, generators, group_from_table, make_group

from oracles.brute import (
    all_pairs_automorphism_from_perm,
    closure_automorphisms,
    group_automorphisms_brute,
)


def test_identity_and_inversion_maps(caps):
    g = make_group("Z6", caps)
    e = identity_automorphism(g)
    assert e.perm == (0, 1, 2, 3, 4, 5)
    assert e.order2
    i = inversion_map(g)
    assert i.perm == (0, 5, 4, 3, 2, 1)
    assert i.order2


def test_automorphism_from_perm_validates(caps):
    g = make_group("Z4", caps)
    with pytest.raises(DescriptorError):
        automorphism_from_perm(g, (0, 2, 1, 3))  # not multiplicative
    with pytest.raises(DescriptorError):
        automorphism_from_perm(g, (1, 0, 3, 2))  # moves the identity
    a = automorphism_from_perm(g, (0, 3, 2, 1))
    assert a.order2


def test_enumeration_matches_brute_force(caps):
    # the brute oracle scans all (order-1)! candidate bijections
    for name in ("Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "D4", "D6"):
        g = make_group(name, caps)
        ours = {a.perm for a in enumerate_automorphisms(g)}
        brute = set(group_automorphisms_brute(g.mul, g.order))
        assert ours == brute, name


def test_enumeration_matches_closure_oracle_on_catalog(caps):
    # the same perm lists, in the same order, so every alpha index is unchanged.
    # On the catalog's presentations every injective walk is a homomorphism;
    # D6xZ2 and Z2xD8 also have injective walks that break phi(xt) = phi(x)phi(t)
    for name in (*builtin_descriptors(24), "D6xZ2", "Z2xD8"):
        g = make_group(name, caps)
        for involutory_only in (False, True):
            ours = enumerate_automorphisms(g, involutory_only)
            oracle = [a.perm for a in closure_automorphisms(g, involutory_only)]
            assert [a.perm for a in ours] == oracle, (name, involutory_only)
            for a in ours:
                assert a.order2 == all(a.perm[a.perm[x]] == x for x in range(g.order)), (name, a.perm)


def test_involutory_enumeration_matches_closure_oracle_at_order_32(caps):
    # outside the catalog: the pairs (t, u), (u, t) and the determined images
    # of generators that an earlier pair reached
    for name, count in (("Z4xZ4xZ2", 160), ("D16xZ2", 80), ("Z2xZ2xZ2xZ4", 576)):
        g = make_group(name, caps)
        ours = [a.perm for a in enumerate_involutory_automorphisms(g)]
        assert ours == [a.perm for a in closure_automorphisms(g, True)], name
        assert len(ours) == count, name


def _validation(g, perm):
    """(perm, order2) of the wrapped map, or the message it is refused with."""
    try:
        a = automorphism_from_perm(g, perm)
    except DescriptorError as exc:
        ours = str(exc)
    else:
        ours = (a.perm, a.order2)
    try:
        a = all_pairs_automorphism_from_perm(g, perm)
    except DescriptorError as exc:
        return ours, str(exc)
    return ours, (a.perm, a.order2)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_generator_check_agrees_with_the_all_pairs_check(caps, data):
    # random bijections fixing the identity; real automorphisms with two
    # images swapped (i == j keeps the automorphism); and real automorphisms
    # shifted on one left coset x<t> of the first generator t, x -> alpha(x t^k),
    # which keep phi(xt) = phi(x) phi(t) for that t but not for the others
    g = make_group(data.draw(st.sampled_from(builtin_descriptors(24)), label="group"), caps)
    kind = data.draw(st.sampled_from(("random", "swap", "shift")), label="kind")
    if kind == "random":
        perm = [0] + data.draw(st.permutations(range(1, g.order)), label="perm")
    else:
        autos = enumerate_involutory_automorphisms(g)
        perm = list(data.draw(st.sampled_from(autos), label="alpha").perm)
        i = data.draw(st.integers(0, g.order - 1), label="i")
        j = data.draw(st.integers(0, g.order - 1), label="j")
        if kind == "swap":
            perm[i], perm[j] = perm[j], perm[i]
        elif g.order > 1:
            t = generators(g.mul, g.order)[0]
            coset = [i]
            while g.mul[coset[-1]][t] != i:
                coset.append(g.mul[coset[-1]][t])
            if 0 not in coset:
                shifted = {x: perm[coset[(c + j) % len(coset)]] for c, x in enumerate(coset)}
                perm = [shifted.get(x, y) for x, y in enumerate(perm)]
    ours, oracle = _validation(g, perm)
    assert ours == oracle


def test_identity_is_always_first(caps):
    for name in ("Z1", "Z8", "D6", "A4", "Z2xZ2xZ3"):
        g = make_group(name, caps)
        autos = enumerate_involutory_automorphisms(g)
        assert autos[0].perm == tuple(range(g.order))


def test_z8_involutory_automorphisms_are_multipliers(caps):
    g = make_group("Z8", caps)
    autos = enumerate_involutory_automorphisms(g)
    perms = {a.perm for a in autos}
    expected = {tuple((k * x) % 8 for x in range(8)) for k in (1, 3, 5, 7)}
    assert perms == expected


def test_a4_involutory_count_and_nonsubgroup_omega(caps):
    g = make_group("A4", caps)
    autos = enumerate_involutory_automorphisms(g)
    assert len(autos) == 10
    # some involutory map fixes only a 2-element subgroup, and its omega image
    # (6 elements) is not closed under multiplication
    hits = []
    for a in autos:
        f = fix_set(g, a)
        if len(f) == 2:
            w = omega_set(g, a)
            assert len(w.set) == 6
            assert not w.is_subgroup
            hits.append(a)
    assert hits


def test_fix_and_omega_for_cyclic_inversion(caps):
    g = make_group("Z6", caps)
    i = inversion_map(g)
    assert fix_set(g, i).members() == (0, 3)
    w = omega_set(g, i)
    assert w.set.members() == (0, 2, 4)
    assert w.is_subgroup


def test_fix_times_omega_counts(caps):
    # |Fix(a)| * |omega(G)| = |G| for involutory maps on abelian groups
    for name in ("Z2", "Z4", "Z6", "Z8", "Z12", "Z2xZ2xZ3"):
        g = make_group(name, caps)
        for a in enumerate_involutory_automorphisms(g):
            assert len(fix_set(g, a)) * len(omega_set(g, a).set) == g.order


def test_decompose_odd_abelian(caps):
    g = make_group("Z3xZ9", caps)
    a = inversion_map(g)
    dec = decompose_odd_abelian(g, a)
    assert len(dec.fix) == 1
    assert len(dec.omega) == 27
    for x in range(g.order):
        f, w = dec.pair_of[x]
        assert f in dec.fix.members()
        assert w in dec.omega.members()
        assert g.mul[f][w] == x


def test_decompose_cyclic_sylow(caps):
    g = make_group("Z12", caps)
    a = inversion_map(g)
    dec = decompose_cyclic_sylow(g, a)
    assert dec.n == 2
    assert len(dec.h1) * len(dec.h2) == 3
    two_part = 1 << dec.n
    assert g.element_orders[dec.z] == two_part
    for x in range(g.order):
        e, y1, y2 = dec.coords[x]
        # z^e * y1 * y2 recombines to x, and alpha acts coordinatewise
        z_pow = 0
        for _ in range(e):
            z_pow = g.mul[z_pow][dec.z]
        assert g.mul[g.mul[z_pow][y1]][y2] == x
        az_pow = 0
        for _ in range((dec.a * e) % two_part):
            az_pow = g.mul[az_pow][dec.z]
        assert g.mul[g.mul[az_pow][y1]][g.inv[y2]] == a.perm[x]


def test_decompositions_recombine_on_the_catalog(caps):
    # every alpha of every odd abelian catalog group, and of every even
    # abelian one with one involution (a cyclic Sylow 2-subgroup): the
    # coordinates multiply back to x, and alpha(z) = z^a
    checked = 0
    for g in builtin_groups(None, caps):
        if not g.abelian or (g.order % 2 == 0 and sum(o == 2 for o in g.element_orders) != 1):
            continue
        for alpha in enumerate_involutory_automorphisms(g):
            if g.order % 2:
                dec = decompose_odd_abelian(g, alpha)
                assert all(g.mul[f][w] == x for x, (f, w) in enumerate(dec.pair_of))
            else:
                dec = decompose_cyclic_sylow(g, alpha)
                powers = [0]
                for _ in range(1 << dec.n):
                    powers.append(g.mul[powers[-1]][dec.z])
                assert powers[dec.a] == alpha.perm[dec.z]
                assert all(g.mul[g.mul[powers[e]][y1]][y2] == x for x, (e, y1, y2) in enumerate(dec.coords))
            checked += 1
    assert checked > 50


@pytest.mark.parametrize("name, factors, message", [
    ("Z4", ((0, 2), (0, 2)), "coordinates collide"),
    ("Z4", ((0,), (0, 2)), "coordinates do not cover"),
    # the rotations times {1, t} reach each element of D6 once, but
    # t r = r^2 t, so the coordinates do not multiply slot by slot
    ("D6", ((0, 1, 2), (0, 3)), "coordinates are not multiplicative"),
], ids=["collision", "gap", "not-multiplicative"])
def test_internal_product_refuses_bad_factors(caps, name, factors, message):
    with pytest.raises(ShapeError, match=message):
        _internal_product(make_group(name, caps), factors)


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_classify_dihedral_involutions(caps):
    for p, want in ((3, 4), (5, 6), (7, 8)):
        params = classify_dihedral_involutions(p)
        assert len(params) == want
        g = make_group(f"D{2 * p}", caps)
        perms = {q.to_automorphism(g).perm for q in params}
        listed = {a.perm for a in enumerate_involutory_automorphisms(g)}
        assert perms == listed
        for q in params:
            if q.halfshift is not None:
                assert (2 * q.halfshift) % p == q.l % p

    with pytest.raises(Exception):
        classify_dihedral_involutions(4)


def test_opaque_group_does_not_share_involutory_maps(caps):
    # an explicit Z6 table named like the catalog group; the maps are cached
    # per group object, not per name
    catalog = make_group("Z6", caps)
    opaque = group_from_table([[(a + b) % 6 for b in range(6)] for a in range(6)], None, Opaque("Z6", 6))
    assert opaque.name == catalog.name and opaque is not catalog
    ours = enumerate_involutory_automorphisms(opaque)
    theirs = enumerate_involutory_automorphisms(catalog)
    assert all(a.group is opaque for a in ours)
    assert all(a.group is catalog for a in theirs)
    assert enumerate_involutory_automorphisms(opaque) is ours
