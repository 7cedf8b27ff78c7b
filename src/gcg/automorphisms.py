"""Group automorphisms: enumeration, fixed points, and the omega map.

For an automorphism a of G its omega map is x -> a(x) x^{-1}.  The image
omega(G) and fixed-point set Fix(a) drive most structural results here:
|Fix| * |omega(G)| = |G| always, Fix is always a subgroup, and omega(G) is
a subgroup whenever G is abelian (not in general).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import DescriptorError, ShapeError
from .groups import (
    Dihedral,
    ElementSet,
    FiniteGroup,
    SubgroupHandle,
    bits,
    generators,
    mask_of,
    subgroup_handle,
)


@dataclass(frozen=True)
class AutomorphismMap:
    group: FiniteGroup
    perm: tuple[int, ...]
    order2: bool  # composed with itself gives the identity

    def __call__(self, x: int) -> int:
        return self.perm[x]


@cache
def _generators(g: FiniteGroup) -> tuple[int, ...]:
    """`generators(g.mul, g.order)`, computed once per group object."""
    return tuple(generators(g.mul, g.order))


def automorphism_from_perm(g: FiniteGroup, perm) -> AutomorphismMap:
    """Validate a candidate map exactly and wrap it.

    Multiplicativity is checked as phi(xt) = phi(x) phi(t) for every x and
    every t in `generators(g.mul, g.order)` only, in O(|G| |T|) products
    instead of O(|G|^2).  Lemma: that is exact.  Every y is a left-normed
    product of those t, and induction on its length gives phi(xy) =
    phi(x) phi(y): y = e holds since phi(e) = e, and for y = y't,
    phi(xy't) = phi(xy') phi(t) = phi(x) phi(y') phi(t) = phi(x) phi(y't)."""
    perm = tuple(perm)
    if len(perm) != g.order or sorted(perm) != list(range(g.order)):
        raise DescriptorError("not a bijection on element ids")
    if perm[0] != 0:
        raise DescriptorError("identity not fixed")
    for t in _generators(g):
        image_t = perm[t]
        for x, row in enumerate(g.mul):
            if perm[row[t]] != g.mul[perm[x]][image_t]:
                raise DescriptorError("not multiplicative")
    order2 = all(perm[perm[x]] == x for x in range(g.order))
    return AutomorphismMap(g, perm, order2)


def identity_automorphism(g: FiniteGroup) -> AutomorphismMap:
    return AutomorphismMap(g, tuple(range(g.order)), True)


def inversion_map(g: FiniteGroup) -> AutomorphismMap:
    """x -> x^{-1}; an automorphism exactly when G is abelian."""
    if not g.abelian:
        raise ShapeError("inversion is only an automorphism of abelian groups")
    return automorphism_from_perm(g, g.inv)


def enumerate_automorphisms(g: FiniteGroup, involutory_only: bool = False) -> list[AutomorphismMap]:
    """All automorphisms (optionally only those of order <= 2), sorted by perm.

    Chooses the images of `generators(g.mul, g.order)` one at a time, each
    among the elements of the same order that no earlier choice has made an
    image.  After each choice it walks the subgroup H spanned by the walk's
    elements T from the identity, setting phi(xt) = phi(x) phi(t) for every
    x in H and t in T, and rejects the choice on a clash or a repeated
    image.  With `involutory_only`, choosing phi(t) = u also puts u with
    image t into T, since phi(u) = phi(phi(t)) = t; a generator that the
    walk has reached already keeps the image the walk gave it.

    Lemma: a walk that finishes is an injective homomorphism on H.  Every
    element of H is a product of the elements of T (H is finite, so no
    inverses are needed), so the walk reaches all of H.  For x, y in H,
    induction on the word length of y gives phi(xy) = phi(x) phi(y): y = e
    holds since phi(e) = e, and for y = y't, phi(xy't) = phi(xy') phi(t)
    = phi(x) phi(y') phi(t) = phi(x) phi(y't).  Once every generator has an
    image H = G, so every leaf is an automorphism.  Conversely an
    automorphism keeps element orders and passes every walk, so it is a
    leaf; one of order <= 2 also passes the walks with the pairs.

    Lemma: with `involutory_only` every leaf has order <= 2.  phi^2 is a
    homomorphism, and it fixes every element of T: phi(phi(t)) = phi(u) = t
    for each pair, and a generator that the walk reached is a product of
    elements of T.  So phi^2 fixes a generating set and is the identity,
    and the leaves need no further filter.
    """
    n = g.order
    mul = g.mul
    gens = _generators(g)
    by_order: dict[int, list[int]] = {}
    for x in range(n):
        by_order.setdefault(g.element_orders[x], []).append(x)
    found: list[tuple[int, ...]] = []

    def extend(level: int, chosen: list[tuple[int, int]]) -> None:
        phi = [-1] * n
        phi[0] = 0
        used = [False] * n
        used[0] = True
        queue = [0]
        for x in queue:
            row, image_row = mul[x], mul[phi[x]]
            for t, u in chosen:
                y, z = row[t], image_row[u]
                if phi[y] < 0:
                    if used[z]:
                        return
                    phi[y] = z
                    used[z] = True
                    queue.append(y)
                elif phi[y] != z:
                    return
        while level < len(gens) and phi[gens[level]] >= 0:
            level += 1
        if level == len(gens):
            found.append(tuple(phi))
            return
        t = gens[level]
        for u in by_order[g.element_orders[t]]:
            if not used[u]:
                pairs = [(t, u), (u, t)] if involutory_only and u != t else [(t, u)]
                extend(level + 1, chosen + pairs)

    extend(0, [])
    return [automorphism_from_perm(g, p) for p in sorted(found)]


@cache
def enumerate_involutory_automorphisms(g: FiniteGroup) -> tuple[AutomorphismMap, ...]:
    """Automorphisms with a.a = identity, identity included, sorted by perm.

    The identity map always sorts first, so index 0 is the identity and the
    inversion map (when distinct) appears at a stable position.  Computed once
    per group object.
    """
    return tuple(enumerate_automorphisms(g, involutory_only=True))


def fix_set(g: FiniteGroup, alpha: AutomorphismMap) -> SubgroupHandle:
    """Fixed points of alpha; always a subgroup."""
    return subgroup_handle(g, mask_of(x for x in range(g.order) if alpha.perm[x] == x))


@dataclass(frozen=True)
class OmegaSet:
    set: ElementSet
    is_subgroup: bool


def omega_set(g: FiniteGroup, alpha: AutomorphismMap) -> OmegaSet:
    """Image of x -> alpha(x) x^{-1}, with a subgroup flag."""
    mask = mask_of(g.mul[alpha.perm[x]][g.inv[x]] for x in range(g.order))
    members = list(bits(mask))
    closed = all(mask >> g.mul[a][b] & 1 for a in members for b in members)
    return OmegaSet(ElementSet(g, mask), closed)


# ---------------------------------------------------------------------------
# structure decompositions


def _internal_product(g: FiniteGroup, factors) -> list[tuple[int, ...]]:
    """coords[x] = (f1, ..., fk), the one choice of fi in factors[i] with
    x = f1 f2 ... fk, when that map is an isomorphism from G onto the
    external product of the factors' members (G is their internal direct
    product).  Raises ShapeError on a collision, a gap, or a map that is not
    multiplicative.

    Multiplicativity is checked as coords[xt] = coords[x] coords[t], slot by
    slot, for every x and every t in `generators(g.mul, g.order)` only.
    Every y is a left-normed product of those t, and induction on its length
    gives coords[xy] = coords[x] coords[y]: for y = y't, coords[xy't] =
    coords[xy'] coords[t] = coords[x] coords[y'] coords[t]."""
    coords: list[tuple[int, ...] | None] = [None] * g.order
    products = [(0, ())]
    for members in factors:
        products = [(g.mul[x][f], c + (f,)) for x, c in products for f in members]
    for x, c in products:
        if coords[x] is not None:
            raise ShapeError("coordinates collide; not a direct product")
        coords[x] = c
    if None in coords:
        raise ShapeError("coordinates do not cover the group")
    for t in _generators(g):
        ct = coords[t]
        for x, row in enumerate(g.mul):
            if coords[row[t]] != tuple(g.mul[a][b] for a, b in zip(coords[x], ct)):
                raise ShapeError("coordinates are not multiplicative")
    return coords


@dataclass(frozen=True)
class OddAbelianDecomposition:
    """G = Fix(alpha) x omega(G) internally; pair_of[x] = (fix part, omega part)."""

    fix: SubgroupHandle
    omega: SubgroupHandle
    pair_of: tuple[tuple[int, int], ...]


@cache
def decompose_odd_abelian(g: FiniteGroup, alpha: AutomorphismMap) -> OddAbelianDecomposition:
    """Split an odd-order abelian group as Fix x omega under an involutory map.
    Computed once per (group object, map)."""
    if not g.abelian:
        raise ShapeError("decomposition needs an abelian group")
    if g.order % 2 == 0:
        raise ShapeError("decomposition needs odd order")
    if not alpha.order2:
        raise ShapeError("alpha must square to the identity")
    fix = fix_set(g, alpha)
    om = omega_set(g, alpha)
    if not om.is_subgroup:
        raise ShapeError("omega image failed to close")
    omega = subgroup_handle(g, om.set.mask)
    pair_of = _internal_product(g, (fix.members(), omega.members()))
    return OddAbelianDecomposition(fix, omega, tuple(pair_of))


@dataclass(frozen=True)
class CyclicSylowDecomposition:
    """G = <z> x H1 x H2 with |z| = 2^n, H1/H2 odd; alpha acts as
    (x, y1, y2) -> (a*x, y1, y2^{-1})."""

    n: int
    a: int
    z: int
    h1: SubgroupHandle
    h2: SubgroupHandle
    coords: tuple[tuple[int, int, int], ...]  # element id -> (x, h1 member, h2 member)


def _two_part(order: int) -> tuple[int, int]:
    n = 0
    while order % 2 == 0:
        order //= 2
        n += 1
    return n, order


def decompose_cyclic_sylow(g: FiniteGroup, alpha: AutomorphismMap) -> CyclicSylowDecomposition:
    """Decompose an abelian group with cyclic Sylow 2-subgroup of order 2^n, n >= 1."""
    if not g.abelian:
        raise ShapeError("decomposition needs an abelian group")
    if not alpha.order2:
        raise ShapeError("alpha must square to the identity")
    n, odd = _two_part(g.order)
    if n == 0:
        raise ShapeError("group has odd order; no 2-part to split off")
    two_n = 1 << n
    z = next((x for x in range(g.order) if g.element_orders[x] == two_n), None)
    if z is None:
        raise ShapeError("Sylow 2-subgroup is not cyclic")
    powers = [0]   # powers[x] = z^x
    for _ in range(two_n - 1):
        powers.append(g.mul[powers[-1]][z])
    exponent = {zx: x for x, zx in enumerate(powers)}
    if alpha.perm[z] not in exponent:
        raise ShapeError("alpha does not preserve the Sylow 2-subgroup")
    a = exponent[alpha.perm[z]]
    legal = {1 % two_n, (two_n - 1) % two_n, (two_n // 2 - 1) % two_n, (two_n // 2 + 1) % two_n}
    if a not in legal:
        raise ShapeError(f"transported action {a} is not an involution mod {two_n}")
    h_mask = mask_of(x for x in range(g.order) if g.element_orders[x] % 2 == 1)
    fix = fix_set(g, alpha)
    om = omega_set(g, alpha)
    h1 = subgroup_handle(g, h_mask & fix.set.mask)
    h2 = subgroup_handle(g, h_mask & om.set.mask)
    product = _internal_product(g, (powers, h1.members(), h2.members()))
    coords = [(exponent[zx], y1, y2) for zx, y1, y2 in product]
    for p, (x, y1, y2) in enumerate(coords):
        if coords[alpha.perm[p]] != ((a * x) % two_n, y1, g.inv[y2]):
            raise ShapeError("alpha does not act coordinatewise")
    return CyclicSylowDecomposition(n, a, z, h1, h2, tuple(coords))


# ---------------------------------------------------------------------------
# dihedral involutions


@dataclass(frozen=True)
class DihedralInvolutionParams:
    """Involutory automorphism of the dihedral group of order 2p:
    r -> r^k, t -> t r^l with k^2 = 1 and l(k+1) = 0 mod p.  For k = -1 the
    halfshift is the unique k' with l = 2k' mod p."""

    p: int
    k: int
    l: int
    halfshift: int | None

    def to_automorphism(self, g: FiniteGroup) -> AutomorphismMap:
        if not isinstance(g.descriptor, Dihedral) or g.descriptor.order != 2 * self.p:
            raise ShapeError("group does not match these parameters")
        p = self.p
        perm = [0] * (2 * p)
        for i in range(p):
            perm[i] = (self.k * i) % p
            perm[p + i] = p + (self.l + self.k * i) % p
        return automorphism_from_perm(g, perm)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def classify_dihedral_involutions(p: int) -> list[DihedralInvolutionParams]:
    """All involutory automorphisms of the order-2p dihedral group, p an odd
    prime: the identity (k=1, l=0) and one entry per l with k=-1."""
    if not is_prime(p) or p == 2:
        raise ShapeError("p must be an odd prime")
    out = [DihedralInvolutionParams(p, 1, 0, None)]
    half = (p + 1) // 2  # inverse of 2 mod p
    for l in range(p):
        out.append(DihedralInvolutionParams(p, -1, l, (l * half) % p))
    return out
