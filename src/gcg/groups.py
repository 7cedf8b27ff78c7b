"""Finite groups as explicit multiplication tables.

Element ids are 0..order-1 with 0 the identity.  Groups are built from a
small descriptor grammar:

    Z<n>        cyclic of order n
    D<2n>       dihedral of order 2n (rotations r^0..r^{n-1}, then tr^0..tr^{n-1})
    A4          alternating group on four points
    Dih(<d>)    generalized dihedral over an abelian group
    <d>x<d>     direct product (element ids in row-major order)

The grammar is case-sensitive and whitespace-free.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, reduce
from itertools import permutations

from .caps import Caps, caps_from_env
from .errors import CapExceeded, DescriptorError


# ---------------------------------------------------------------------------
# descriptors


@dataclass(frozen=True)
class Cyclic:
    n: int


@dataclass(frozen=True)
class Dihedral:
    order: int  # 2n


@dataclass(frozen=True)
class Alt4:
    pass


@dataclass(frozen=True)
class Dih:
    inner: "Descriptor"


@dataclass(frozen=True)
class Product:
    factors: tuple["Descriptor", ...]


@dataclass(frozen=True)
class Opaque:
    """Structural tag for groups derived at runtime (e.g. regular subgroups)."""

    label: str
    order: int


Descriptor = Cyclic | Dihedral | Alt4 | Dih | Product | Opaque


def _split_top(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise DescriptorError(f"unbalanced parentheses in {text!r}")
        if ch == "x" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise DescriptorError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    return parts


def parse_descriptor(text: str) -> Descriptor:
    """Parse the descriptor grammar; raises DescriptorError on bad input."""
    if not text or any(c.isspace() for c in text):
        raise DescriptorError(f"bad descriptor {text!r}")
    parts = _split_top(text)
    if len(parts) > 1:
        return Product(tuple(parse_descriptor(p) for p in parts))
    t = parts[0]
    if t == "A4":
        return Alt4()
    if t.startswith("Dih(") and t.endswith(")"):
        return Dih(parse_descriptor(t[4:-1]))
    if t.startswith("Z") and t[1:].isdigit():
        n = int(t[1:])
        if n < 1:
            raise DescriptorError(f"cyclic order must be >= 1, got {n}")
        return Cyclic(n)
    if t.startswith("D") and t[1:].isdigit():
        m = int(t[1:])
        if m < 2 or m % 2:
            raise DescriptorError(f"dihedral order must be even and >= 2, got {m}")
        return Dihedral(m)
    raise DescriptorError(f"bad descriptor {text!r}")


def format_descriptor(d: Descriptor) -> str:
    if isinstance(d, Cyclic):
        return f"Z{d.n}"
    if isinstance(d, Dihedral):
        return f"D{d.order}"
    if isinstance(d, Alt4):
        return "A4"
    if isinstance(d, Dih):
        return f"Dih({format_descriptor(d.inner)})"
    if isinstance(d, Product):
        return "x".join(format_descriptor(f) for f in d.factors)
    if isinstance(d, Opaque):
        return d.label
    raise DescriptorError(f"unknown descriptor {d!r}")


def descriptor_order(d: Descriptor) -> int:
    if isinstance(d, Cyclic):
        return d.n
    if isinstance(d, Dihedral):
        return d.order
    if isinstance(d, Alt4):
        return 12
    if isinstance(d, Dih):
        return 2 * descriptor_order(d.inner)
    if isinstance(d, Product):
        return reduce(lambda a, b: a * b, (descriptor_order(f) for f in d.factors), 1)
    if isinstance(d, Opaque):
        return d.order
    raise DescriptorError(f"unknown descriptor {d!r}")


# ---------------------------------------------------------------------------
# groups


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    descriptor: Descriptor
    order: int
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    names: tuple[str, ...]
    abelian: bool
    element_orders: tuple[int, ...]

    @property
    def name(self) -> str:
        return format_descriptor(self.descriptor)

    def __repr__(self) -> str:  # pragma: no cover
        return f"FiniteGroup({self.name}, order={self.order})"


def _span(mul, gens, reached: list[bool]) -> None:
    """Mark every product x g1 g2 ... gk of a marked x with gens in `gens`.
    From the identity alone this reaches the left-normed products of
    `gens`: in a group, the subgroup they generate (finite, so no inverses
    are needed)."""
    frontier = [x for x, r in enumerate(reached) if r]
    while frontier:
        row = mul[frontier.pop()]
        for g in gens:
            y = row[g]
            if not reached[y]:
                reached[y] = True
                frontier.append(y)


def generators(mul, order: int) -> list[int]:
    """Greedy generating set: each generator is the least element that the
    left-normed products of the earlier ones do not reach."""
    gens: list[int] = []
    reached = [True] + [False] * (order - 1)
    for a in range(1, order):
        if not reached[a]:
            gens.append(a)
            _span(mul, gens, reached)
    return gens


def check_group_axioms(mul: list[list[int]] | tuple, order: int) -> tuple[int, ...]:
    """Identity, inverse and associativity checks; returns the inverse table.

    Associativity by Light's test: (xg)y = x(gy) is checked for all x, y
    only for g in `generators(mul, order)`.  The set A of the elements a
    with (xa)y = x(ay) for all x, y is closed under the product.  For a, b
    in A and any x, y, a in A gives x(ab) = (xa)b and b in A gives
    (ab)y = a(by), so
        (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y),
    the middle steps by b, then a, in A.  A holds the identity (the identity
    axiom), so when it holds every g checked it holds every left-normed
    product g1 g2 ... gk of them.  Those products reach every element, so
    the test is exact, in O(order^2) products per generator instead of
    O(order^3)."""
    for a in range(order):
        if mul[0][a] != a or mul[a][0] != a:
            raise DescriptorError("identity axiom fails")
    try:
        inv = tuple(mul[a].index(0) for a in range(order))
    except ValueError:
        raise DescriptorError("inverse axiom fails") from None
    for g in generators(mul, order):
        mg = mul[g]
        for x in range(order):
            mx = mul[x]
            if any(z != mx[w] for z, w in zip(mul[mx[g]], mg)):
                raise DescriptorError("associativity fails")
    return inv


def group_from_table(mul: list[list[int]], names: list[str] | None, descriptor: Descriptor) -> FiniteGroup:
    """Wrap an explicit table, verifying the group axioms."""
    order = len(mul)
    inv = check_group_axioms(mul, order)
    abelian = all(mul[a][b] == mul[b][a] for a in range(order) for b in range(a))
    orders = []
    for a in range(order):
        k, x = 1, a
        while x != 0:
            x = mul[x][a]
            k += 1
        orders.append(k)
    return FiniteGroup(
        descriptor=descriptor,
        order=order,
        mul=tuple(tuple(row) for row in mul),
        inv=inv,
        names=tuple(names) if names else tuple(str(i) for i in range(order)),
        abelian=abelian,
        element_orders=tuple(orders),
    )


def _cycle_name(p: tuple[int, ...]) -> str:
    seen, parts = set(), []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc, j = [], i
        while j not in seen:
            seen.add(j)
            cyc.append(j + 1)
            j = p[j]
        parts.append("(" + " ".join(str(v) for v in cyc) + ")")
    return "".join(parts) if parts else "id"


@cache
def _build(d: Descriptor) -> FiniteGroup:
    """One shared group per descriptor per process (the caller checks caps)."""
    if isinstance(d, Cyclic):
        n = d.n
        mul = [[(a + b) % n for b in range(n)] for a in range(n)]
        return group_from_table(mul, [str(i) for i in range(n)], d)

    if isinstance(d, Dihedral):
        # Dih(Z_n) with the rotations r^j = (j, 0) and reflections t r^j = (j, 1)
        n = d.order // 2
        names = ["1"] + [f"r{j}" if j > 1 else "r" for j in range(1, n)]
        names += ["t"] + [f"tr{j}" if j > 1 else "tr" for j in range(1, n)]
        return replace(make_generalized_dihedral(_build(Cyclic(n)), d), names=tuple(names))

    if isinstance(d, Alt4):
        elems = sorted(p for p in permutations(range(4)) if _parity(p) == 0)
        idx = {p: i for i, p in enumerate(elems)}
        mul = [[idx[tuple(a[b[i]] for i in range(4))] for b in elems] for a in elems]
        return group_from_table(mul, [_cycle_name(p) for p in elems], d)

    if isinstance(d, Dih):
        return make_generalized_dihedral(_build(d.inner), descriptor=d)

    if isinstance(d, Product):
        return product_group(*(_build(f) for f in d.factors))

    raise DescriptorError(f"cannot build {d!r}")


def _parity(p: tuple[int, ...]) -> int:
    inversions = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inversions % 2


def make_generalized_dihedral(inner: FiniteGroup, descriptor: Descriptor | None = None) -> FiniteGroup:
    """Group on pairs (g, i), i in {0,1}: (g1,i)(g2,0) = (g1 g2, i) and
    (g1,i)(g2,1) = (g1^{-1} g2, i+1).  Requires an abelian inner group."""
    if not inner.abelian:
        raise DescriptorError("generalized dihedral needs an abelian base group")
    m = inner.order

    def enc(g: int, i: int) -> int:
        return i * m + g

    mul = [[0] * (2 * m) for _ in range(2 * m)]
    for i1 in range(2):
        for g1 in range(m):
            for i2 in range(2):
                for g2 in range(m):
                    left = inner.inv[g1] if i2 else g1
                    mul[enc(g1, i1)][enc(g2, i2)] = enc(inner.mul[left][g2], (i1 + i2) % 2)
    names = [f"({inner.names[g]},{i})" for i in range(2) for g in range(m)]
    return group_from_table(mul, names, descriptor or Dih(inner.descriptor))


def product_coords(x: int, sizes) -> list[int]:
    """Coordinates of element x of a direct product of groups of the given
    orders (row-major ids: the last factor varies fastest)."""
    out = []
    for s in reversed(sizes):
        out.append(x % s)
        x //= s
    return out[::-1]


def product_id(coords, sizes) -> int:
    """Element id of the given coordinates; inverse of product_coords."""
    x = 0
    for s, p in zip(sizes, coords):
        x = x * s + p
    return x


def product_group(*groups: FiniteGroup) -> FiniteGroup:
    """Direct product with row-major element ids."""
    sizes = [g.order for g in groups]
    total = reduce(lambda a, b: a * b, sizes, 1)
    coords = [product_coords(x, sizes) for x in range(total)]
    mul = [
        [product_id([g.mul[x][y] for g, x, y in zip(groups, pa, pb)], sizes) for pb in coords]
        for pa in coords
    ]
    names = ["(" + ",".join(g.names[x] for g, x in zip(groups, pa)) + ")" for pa in coords]
    return group_from_table(mul, names, Product(tuple(g.descriptor for g in groups)))


def make_group(descriptor: str | Descriptor, caps: Caps | None = None) -> FiniteGroup:
    """The group for a descriptor, checking the order cap on every call; equal
    descriptors share one group object."""
    caps = caps or caps_from_env()
    d = parse_descriptor(descriptor) if isinstance(descriptor, str) else descriptor
    order = descriptor_order(d)
    if order > caps.order_cap:
        raise CapExceeded(f"group order {order} exceeds cap {caps.order_cap}")
    return _build(d)


# ---------------------------------------------------------------------------
# element sets and subgroups


def bits(mask: int):
    """Iterate set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(ids) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


@dataclass(frozen=True)
class ElementSet:
    group: FiniteGroup
    mask: int

    def members(self) -> tuple[int, ...]:
        return tuple(bits(self.mask))

    def __contains__(self, x: int) -> bool:
        return bool(self.mask >> x & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()


@dataclass(frozen=True)
class SubgroupHandle:
    """A verified subgroup K: its closed member set and its coset table, the
    mask `coset_of[x]` of the left coset xK of each element x."""

    set: ElementSet
    coset_of: tuple[int, ...]

    @property
    def group(self) -> FiniteGroup:
        return self.set.group

    def members(self) -> tuple[int, ...]:
        return self.set.members()

    def __len__(self) -> int:
        return len(self.set)

    def cosets(self) -> tuple[int, ...]:
        """Masks of the left cosets xK, in order of their least elements."""
        return tuple(dict.fromkeys(self.coset_of))


def subgroup_closure(g: FiniteGroup, seed) -> int:
    """Mask of the subgroup generated by seed ids."""
    reached = [True] + [False] * (g.order - 1)
    _span(g.mul, list(seed), reached)
    return mask_of(x for x, r in enumerate(reached) if r)


def subgroup_handle(g: FiniteGroup, mask: int) -> SubgroupHandle:
    """Verify closure and record the left coset of each element."""
    if not mask >> 0 & 1:
        raise DescriptorError("subgroup must contain the identity")
    members = list(bits(mask))
    for a in members:
        if not mask >> g.inv[a] & 1:
            raise DescriptorError("subgroup not closed under inverses")
        row = g.mul[a]
        for b in members:
            if not mask >> row[b] & 1:
                raise DescriptorError("subgroup not closed under products")
    if g.order % len(members):
        raise DescriptorError("subgroup order does not divide group order")
    coset_of = [0] * g.order
    for x in range(g.order):
        if not coset_of[x]:
            row = g.mul[x]
            coset = mask_of(row[h] for h in members)
            for h in members:
                coset_of[row[h]] = coset
    return SubgroupHandle(ElementSet(g, mask), tuple(coset_of))
