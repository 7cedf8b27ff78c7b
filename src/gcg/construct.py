"""Building generalized Cayley graphs from (group, automorphism, set) specs.

A spec (G, S, alpha) is valid when alpha squares to the identity, no x has
alpha(x^{-1})x in S (no loops), and alpha(S^{-1}) = S (undirected edges).
Vertices are the group elements; x ~ y iff alpha(x^{-1})y lies in S.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import or_
from typing import Iterator

from .automorphisms import AutomorphismMap, omega_set
from .caps import Caps, caps_from_env
from .errors import CapExceeded, SpecError
from .graphs import Graph
from .groups import ElementSet, FiniteGroup, SubgroupHandle, bits, mask_of, subgroup_handle


@dataclass(frozen=True)
class ValidationReport:
    cond_i: bool    # alpha is an involutory automorphism
    cond_ii: bool   # alpha(x^{-1})x never lands in S
    cond_iii: bool  # alpha(S^{-1}) = S
    witness_ii: int | None  # x with alpha(x^{-1})x in S, when cond_ii fails
    witness_iii: int | None  # s in S with alpha(s^{-1}) outside S, when cond_iii fails

    @property
    def ok(self) -> bool:
        return self.cond_i and self.cond_ii and self.cond_iii


@dataclass(frozen=True)
class GCSpec:
    group: FiniteGroup
    alpha: AutomorphismMap
    connection: ElementSet

    def set_ids(self) -> tuple[int, ...]:
        return self.connection.members()


def validate_connection_set(g: FiniteGroup, alpha: AutomorphismMap, s_mask: int) -> ValidationReport:
    """Check the three defining conditions; witnesses are the first failures."""
    cond_i = alpha.group is g and alpha.order2
    cond_ii, witness_ii = True, None
    for x in range(g.order):
        if s_mask >> g.mul[alpha.perm[g.inv[x]]][x] & 1:
            cond_ii, witness_ii = False, x
            break
    cond_iii, witness_iii = True, None
    for s in bits(s_mask):
        if not s_mask >> alpha.perm[g.inv[s]] & 1:
            cond_iii, witness_iii = False, s
            break
    return ValidationReport(cond_i, cond_ii, cond_iii, witness_ii, witness_iii)


def make_spec(g: FiniteGroup, alpha: AutomorphismMap, s_ids) -> GCSpec:
    """Validate and wrap; raises SpecError when a condition fails."""
    mask = s_ids if isinstance(s_ids, int) else mask_of(s_ids)
    if mask >> g.order:
        raise SpecError("set contains ids outside the group")
    report = validate_connection_set(g, alpha, mask)
    if not report.ok:
        raise SpecError(f"invalid connection set: {report}")
    return GCSpec(g, alpha, ElementSet(g, mask))


def build_gc_graph(spec: GCSpec) -> Graph:
    """Adjacency x ~ alpha(x)s for s in S; loop-free and symmetric by validity."""
    g, perm = spec.group, spec.alpha.perm
    s_ids = spec.set_ids()
    rows = [0] * g.order
    for x in range(g.order):
        ax = perm[x]
        r = 0
        for s in s_ids:
            r |= 1 << g.mul[ax][s]
        rows[x] = r
    return Graph(g.order, tuple(rows))


def connection_orbits(g: FiniteGroup, alpha: AutomorphismMap) -> list[tuple[int, ...]]:
    """Orbits of s -> alpha(s^{-1}) on the complement of the omega image.

    Valid connection sets are exactly the unions of these orbits, so the
    count of valid sets is 2^(number of orbits).
    """
    if not alpha.order2:
        raise SpecError("alpha must square to the identity")
    om = omega_set(g, alpha).set.mask
    orbits = []
    seen = 0
    for s in range(g.order):
        if om >> s & 1 or seen >> s & 1:
            continue
        t = alpha.perm[g.inv[s]]
        orbit = (s,) if t == s else (s, t)
        for x in orbit:
            seen |= 1 << x
        orbits.append(orbit)
    return orbits


def capped_connection_orbits(g: FiniteGroup, alpha: AutomorphismMap, caps: Caps) -> list[tuple[int, ...]]:
    """`connection_orbits`, refused with CapExceeded past the bit budget."""
    orbits = connection_orbits(g, alpha)
    if len(orbits) > caps.bit_budget:
        raise CapExceeded(f"{len(orbits)} orbits exceed bit budget {caps.bit_budget}")
    return orbits


def connection_rows(
    g: FiniteGroup, alpha: AutomorphismMap, orbits: list[tuple[int, ...]]
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(S mask, rows of GC(G, S, alpha)) for every union S of `orbits`, the
    connection orbits of (g, alpha), built from the single-orbit layers X_O
    instead of set by set.

    Lemma.  For S a union of connection orbits O, row x of GC(G, S, alpha)
    is the mask of alpha(x)S, the OR of row x of the layers X_O; and S is
    valid, because alpha(x^-1)x lies in S only if it lies in one O, and
    alpha(S^-1) is the union of the alpha(O^-1) = O.  So each layer is
    validated once, by `make_spec` and `build_gc_graph` (loops and
    symmetry), and an OR of loop-free symmetric rows is loop-free and
    symmetric.

    Set i is the union of the orbits at the one bits of i.  `level[j]`
    holds the OR over the bits >= j of the current i, so going from i - 1
    to i, whose lowest one bit is t, sets level[t] = level[t + 1] | layer t
    and the levels below t to level[t]; level[0] is set i.  That keeps
    O(k |G|) ints for k orbits, and each layer is built when first used."""
    empty = (0, (0,) * g.order)
    level = [empty] * (len(orbits) + 1)
    layers: list[tuple[int, tuple[int, ...]]] = []
    yield empty
    for i in range(1, 1 << len(orbits)):
        t = (i & -i).bit_length() - 1
        if t == len(layers):
            spec = make_spec(g, alpha, orbits[t])
            layers.append((spec.connection.mask, build_gc_graph(spec).rows))
        s_mask, rows = level[t + 1]
        o_mask, o_rows = layers[t]
        level[t] = (s_mask | o_mask, tuple(map(or_, rows, o_rows)))
        level[:t] = [level[t]] * t
        yield level[0]


def enumerate_connection_sets(
    g: FiniteGroup,
    alpha: AutomorphismMap,
    *,
    nonempty_only: bool = False,
    connected_only: bool = False,
    up_to_complement: bool = False,
    caps: Caps | None = None,
) -> Iterator[GCSpec]:
    """All valid specs for (g, alpha) in a deterministic order.

    Subsets are indexed by orbit-inclusion bitmasks counting up from 0, so
    output order is reproducible.  Raises CapExceeded when the orbit count
    passes the bit budget.
    """
    orbits = capped_connection_orbits(g, alpha, caps or caps_from_env())
    full = (1 << len(orbits)) - 1
    for index, (mask, rows) in enumerate(connection_rows(g, alpha, orbits)):
        if nonempty_only and index == 0:
            continue
        if up_to_complement and index > full ^ index:
            continue
        if connected_only and not Graph(g.order, rows).is_connected():
            continue
        yield make_spec(g, alpha, mask)


def kernel_subgroup(spec: GCSpec) -> SubgroupHandle:
    """K = {g : alpha(g)S = S}; vertices in one left coset of K share their
    whole neighborhood."""
    g, perm, s_mask = spec.group, spec.alpha.perm, spec.connection.mask
    s_ids = list(bits(s_mask))
    members = []
    for x in range(g.order):
        ax = perm[x]
        if all(s_mask >> g.mul[ax][s] & 1 for s in s_ids):
            members.append(x)
    return subgroup_handle(g, mask_of(members))


def quotient_by_kernel(graph: Graph, kernel: SubgroupHandle) -> Graph:
    """Graph on the left cosets of K in `kernel.cosets()` order; adjacent iff any cross pair is."""
    if graph.n != kernel.group.order:
        raise SpecError("graph order does not match the kernel's group")
    cosets = kernel.cosets()
    rows = []
    for i, coset in enumerate(cosets):
        nbrs = 0
        for v in bits(coset):
            nbrs |= graph.rows[v]
        rows.append(mask_of(j for j, other in enumerate(cosets) if j != i and nbrs & other))
    return Graph(len(cosets), tuple(rows))
