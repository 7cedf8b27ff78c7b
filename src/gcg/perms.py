"""Permutations as tuples, plus a stabilizer chain built from a strong
generating set.

The chain gives exact group orders as products of basic orbit lengths, and
its transversals drive the regular-subgroup search in `cayley`.  It is not
a Schreier-Sims implementation: the automorphism search in `canon` already
yields a strong generating set for its own base, so the chain only lays out
Schreier trees.  The orbit lengths are counted when the chain is built,
with no composition; the transversals are composed from the trees the
first time they are read, since only Cayley detection on a
vertex-transitive graph reads them.  Degrees stay small (graph vertex
counts), so plain tuple composition is fine.
"""
from __future__ import annotations

Perm = tuple[int, ...]


def pmul(a: Perm, b: Perm) -> Perm:
    """Composition a∘b: first apply b, then a."""
    return tuple(a[x] for x in b)


def pinv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def orbit_partition(n: int, gens: list[Perm]) -> tuple[tuple[int, ...], ...]:
    """Orbits of <gens> on 0..n-1, each sorted, ordered by minimum."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        for i in range(n):
            ri, rj = find(i), find(g[i])
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(v)) for _, v in sorted(groups.items()))


class StabilizerChain:
    """Stabilizer chain of a permutation group, built once and then only read.

    base[i] has basic orbit transversal[i]: point -> u with u(base[i]) =
    point, where u fixes base[:i] pointwise.  Every level has an orbit of
    at least two points, and the group order is the product of the orbit
    lengths.  The chain is laid out as Schreier trees, point -> (g, parent)
    with g(parent) = point; `transversal` composes them the first time it
    is read.
    """

    def __init__(self, degree: int, base: tuple[int, ...], trees: tuple[dict[int, tuple[Perm, int] | None], ...]):
        self.degree = degree
        self.identity = identity_perm(degree)
        self.base = base
        self._trees = trees   # the base point maps to None
        self._transversal: tuple[dict[int, Perm], ...] | None = None

    @classmethod
    def from_strong_generators(cls, degree: int, base: list[int], gens: list[Perm]) -> "StabilizerChain":
        """The chain of <gens>, which must be a strong generating set relative
        to base: for every i, the gens fixing base[:i] pointwise generate the
        pointwise stabilizer of base[:i].  Level i is then the Schreier tree
        of base[i] under those gens, built breadth first; levels whose orbit
        is a single point are dropped."""
        kept: list[int] = []
        trees: list[dict[int, tuple[Perm, int] | None]] = []
        sub = list(gens)
        for b in base:
            if not sub:
                break
            tree: dict[int, tuple[Perm, int] | None] = {b: None}
            frontier = [b]
            while frontier:
                nxt = []
                for x in frontier:
                    for g in sub:
                        y = g[x]
                        if y not in tree:
                            tree[y] = g, x
                            nxt.append(y)
                frontier = nxt
            if len(tree) > 1:
                kept.append(b)
                trees.append(tree)
            sub = [g for g in sub if g[b] == b]
        return cls(degree, tuple(kept), tuple(trees))

    @property
    def transversal(self) -> tuple[dict[int, Perm], ...]:
        if self._transversal is None:
            levels = []
            for tree in self._trees:
                trans: dict[int, Perm] = {}
                for y, edge in tree.items():
                    trans[y] = self.identity if edge is None else pmul(edge[0], trans[edge[1]])
                levels.append(trans)
            self._transversal = tuple(levels)
        return self._transversal

    def order(self) -> int:
        out = 1
        for tree in self._trees:
            out *= len(tree)
        return out


def enumerate_group_elements(gens: list[Perm], degree: int, cap: int) -> list[Perm] | None:
    """All elements of <gens>, or None once more than cap are seen."""
    ident = identity_perm(degree)
    seen = {bytes(ident)}
    out = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = pmul(g, p)
                key = bytes(q)
                if key not in seen:
                    if len(seen) >= cap:
                        return None
                    seen.add(key)
                    out.append(q)
                    nxt.append(q)
        frontier = nxt
    return out
