"""Independent brute-force oracles.

Everything here recomputes answers from first principles with no shared
machinery beyond raw adjacency rows and multiplication tables, so agreement
with the package is meaningful evidence.  There are two exceptions.
`SchreierSimsChain` computes group orders by incremental Schreier-Sims,
sifting every generator it is given; it shares only tuple composition and
inversion with the package.  `enumerated_cayley_status` starts from the
package's automorphism generators because listing Aut(X) by filtering
permutations stops at 8 vertices; its regular-subgroup search shares
nothing with the package.  `scanning_refine` rescans every cell for every
splitter; it is the reference for `canon._refine`, which visits only the
cells a splitter can split.
"""
from __future__ import annotations

from itertools import permutations

from gcg.perms import Perm, identity_perm, pinv, pmul


def is_graph_automorphism(rows: tuple[int, ...], perm: tuple[int, ...]) -> bool:
    n = len(rows)
    for u in range(n):
        for v in range(n):
            if (rows[u] >> v & 1) != (rows[perm[u]] >> perm[v] & 1):
                return False
    return True


def brute_automorphisms(rows: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All automorphisms in lexicographic order; n <= 8 only.

    Every bijection is built one vertex at a time, and a partial one is
    dropped as soon as two of its assigned vertices break adjacency, so the
    result is exactly the permutations that `is_graph_automorphism` accepts,
    without testing all n! of them one by one."""
    n = len(rows)
    if n > 8:
        raise ValueError("brute-force automorphism search is capped at 8 vertices")
    out: list[tuple[int, ...]] = []
    perm: list[int] = []

    def extend(u: int) -> None:
        if u == n:
            out.append(tuple(perm))
            return
        for x in range(n):
            if x in perm:
                continue
            perm.append(x)
            if all((rows[u] >> v & 1) == (rows[x] >> perm[v] & 1) for v in range(u + 1)):
                extend(u + 1)
            perm.pop()

    extend(0)
    return out


def brute_vertex_orbits(rows: tuple[int, ...]) -> list[set[int]]:
    autos = brute_automorphisms(rows)
    n = len(rows)
    seen: set[int] = set()
    orbits = []
    for v in range(n):
        if v in seen:
            continue
        orbit = {p[v] for p in autos}
        orbits.append(orbit)
        seen |= orbit
    return orbits


def brute_is_isomorphic(rows_a: tuple[int, ...], rows_b: tuple[int, ...]) -> bool:
    n = len(rows_a)
    if n != len(rows_b):
        return False
    if n > 8:
        raise ValueError("brute-force isomorphism search is capped at 8 vertices")
    for p in permutations(range(n)):
        if all(
            (rows_a[u] >> v & 1) == (rows_b[p[u]] >> p[v] & 1)
            for u in range(n)
            for v in range(n)
        ):
            return True
    return False


def valid_connection_sets(mul, inv, alpha: tuple[int, ...]) -> list[frozenset[int]]:
    """Power-set filter: every subset of group elements satisfying the three
    connection-set conditions for the given order-<=2 automorphism."""
    n = len(alpha)
    elements = list(range(n))
    # condition (i) is a property of alpha alone
    if any(alpha[alpha[x]] != x for x in elements):
        return []
    omega = {mul[alpha[inv[x]]][x] for x in elements}
    available = [x for x in elements if x not in omega]
    out = []
    for mask in range(1 << len(available)):
        s = frozenset(available[i] for i in range(len(available)) if mask >> i & 1)
        if all(alpha[inv[x]] in s for x in s):
            out.append(s)
    return out


def naive_census_count(groups) -> int:
    """Total number of (group, alpha, S) census rows, recomputed by the
    power-set filter.  `groups` yields (mul, inv, alpha_perms) triples."""
    total = 0
    for mul, inv, alphas in groups:
        for alpha in alphas:
            total += len(valid_connection_sets(mul, inv, alpha))
    return total


def group_automorphisms_brute(mul, order: int) -> list[tuple[int, ...]]:
    """All group automorphisms by filtering bijections fixing the identity;
    usable only for tiny groups (order <= 6) because it scans (order-1)!."""
    out = []
    for rest in permutations(range(1, order)):
        perm = (0,) + rest
        if all(
            perm[mul[a][b]] == mul[perm[a]][perm[b]]
            for a in range(order)
            for b in range(order)
        ):
            out.append(perm)
    return out



def _semiregular_closure(seed: list[tuple[int, ...]], n: int) -> dict[int, tuple[int, ...]] | None:
    """The group generated by seed, keyed by the image of vertex 0, or None
    when it is not semiregular (two elements agree at 0, or one fixes a point)."""
    ident = tuple(range(n))
    have = {0: ident}
    frontier = [ident]
    while frontier:
        p = frontier.pop()
        for q in seed:
            r = tuple(q[x] for x in p)
            k = r[0]
            if k in have:
                if have[k] != r:
                    return None
                continue
            if any(r[v] == v for v in range(n)):
                return None
            have[k] = r
            frontier.append(r)
    return have


def regular_subgroup_in(elements: list[tuple[int, ...]], n: int):
    """A regular subgroup of the listed permutation group, or None.

    Backtracks over the listed elements one coset at a time: a regular R
    containing the current semiregular H has exactly one element sending 0
    to the least vertex H does not reach, so trying every listed
    fixed-point-free element with that image is complete."""
    by_image: dict[int, list[tuple[int, ...]]] = {v: [] for v in range(n)}
    for p in elements:
        if all(p[v] != v for v in range(n)):
            by_image[p[0]].append(p)

    def search(gens: list[tuple[int, ...]], group: dict[int, tuple[int, ...]]):
        if len(group) == n:
            return list(group.values())
        v = min(x for x in range(n) if x not in group)
        for p in by_image[v]:
            closed = _semiregular_closure(gens + [p], n)
            if closed is not None:
                found = search(gens + [p], closed)
                if found is not None:
                    return found
        return None

    return search([], {0: tuple(range(n))})


def enumerated_cayley_status(rows: tuple[int, ...], cap: int = 100_000) -> tuple[str, str]:
    """(status, reason) of the Cayley question, by listing all of Aut(X).

    Aut(X) is listed element by element from the package's automorphism
    generators (`perms.enumerate_group_elements`) and searched for a regular
    subgroup by `regular_subgroup_in`.  No stabilizer chain, no pruning by
    base images and no reduction to components are involved, so agreement
    with `cayley.detect_cayley` checks its search, not its generators.
    Raises RuntimeError when |Aut(X)| exceeds `cap`."""
    from gcg.canon import automorphism_group
    from gcg.graphs import Graph
    from gcg.perms import enumerate_group_elements

    n = len(rows)
    if all(r == 0 for r in rows) or all(r.bit_count() == n - 1 for r in rows):
        return "cayley", "edgeless or complete graph is a circulant"
    desc = automorphism_group(Graph(n, tuple(rows)))
    if len(desc.orbits) > 1:
        return "not_cayley", "automorphism group is not transitive"
    elements = enumerate_group_elements(list(desc.generators), n, cap)
    if elements is None:
        raise RuntimeError(f"|Aut| = {desc.order} exceeds the oracle's enumeration cap {cap}")
    if regular_subgroup_in(elements, n) is None:
        return "not_cayley", "no regular subgroup in the full automorphism group"
    return "cayley", "regular subgroup of automorphisms found"


def circulant_rows(n: int, connection) -> tuple[int, ...]:
    """Adjacency rows of Cay(Z_n, S) for an inverse-closed S, from the
    definition x ~ y iff y - x in S."""
    s = {c % n for c in connection}
    return tuple(sum(1 << y for y in range(n) if (y - x) % n in s) for x in range(n))


# Incremental Schreier-Sims, kept as the reference for the group orders that
# `perms.StabilizerChain.from_strong_generators` reads off a strong
# generating set.  It sifts every generator and every Schreier generator, so
# it assumes nothing about where its generators came from.

class SchreierSimsChain:
    """Incremental Schreier-Sims over a growing generator list.

    The chain is kept at a fixpoint where, for every level, the orbit of
    base[level] is closed under every strong generator fixing base[:level]
    pointwise and every Schreier generator sifts to the identity; the group
    order is then exactly the product of the transversal sizes.  Sift
    watermarks make the total work proportional to one batch run even when
    generators arrive one at a time.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.identity = identity_perm(degree)
        self.base: list[int] = []
        self.strong: list[Perm] = []
        self.transversal: list[dict[int, Perm]] = []  # point -> rep u with u(base[i]) = point
        self._done: list[dict[int, int]] = []  # point -> strong-gen watermark already sifted

    def order(self) -> int:
        out = 1
        for t in self.transversal:
            out *= len(t)
        return out

    def _strip(self, p: Perm) -> tuple[Perm, int]:
        for i, b in enumerate(self.base):
            x = p[b]
            if x not in self.transversal[i]:
                return p, i
            p = pmul(pinv(self.transversal[i][x]), p)
        return p, len(self.base)

    def contains(self, p: Perm) -> bool:
        res, _ = self._strip(p)
        return res == self.identity

    def add(self, p: Perm) -> bool:
        """Add a generator; returns True if the group grew."""
        res, _ = self._strip(p)
        if res == self.identity:
            return False
        self._register(res)
        self._stabilize()
        return True

    def _register(self, res: Perm) -> None:
        if all(res[b] == b for b in self.base):
            moved = next(i for i in range(self.degree) if res[i] != i)
            self.base.append(moved)
            self.transversal.append({moved: self.identity})
            self._done.append({})
        self.strong.append(res)

    def _fixes_prefix(self, g: Perm, level: int) -> bool:
        return all(g[self.base[i]] == self.base[i] for i in range(level))

    def _stabilize(self) -> None:
        while True:
            changed = False
            for level in range(len(self.base) - 1, -1, -1):
                if self._close_once(level):
                    changed = True
                    break
            if not changed:
                return

    def _close_once(self, level: int) -> bool:
        trans = self.transversal[level]
        done = self._done[level]
        gens = [
            (i, g) for i, g in enumerate(self.strong) if self._fixes_prefix(g, level)
        ]
        changed = False
        frontier = list(trans)
        while frontier:
            nxt = []
            for x in frontier:
                ux = trans[x]
                for _, g in gens:
                    y = g[x]
                    if y not in trans:
                        trans[y] = pmul(g, ux)
                        nxt.append(y)
                        changed = True
            frontier = nxt
        watermark = len(self.strong)
        for x in sorted(trans):
            seen = done.get(x, 0)
            if seen >= watermark:
                continue
            ux = trans[x]
            for i, g in gens:
                if i < seen:
                    continue
                sg = pmul(pinv(trans[g[x]]), pmul(g, ux))
                if sg == self.identity:
                    continue
                res, _ = self._strip(sg)
                if res != self.identity:
                    # Register one residue and restart the deepest-first
                    # sweep: the stuck level's orbit absorbs it before this
                    # pair is re-examined, so each registration makes strict
                    # progress and the strong list stays lean.
                    self._register(res)
                    return True
            done[x] = watermark
        return changed


def scanning_refine(rows: tuple[int, ...], cells: list[list[int]], worklist: list[int]) -> tuple[int, ...]:
    """Refine cells to equitability in place, scanning every cell for every
    splitter; returns the node trace by the all-pairs formula (cell count,
    cell sizes, then each cell's first vertex's neighbor count in every cell).

    Splitters are processed FIFO; split parts are ordered by descending
    neighbor count.
    """
    def mask(vs) -> int:
        m = 0
        for v in vs:
            m |= 1 << v
        return m

    qi = 0
    while qi < len(worklist):
        wmask = worklist[qi]
        qi += 1
        i = 0
        while i < len(cells):
            cell = cells[i]
            if len(cell) == 1:
                i += 1
                continue
            by_count: dict[int, list[int]] = {}
            for v in cell:
                by_count.setdefault((rows[v] & wmask).bit_count(), []).append(v)
            if len(by_count) == 1:
                i += 1
                continue
            parts = [by_count[k] for k in sorted(by_count, reverse=True)]
            cells[i : i + 1] = parts
            for part in parts:
                worklist.append(mask(part))
            i += len(parts)
    masks = [mask(c) for c in cells]
    trace = [len(cells)] + [len(c) for c in cells]
    trace += [(rows[c[0]] & m).bit_count() for c in cells for m in masks]
    return tuple(trace)
