"""Independent brute-force oracles.

Everything here recomputes answers from first principles with no shared
machinery beyond raw adjacency rows and multiplication tables, so agreement
with the package is meaningful evidence.  There are two exceptions.
`SchreierSimsChain` computes group orders by incremental Schreier-Sims,
sifting every generator it is given; it shares only tuple composition and
inversion with the package.  `enumerated_cayley_status` starts from the
package's automorphism generators because listing Aut(X) by filtering
permutations stops at 10 vertices; its regular-subgroup search shares
nothing with the package.  `scanning_refine` rescans every cell for every
splitter; it is the reference for `canon._refine`, which visits only the
cells a splitter can split.  `per_set_sweep` checks connection sets one at a
time; it is the reference for the verifiers that certify a whole family of
sets one connection-orbit layer at a time.  `all_pairs_coset_law` and
`all_pairs_duplicate_rows` compare every pair of vertices; they are the
reference for `theorems.coset_law_and_duplicates`, which compares each class
of equal rows with one precomputed coset mask, and for the unworthiness
sweep, which builds each set's rows as an OR of connection-orbit layers and
builds each kernel's coset table once per group.  `_orbit_hits` filters every found
automorphism and walks a sibling's orbit afresh for every sibling; it is the
reference for the per-node prune state `canon._SiblingOrbits`.
`closure_automorphisms` extends each partial map by closing it over every
pair of assigned elements after each new one; it is the reference for
`automorphisms.enumerate_automorphisms`, which walks the span of the chosen
generators once per choice.  The oracle wraps its maps with
`all_pairs_automorphism_from_perm`, which checks phi(ab) = phi(a) phi(b) on
every pair of elements; it is the reference for
`automorphisms.automorphism_from_perm`, which checks it on a generating set
only.  The oracle starts from its own `generating_ids`,
which closes each new generating set by `pairwise_subgroup_closure`, the
closure over every pair of members that `groups.subgroup_closure` and
`groups.generators` replaced with one reach walk by the generators.
`sorted_tuple_cosets` lists the left cosets of a kernel afresh from the
multiplication table, as sorted tuples, and `sorted_tuple_quotient` ORs
the rows of their members; they are the reference for the subgroup
handle's coset table, which
`construct.quotient_by_kernel` and the X -> X/K[empty] map of the
unworthiness check read.  `leaf_descent_aut_search` and
`graph6_keyed_canon_search` are the automorphism search and the canonical
search that `canon._aut_search` replaced, kept as they were but for passing
the neighbour lists the helpers take: every probe descends to a leaf, and
the canonical search is a second walk that compares leaves by their graph6
strings.  They share the refinement and prune helpers of `gcg.canon`, so
they check the search trees, not the refinement.  `refining_canon_search`
is that second walk keyed by trace sequences alone, given every generator
before it starts; it is the reference for the labelling of
`canon._aut_search`, whose one walk prunes with the generators found so
far, and with the leaf-descent search it bounds the nodes that walk
charges.  `eager_transversals` composes every Schreier
transversal while it walks the orbits; it is the reference for
`perms.StabilizerChain`, which counts the orbits when it is built and
composes the transversals when they are first read.
`triple_loop_group_axioms` checks
associativity on every triple of elements; it is the reference for
`groups.check_group_axioms`, which checks it on a generating set only.
"""
from __future__ import annotations

from itertools import permutations

from gcg.automorphisms import AutomorphismMap, identity_automorphism
from gcg.canon import (
    _Budget,
    _child,
    _is_automorphism,
    _labeling,
    _neighbours,
    _refine,
    _SiblingOrbits,
    _target_cell,
)
from gcg.errors import DescriptorError
from gcg.formats import graph6_in_order
from gcg.groups import FiniteGroup, mask_of
from gcg.perms import Perm, identity_perm, pinv, pmul


def is_graph_automorphism(rows: tuple[int, ...], perm: tuple[int, ...]) -> bool:
    n = len(rows)
    for u in range(n):
        for v in range(n):
            if (rows[u] >> v & 1) != (rows[perm[u]] >> perm[v] & 1):
                return False
    return True


def brute_automorphisms(rows: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All automorphisms in lexicographic order; n <= 10 only.

    Every bijection is built one vertex at a time, and a partial one is
    dropped as soon as two of its assigned vertices break adjacency, so the
    result is exactly the permutations that `is_graph_automorphism` accepts,
    without testing all n! of them one by one."""
    n = len(rows)
    if n > 10:
        raise ValueError("brute-force automorphism search is capped at 10 vertices")
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


def per_set_sweep(specs, check, left: int) -> tuple[int, bool]:
    """Run `check` (which raises on a failure) on each spec in turn until
    `left` of them have passed.  Returns how many passed and whether any
    spec was left unchecked."""
    covered = 0
    for spec in specs:
        if covered == left:
            return covered, True
        check(spec)
        covered += 1
    return covered, False


def all_pairs_coset_law(mul, inv, rows, kernel_mask: int) -> bool:
    """rows[a] == rows[b] exactly when a^-1 b is in the kernel, pair by pair."""
    n = len(rows)
    return all(
        (rows[a] == rows[b]) == bool(kernel_mask >> mul[inv[a]][b] & 1)
        for a in range(n)
        for b in range(n)
    )


def sorted_tuple_cosets(mul, kernel_mask: int) -> list[tuple[int, ...]]:
    """The left cosets xK, listed by least element (their representative),
    members ascending."""
    members = [h for h in range(len(mul)) if kernel_mask >> h & 1]
    seen = 0
    reps = []
    for x in range(len(mul)):
        if seen >> x & 1:
            continue
        reps.append(x)
        for h in members:
            seen |= 1 << mul[x][h]
    return [tuple(sorted(mul[rep][h] for h in members)) for rep in reps]


def sorted_tuple_quotient(mul, rows, kernel_mask: int) -> tuple[int, ...]:
    """Rows of the graph on the left cosets of `sorted_tuple_cosets`;
    cosets adjacent iff any cross pair is."""
    cosets = sorted_tuple_cosets(mul, kernel_mask)
    masks = [mask_of(c) for c in cosets]
    m = len(cosets)
    quotient = [0] * m
    for i in range(m):
        rep_rows = 0
        for v in cosets[i]:
            rep_rows |= rows[v]
        for j in range(m):
            if i != j and rep_rows & masks[j]:
                quotient[i] |= 1 << j
    return tuple(quotient)


def all_pairs_duplicate_rows(rows) -> bool:
    """Some two distinct vertices have equal rows, pair by pair."""
    return any(rows[a] == rows[b] for a in range(len(rows)) for b in range(a))


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


def _orbit_hits(v: int, explored: list[int], prefix: tuple[int, ...], gens: list[Perm], n: int) -> bool:
    """True when v provably lies in the orbit of an explored sibling under
    the subgroup of found automorphisms fixing the prefix pointwise."""
    if not explored:
        return False
    sub = [g for g in gens if all(g[p] == p for p in prefix)]
    if not sub:
        return False
    seen = 1 << v
    frontier = [v]
    targets = mask_of(explored)
    if targets >> v & 1:
        return True
    while frontier:
        x = frontier.pop()
        for g in sub:
            y = g[x]
            if not seen >> y & 1:
                if targets >> y & 1:
                    return True
                seen |= 1 << y
                frontier.append(y)
    return False


def pairwise_subgroup_closure(g: FiniteGroup, seed) -> int:
    """Mask of the subgroup generated by seed ids."""
    mask = 1
    members = {0}
    for s in seed:
        if s not in members:
            members.add(s)
            mask |= 1 << s
    frontier = list(members)
    while frontier:
        a = frontier.pop()
        for b in list(members):
            for c in (g.mul[a][b], g.mul[b][a], g.inv[a]):
                if c not in members:
                    members.add(c)
                    mask |= 1 << c
                    frontier.append(c)
    return mask


def generating_ids(g: FiniteGroup) -> list[int]:
    """Greedy generating set: repeatedly adjoin the smallest uncovered id."""
    gens: list[int] = []
    span = 1
    for x in range(1, g.order):
        if not span >> x & 1:
            gens.append(x)
            span = pairwise_subgroup_closure(g, gens)
    return gens


def all_pairs_automorphism_from_perm(g: FiniteGroup, perm) -> AutomorphismMap:
    """Validate a candidate map exhaustively and wrap it."""
    perm = tuple(perm)
    if len(perm) != g.order or sorted(perm) != list(range(g.order)):
        raise DescriptorError("not a bijection on element ids")
    if perm[0] != 0:
        raise DescriptorError("identity not fixed")
    for a in range(g.order):
        ra, pa = g.mul[a], perm[a]
        for b in range(g.order):
            if perm[ra[b]] != g.mul[pa][perm[b]]:
                raise DescriptorError("not multiplicative")
    order2 = all(perm[perm[x]] == x for x in range(g.order))
    return AutomorphismMap(g, perm, order2)


def closure_automorphisms(g: FiniteGroup, involutory_only: bool = False) -> list[AutomorphismMap]:
    """All automorphisms (optionally only those of order <= 2), sorted by perm.

    Backtracks over generator images with closure propagation; candidates are
    pruned by element order, injectivity, and (optionally) the order-2 law.
    """
    n = g.order
    if n == 1:
        return [identity_automorphism(g)]
    gens = generating_ids(g)
    by_order: dict[int, list[int]] = {}
    for x in range(n):
        by_order.setdefault(g.element_orders[x], []).append(x)

    found: list[tuple[int, ...]] = []

    def close(phi: list[int], used: set[int], fresh: list[int]) -> bool:
        assigned = [x for x in range(n) if phi[x] >= 0]
        queue = list(fresh)
        while queue:
            a = queue.pop()
            i = 0
            while i < len(assigned):
                b = assigned[i]
                i += 1
                for x, y in (
                    (g.mul[a][b], g.mul[phi[a]][phi[b]]),
                    (g.mul[b][a], g.mul[phi[b]][phi[a]]),
                ):
                    if phi[x] < 0:
                        if y in used or g.element_orders[x] != g.element_orders[y]:
                            return False
                        phi[x] = y
                        used.add(y)
                        assigned.append(x)
                        queue.append(x)
                    elif phi[x] != y:
                        return False
        if involutory_only:
            for x in range(n):
                y = phi[x]
                if y >= 0 and phi[y] >= 0 and phi[y] != x:
                    return False
        return True

    def backtrack(level: int, phi: list[int], used: set[int]) -> None:
        if level == len(gens):
            if all(v >= 0 for v in phi):
                found.append(tuple(phi))
            return
        src = gens[level]
        if phi[src] >= 0:
            backtrack(level + 1, phi, used)
            return
        for img in by_order[g.element_orders[src]]:
            if img in used:
                continue
            if involutory_only and phi[img] >= 0 and phi[img] != src:
                continue
            phi2 = list(phi)
            used2 = set(used)
            phi2[src] = img
            used2.add(img)
            if close(phi2, used2, [src]):
                backtrack(level + 1, phi2, used2)

    phi0 = [-1] * n
    phi0[0] = 0
    backtrack(0, phi0, {0})
    out = [all_pairs_automorphism_from_perm(g, p) for p in sorted(found)]
    if involutory_only:
        out = [a for a in out if a.order2]
    return out


def triple_loop_group_axioms(mul, order: int) -> None:
    """Identity and inverse checks, then associativity on all order^3 triples;
    raises DescriptorError with the message of the first axiom that fails."""
    for a in range(order):
        if mul[0][a] != a or mul[a][0] != a:
            raise DescriptorError("identity axiom fails")
    for a in range(order):
        if not any(mul[a][b] == 0 for b in range(order)):
            raise DescriptorError("inverse axiom fails")
    for a in range(order):
        ma = mul[a]
        for b in range(order):
            mab = mul[ma[b]]
            mb = mul[b]
            for c in range(order):
                if mab[c] != ma[mb[c]]:
                    raise DescriptorError("associativity fails")


def leaf_descent_aut_search(rows: tuple[int, ...], n: int, limit: int, seeds=(), stage: str = "automorphism search"):
    """Returns (base, gens): gens, which starts with the seeds, is a strong
    generating set of Aut relative to base, the leftmost path's
    individualized vertices.  Every seed must be an automorphism."""
    gens: list[Perm] = list(seeds)
    nbrs = _neighbours(rows)
    for seed in gens:
        if len(seed) != n or not _is_automorphism(rows, seed, nbrs):
            raise ValueError(f"{stage}: a seed is not an automorphism on {n} vertices")
    budget = _Budget(stage, n, limit)
    cells0: list[list[int]] = [list(range(n))] if n else []
    _refine(rows, cells0, [mask_of(range(n))], nbrs)
    # the leftmost path, recorded as the first walk takes it
    base: list[int] = []
    first_traces: list[tuple[int, ...]] = []
    zeta: list = [(), ""]  # the first leaf's vertex order and key

    def explore(cells, depth: int, prefix: tuple[int, ...], on_first: bool) -> bool:
        t = _target_cell(cells)
        if t is None:
            order = [c[0] for c in cells]
            if on_first:
                zeta[:] = order, graph6_in_order(rows, order)
                return False
            if graph6_in_order(rows, order) == zeta[1]:
                # sends the vertex labeled j at the first leaf to the one labeled j here
                gamma = tuple(w for _, w in sorted(zip(zeta[0], order)))
                if not _is_automorphism(rows, gamma, nbrs):
                    raise AssertionError("leaf key collision without automorphism")
                gens.append(gamma)
                return True
            return False
        orbits = _SiblingOrbits(prefix, gens)
        found_any = False
        for v in cells[t]:
            if on_first and v == cells[t][0]:
                base.append(v)
                child, tr = _child(rows, cells, t, v, budget, nbrs)
                first_traces.append(tr)
                explore(child, depth + 1, prefix + (v,), True)
                orbits.explored(v)
                continue
            if orbits.hits(v):
                continue
            child, tr = _child(rows, cells, t, v, budget, nbrs)
            orbits.explored(v)
            if tr != first_traces[depth]:
                continue
            found = explore(child, depth + 1, prefix + (v,), False)
            found_any = found_any or found
            if not on_first and found:
                return True
        return found_any

    explore(cells0, 0, (), True)
    return base, gens


def graph6_keyed_canon_search(rows: tuple[int, ...], n: int, gens: list[Perm], limit: int):
    """Labeling of the minimal (trace sequence, graph6) leaf over the search tree."""
    budget = _Budget("canonical search", n, limit)
    nbrs = _neighbours(rows)
    cells0: list[list[int]] = [list(range(n))] if n else []
    _refine(rows, cells0, [mask_of(range(n))], nbrs)
    best: list = [None, None, ()]  # traces, leaf graph6, labeling

    def explore(cells, depth: int, prefix: tuple[int, ...], traces: tuple):
        t = _target_cell(cells)
        if t is None:
            key = graph6_in_order(rows, [c[0] for c in cells])
            if best[0] is None or (traces, key) < (best[0], best[1]):
                best[0], best[1], best[2] = traces, key, _labeling(cells, n)
            return
        orbits = _SiblingOrbits(prefix, gens)
        for v in cells[t]:
            if orbits.hits(v):
                continue
            orbits.explored(v)
            child, tr = _child(rows, cells, t, v, budget, nbrs)
            newtraces = traces + (tr,)
            if best[0] is not None:
                bt = best[0][: depth + 1]
                if newtraces > bt:
                    continue
            explore(child, depth + 1, prefix + (v,), newtraces)

    explore(cells0, 0, (), ())
    return best[2]


def refining_canon_search(rows: tuple[int, ...], n: int, gens: list[Perm], limit: int):
    """Labeling of the leaf with the least trace sequence over the search tree
    (equal leaf traces mean equal graph6 strings, see `_trace`)."""
    budget = _Budget("canonical search", n, limit)
    nbrs = _neighbours(rows)
    cells0: list[list[int]] = [list(range(n))] if n else []
    _refine(rows, cells0, [mask_of(range(n))], nbrs)
    best: list = [None, ()]  # traces, labeling

    def explore(cells, depth: int, prefix: tuple[int, ...], traces: tuple):
        t = _target_cell(cells)
        if t is None:
            if best[0] is None or traces < best[0]:
                best[0], best[1] = traces, _labeling(cells, n)
            return
        orbits = _SiblingOrbits(prefix, gens)
        for v in cells[t]:
            if orbits.hits(v):
                continue
            orbits.explored(v)
            child, tr = _child(rows, cells, t, v, budget, nbrs)
            newtraces = traces + (tr,)
            if best[0] is not None:
                bt = best[0][: depth + 1]
                if newtraces > bt:
                    continue
            explore(child, depth + 1, prefix + (v,), newtraces)

    explore(cells0, 0, (), ())
    return best[1]


def eager_transversals(degree: int, base: list[int], gens: list[Perm]) -> tuple[tuple[int, ...], tuple[dict[int, Perm], ...]]:
    """(base, transversals) of the chain of the strong generating set gens
    relative to base: level i is the Schreier tree of base[i] under the gens
    fixing base[:i] pointwise, built breadth first with every element
    composed on the way; levels whose orbit is a single point are dropped."""
    ident = identity_perm(degree)
    kept: list[int] = []
    levels: list[dict[int, Perm]] = []
    sub = list(gens)
    for b in base:
        if not sub:
            break
        trans = {b: ident}
        frontier = [b]
        while frontier:
            nxt = []
            for x in frontier:
                ux = trans[x]
                for g in sub:
                    y = g[x]
                    if y not in trans:
                        trans[y] = pmul(g, ux)
                        nxt.append(y)
            frontier = nxt
        if len(trans) > 1:
            kept.append(b)
            levels.append(trans)
        sub = [g for g in sub if g[b] == b]
    return tuple(kept), tuple(levels)
