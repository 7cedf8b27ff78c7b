"""Graph automorphism groups and canonical forms.

Individualization-refinement search: refine an ordered partition to
equitability, branch on the vertices of the first smallest non-singleton
cell, and prune with (a) node invariants ("traces") that any automorphism
must preserve and (b) orbits of the automorphisms found so far.

The search records the leftmost path during the first walk; for every
sibling branch whose trace equals the leftmost path's it probes for a single
automorphism mapping the leftmost prefix onto that branch and then abandons
the branch (the coset argument makes the generated group complete).  The
same walk keeps the leaf with the least trace sequence, and that leaf's
graph6 is the fingerprint; isomorphic graphs therefore get identical
fingerprints.

Three lemmas let the walk skip work without changing any answer.

Leaves.  The trace of a discrete partition is the adjacency matrix with the
vertices in leaf order (`_trace`), so leaves with equal traces have equal
graph6 strings.  The walk therefore compares trace sequences alone: where
they tie, the graph6 strings tie as well, and the leaf found first is kept.

Probes.  Let a probe node at depth d have the same non-singleton cells (the
same lists at the same positions) as the first path's node at depth d, and
let gamma send the first path's singleton at each position to the probe's
singleton at that position and fix every other vertex.  Then gamma is an
automorphism.  Both partitions are equitable and have equal traces, so the
trace gives the adjacency between singletons, a singleton is adjacent to
all or none of a cell (a cell it splits would not be equitable) as the
trace says, and the vertices of the other cells are fixed.  (A leaf has no
non-singleton cell, so this holds at every probe leaf.)  So gamma maps the
first path's partition onto the probe's, element by element and in order.
`_refine` is label-invariant: parts are ordered by count, cell order is
kept, splitters are queued left to right, and the target cell is chosen by
position.  So the leftmost descent from the probe node is the gamma-image
of the first path below depth d: each of its traces matches, and it ends at
a leaf whose map is gamma, where a probe that walked down would stop.  The
probe appends gamma at once instead (checking that it is an automorphism).
It still charges the budget the len(base) - d nodes of that descent, so the
nodes spent, the point where a budget runs out and every budget-limited
answer stay those of the walk.

One walk.  The labeling is that of the first leaf, in depth-first order
with children in cell order, whose trace sequence is least over the whole
tree.  A walk finds it if every subtree it leaves out holds only leaves
that tie with leaves before them in that order, and each one left out does:
a sibling in the orbit of an explored one is that sibling's image; a probe
hit at depth d is the gamma-image of the first path's node at depth d; once
an automorphism is found below a sibling v of b_i, all of v's subtree is
the image of b_i's; and a subtree whose trace prefix exceeds the best
leaf's holds no lesser leaf.  So a sibling whose trace differs from the
first path's holds no leaf equivalent to the first, but it is not simply
dropped.  A greater one is cut.  A lesser one is walked in canonical mode
(`descend`): no probes, orbit pruning with the automorphisms found so far,
and a cut wherever the trace prefix exceeds the best leaf's.  It is walked
once its node's other children are done, which moves no tie: its leaves are
less than all of theirs.  It is skipped if the automorphisms found by then
put it in the orbit of a lesser sibling walked before it.  At a first-path
node the walk has by then found every generator that fixes the node's
prefix (a later one moves a base point above it), so the descents there
prune as a search given all the generators would.  Probe walks take no cut, so base, gens and the nodes
they charge stay those of an automorphism-only search; the canonical
descents add theirs.

The automorphisms found are a strong generating set relative to the
leftmost path's base b_0, ..., b_k (McKay and Piperno, Practical graph
isomorphism, II, 2014).  Deeper levels finish first, and an automorphism
found below a sibling v of b_i fixes b_0..b_{i-1} and sends b_i to v.  A
sibling is skipped only when it lies in the orbit of an explored sibling
under the automorphisms found so far that fix the prefix, and a sibling
whose subtree holds no leaf equivalent to the first is not in the orbit of
b_i.  So when level i is done, the found automorphisms fixing b_0..b_{i-1}
move b_i around its whole orbit under the pointwise stabilizer G_i of
b_0..b_{i-1}.  By induction from G_{k+1} = 1 (the first leaf is discrete),
they generate G_i, and |G_i| = |b_i^{G_i}| |G_{i+1}|.  The stabilizer chain
is therefore read straight off the generators (`StabilizerChain.
from_strong_generators`), and |Aut| is the product of the basic orbit
lengths (Seress, Permutation Group Algorithms, 2003); no sifting is needed.
Each found automorphism also moves b_i outside the orbit known before it,
so every one is a new strong generator.

The automorphism search may start from seeds, automorphisms already known
(each is checked first).  The argument above still holds: orbit pruning
with automorphisms is sound wherever they come from, and every explored
sibling equivalent to b_i still yields an automorphism that fixes the
prefix and sends b_i there.  So seeds plus the found automorphisms are a
strong generating set, and only the node count falls.  The double cover
X x K2 is searched this way, seeded with the lifts of Aut(X) and the layer
swap (`double_cover_automorphism_group`).

The prune state of a node (`_SiblingOrbits`) filters the prefix-fixing
automorphisms again only when new ones are found, and prunes exactly the
siblings that a fresh walk of each sibling's orbit would.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .caps import caps_from_env
from .errors import BudgetExceeded
from .formats import graph6_in_order
from .graphs import Graph, IsomorphismWitness, bipartite_double_cover, check_witness
from .groups import bits, mask_of
from .perms import Perm, StabilizerChain, orbit_partition, pinv


@dataclass(frozen=True)
class PermGroupDescription:
    degree: int
    generators: tuple[Perm, ...]
    order: int
    orbits: tuple[tuple[int, ...], ...]
    chain: StabilizerChain   # built by the search; cached and shared, so read-only


@dataclass(frozen=True)
class CanonicalForm:
    labeling: Perm        # vertex -> canonical label
    fingerprint: bytes    # graph6 of the graph under the labeling


class _Budget:
    """Refinement-node counter of one search; its error names the search,
    the vertex count and the nodes spent."""

    def __init__(self, stage: str, n: int, limit: int):
        self.stage = stage
        self.n = n
        self.limit = limit
        self.nodes = 0

    def spend(self, count: int = 1) -> None:
        self.nodes += count
        if self.nodes > self.limit:
            raise BudgetExceeded(
                f"{self.stage}: budget exhausted after {self.limit} refinement nodes on {self.n} vertices"
            )


def _neighbours(rows: tuple[int, ...]) -> list[list[int]]:
    """Each vertex's neighbours in increasing order; a search builds them once."""
    return [list(bits(r)) for r in rows]


def _refine(rows: tuple[int, ...], cells: list[list[int]], worklist: list[int],
            nbrs: list[list[int]]) -> tuple[int, ...]:
    """Refine the partition cells to equitability; returns the node trace
    (`nbrs` holds the neighbour lists of `rows`).

    Cells are replaced in the outer list, never mutated, so a child
    partition may share its untouched cells with its parent.

    Splitters are processed FIFO; split parts are ordered by descending
    neighbor count, which keeps the evolution label-invariant.  A pass
    visits only the non-singleton cells, whose positions and vertex masks
    `open_` keeps in order, skips those with no neighbor in the splitter
    (every count is 0), and queues the parts it splits off from left to
    right.  The splices go in from right to left, so each lands where the
    pass saw its cell.
    """
    open_ = [(i, mask_of(c)) for i, c in enumerate(cells) if len(c) > 1]
    qi = 0
    while qi < len(worklist) and open_:
        wmask = worklist[qi]
        qi += 1
        near = 0
        m = wmask
        while m:
            low = m & -m
            near |= rows[low.bit_length() - 1]
            m ^= low
        splits: dict[int, list[list[int]]] = {}
        for i, cmask in open_:
            if not cmask & near:
                continue
            by_count: dict[int, list[int]] = {}
            for v in cells[i]:
                by_count.setdefault((rows[v] & wmask).bit_count(), []).append(v)
            if len(by_count) > 1:
                splits[i] = [by_count[k] for k in sorted(by_count, reverse=True)]
        if not splits:
            continue
        for i in reversed(splits):
            cells[i : i + 1] = splits[i]
        still_open = []
        shift = 0
        for i, cmask in open_:
            parts = splits.get(i)
            if parts is None:
                still_open.append((i + shift, cmask))
                continue
            for k, part in enumerate(parts):
                pmask = mask_of(part)
                worklist.append(pmask)
                if len(part) > 1:
                    still_open.append((i + shift + k, pmask))
            shift += len(parts) - 1
        open_ = still_open
    return _trace(rows, cells, nbrs)


def _trace(rows: tuple[int, ...], cells: list[list[int]], nbrs: list[list[int]]) -> tuple[int, ...]:
    """Cell count, cell sizes, then for each cell the number of neighbors its
    first vertex has in every cell, read off the neighbour lists `nbrs` of
    `rows`.  The trace holds k^2 counts for k cells, one `[0] * k` per cell,
    so it costs O(k^2 + degrees).

    On a discrete partition the counts are the adjacency matrix with the
    vertices in cell order, so two leaves with equal traces have equal
    graph6 strings under their vertex orders."""
    k = len(cells)
    cell_of = [0] * len(rows)
    for i, c in enumerate(cells):
        for v in c:
            cell_of[v] = i
    trace: list[int] = [k]
    trace.extend(len(c) for c in cells)
    for c in cells:
        counts = [0] * k
        for u in nbrs[c[0]]:
            counts[cell_of[u]] += 1
        trace.extend(counts)
    return tuple(trace)


def _target_cell(cells: list[list[int]]) -> int | None:
    best, size = None, None
    for i, c in enumerate(cells):
        if len(c) > 1 and (size is None or len(c) < size):
            best, size = i, len(c)
    return best


def _child(rows, cells, t, v, budget: _Budget, nbrs: list[list[int]]):
    """Individualize v out of cell t and re-refine; returns (cells, trace).
    Only the outer list is copied: `_refine` never mutates a cell."""
    budget.spend()
    new_cells = cells[:t]
    new_cells += ([v], [u for u in cells[t] if u != v])
    new_cells += cells[t + 1 :]
    trace = _refine(rows, new_cells, [1 << v], nbrs)
    return new_cells, trace


def _labeling(cells: list[list[int]], n: int) -> Perm:
    lab = [0] * n
    for pos, c in enumerate(cells):
        lab[c[0]] = pos
    return tuple(lab)


def _is_automorphism(rows: tuple[int, ...], p: Perm, nbrs: list[list[int]]) -> bool:
    for u in range(len(p)):
        img = 0
        for v in nbrs[u]:
            img |= 1 << p[v]
        if img != rows[p[u]]:
            return False
    return True


class _SiblingOrbits:
    """Prune state of one search node: the union of the explored siblings'
    orbits under the found automorphisms that fix the node's prefix.

    The prefix-fixing generators are filtered again only from those found
    since the last check, and the union is closed again only when they grow
    or a sibling was explored since.  For an unexplored sibling v, `hits(v)`
    is true exactly when v lies in the orbit of an explored sibling."""

    __slots__ = ("prefix", "gens", "seen", "sub", "covered", "fresh")

    def __init__(self, prefix: tuple[int, ...], gens: list[Perm]):
        self.prefix = prefix
        self.gens = gens      # the search's list, which only ever grows
        self.seen = 0         # gens[:seen] have been filtered into sub
        self.sub: list[Perm] = []
        self.covered = 0      # closed under sub
        self.fresh = 0        # explored siblings not yet closed

    def explored(self, v: int) -> None:
        self.fresh |= 1 << v

    def hits(self, v: int) -> bool:
        if not (self.covered | self.fresh):
            return False
        gens = self.gens
        start = self.fresh & ~self.covered
        if self.seen < len(gens):
            prefix = self.prefix
            new = [g for g in gens[self.seen :] if all(g[p] == p for p in prefix)]
            self.seen = len(gens)
            if new:
                self.sub += new
                start = self.covered | self.fresh
        self.fresh = 0
        covered = self.covered | start
        frontier = []
        while start:
            low = start & -start
            frontier.append(low.bit_length() - 1)
            start ^= low
        sub = self.sub
        while frontier:
            x = frontier.pop()
            for g in sub:
                y = g[x]
                if not covered >> y & 1:
                    covered |= 1 << y
                    frontier.append(y)
        self.covered = covered
        return covered >> v & 1 == 1


def _aut_search(rows: tuple[int, ...], n: int, limit: int, seeds=(), stage: str = "automorphism search"):
    """Returns (base, gens, labeling): gens, which starts with the seeds, is a
    strong generating set of Aut relative to base, the leftmost path's
    individualized vertices, and labeling is that of the first leaf in
    depth-first order with the least trace sequence.  Every seed must be an
    automorphism."""
    nbrs = _neighbours(rows)
    gens: list[Perm] = list(seeds)
    for seed in gens:
        if len(seed) != n or not _is_automorphism(rows, seed, nbrs):
            raise ValueError(f"{stage}: a seed is not an automorphism on {n} vertices")
    budget = _Budget(stage, n, limit)
    cells0: list[list[int]] = [list(range(n))] if n else []
    _refine(rows, cells0, [mask_of(range(n))], nbrs)
    # the leftmost path, recorded as the first walk takes it: its vertices,
    # and its partition, the positions of that partition's non-singleton
    # cells and the trace at each depth
    base: list[int] = []
    first_nodes: list[tuple[list[list[int]], list[int]]] = []
    first_traces: list[tuple[int, ...]] = []
    best: list = [(), ()]  # trace sequence and labeling of the least leaf so far

    def descend(cells, prefix: tuple[int, ...], traces: tuple) -> None:
        # canonical mode: no probes, and a cut where the traces exceed the best leaf's
        if traces > best[0][: len(traces)]:
            return
        t = _target_cell(cells)
        if t is None:
            if traces < best[0]:
                best[:] = traces, _labeling(cells, n)
            return
        orbits = _SiblingOrbits(prefix, gens)
        for v in cells[t]:
            if orbits.hits(v):
                continue
            orbits.explored(v)
            child, tr = _child(rows, cells, t, v, budget, nbrs)
            descend(child, prefix + (v,), traces + (tr,))

    def explore(cells, depth: int, prefix: tuple[int, ...], on_first: bool) -> bool:
        t = _target_cell(cells)
        if on_first:
            first_nodes.append((cells, [i for i, c in enumerate(cells) if len(c) > 1]))
            if t is None:
                best[:] = tuple(first_traces), _labeling(cells, n)
                return False
        else:
            first, open_ = first_nodes[depth]
            if all(cells[i] == first[i] for i in open_):
                # sends the first path's vertex at each position to the one
                # here; a non-singleton cell is the same list in both
                gamma = list(range(n))
                for a, b in zip(first, cells):
                    gamma[a[0]] = b[0]
                gamma = tuple(gamma)
                if not _is_automorphism(rows, gamma, nbrs):
                    raise AssertionError("equal traces and open cells without an automorphism")
                # the leftmost descent from here, which would end at gamma's
                # leaf, is charged though not refined
                budget.spend(len(base) - depth)
                gens.append(gamma)
                return True
        orbits = _SiblingOrbits(prefix, gens)
        lesser = []   # siblings whose trace is less than the first path's
        for v in cells[t]:
            key = prefix + (v,)
            if on_first and v == cells[t][0]:
                base.append(v)
                child, tr = _child(rows, cells, t, v, budget, nbrs)
                first_traces.append(tr)
                explore(child, depth + 1, key, True)
                orbits.explored(v)
                continue
            if orbits.hits(v):
                continue
            child, tr = _child(rows, cells, t, v, budget, nbrs)
            orbits.explored(v)
            if tr == first_traces[depth]:
                if explore(child, depth + 1, key, False) and not on_first:
                    return True
            elif tr < first_traces[depth]:
                lesser.append((v, child, key, (*first_traces[:depth], tr)))
        if lesser:
            # automorphisms found since may join two of them in one orbit
            walked = _SiblingOrbits(prefix, gens)
            for v, *node in lesser:
                if not walked.hits(v):
                    walked.explored(v)
                    descend(*node)
        return False

    explore(cells0, 0, (), True)
    return base, gens, best[1]


def _describe(n: int, base: list[int], gens: list[Perm]) -> PermGroupDescription:
    chain = StabilizerChain.from_strong_generators(n, base, gens)
    return PermGroupDescription(
        degree=n,
        generators=tuple(gens),
        order=chain.order(),
        orbits=orbit_partition(n, gens),
        chain=chain,
    )


@lru_cache(maxsize=1024)
def _search_cached(n: int, rows: tuple[int, ...], budget: int) -> tuple[PermGroupDescription, CanonicalForm]:
    """Aut and the canonical form of the graph with these rows, from one search."""
    base, gens, lab = _aut_search(rows, n, budget)
    form = CanonicalForm(labeling=lab, fingerprint=graph6_in_order(rows, pinv(lab)).encode("ascii"))
    return _describe(n, base, gens), form


def automorphism_group(g: Graph, budget: int | None = None) -> PermGroupDescription:
    budget = budget if budget is not None else caps_from_env().aut_node_budget
    return _search_cached(g.n, g.rows, budget)[0]


def _cover_seeds(n: int, gens) -> list[Perm]:
    """The lifts (x, i) -> (sigma x, i) of the automorphisms gens of a graph
    on n vertices and the layer swap (x, i) -> (x, 1 - i), on its double
    cover, whose vertex (x, i) is 2x + i."""
    seeds = [tuple(2 * g[v >> 1] | (v & 1) for v in range(2 * n)) for g in gens]
    seeds.append(tuple(v ^ 1 for v in range(2 * n)))
    return seeds


@lru_cache(maxsize=1024)
def _cover_cached(n: int, rows: tuple[int, ...], budget: int) -> PermGroupDescription:
    """Aut(X x K2) of the graph X with these rows, from a search seeded with
    `_cover_seeds` of Aut(X)'s strong generators."""
    seeds = _cover_seeds(n, _search_cached(n, rows, budget)[0].generators)
    cover = bipartite_double_cover(Graph(n, rows))
    base, gens, _ = _aut_search(cover.rows, cover.n, budget, seeds, "double-cover automorphism search")
    return _describe(cover.n, base, gens)


def double_cover_automorphism_group(g: Graph, budget: int | None = None) -> PermGroupDescription:
    """Aut(g x K2) on the vertices of `bipartite_double_cover(g)`.

    Its generators start with the lifts of Aut(g)'s and the layer swap."""
    budget = budget if budget is not None else caps_from_env().aut_node_budget
    return _cover_cached(g.n, g.rows, budget)


def canonical_form(g: Graph, budget: int | None = None) -> CanonicalForm:
    budget = budget if budget is not None else caps_from_env().aut_node_budget
    return _search_cached(g.n, g.rows, budget)[1]


def is_isomorphic(a: Graph, b: Graph, budget: int | None = None) -> IsomorphismWitness | None:
    """Canonical-form comparison; on a hit, returns a verified vertex bijection."""
    if a.n != b.n or sorted(a.degrees()) != sorted(b.degrees()):
        return None
    ca, cb = canonical_form(a, budget), canonical_form(b, budget)
    if ca.fingerprint != cb.fingerprint:
        return None
    inv_b = pinv(cb.labeling)
    mapping = tuple(inv_b[ca.labeling[v]] for v in range(a.n))
    witness = IsomorphismWitness(a, b, mapping)
    if not check_witness(witness):
        raise AssertionError("canonical forms matched but witness failed")
    return witness
