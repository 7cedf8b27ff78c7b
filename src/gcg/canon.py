"""Graph automorphism groups and canonical forms.

Individualization-refinement search: refine an ordered partition to
equitability, branch on the vertices of the first smallest non-singleton
cell, and prune with (a) node invariants ("traces") that any automorphism
must preserve and (b) orbits of the automorphisms found so far.

The automorphism pass explores the leftmost path fully; for every sibling
branch it probes for a single automorphism mapping the leftmost prefix onto
that branch and then abandons the branch (the coset argument makes the
generated group complete).  The canonical pass keeps the minimal
(trace sequence, labeled adjacency) leaf; isomorphic graphs therefore get
identical fingerprints.

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
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .caps import caps_from_env
from .errors import BudgetExceeded
from .graphs import Graph, IsomorphismWitness, check_witness, relabel
from .groups import bits, mask_of
from .perms import Perm, StabilizerChain, orbit_partition, pinv


@dataclass(frozen=True)
class PermGroupDescription:
    degree: int
    generators: tuple[Perm, ...]
    order: int
    orbits: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CanonicalForm:
    labeling: Perm        # vertex -> canonical label
    fingerprint: bytes    # graph6 of the relabeled graph


class _Budget:
    """Refinement-node counter of one search; its error names the search,
    the vertex count and the nodes spent."""

    def __init__(self, stage: str, n: int, limit: int):
        self.stage = stage
        self.n = n
        self.limit = limit
        self.nodes = 0

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise BudgetExceeded(
                f"{self.stage}: budget exhausted after {self.limit} refinement nodes on {self.n} vertices"
            )


def _refine(rows: tuple[int, ...], cells: list[list[int]], worklist: list[int]) -> tuple[int, ...]:
    """Refine cells to equitability in place; returns the node trace.

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
        for w in bits(wmask):
            near |= rows[w]
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
    return _trace(rows, cells)


def _trace(rows: tuple[int, ...], cells: list[list[int]]) -> tuple[int, ...]:
    """Cell count, cell sizes, then for each cell the number of neighbors its
    first vertex has in every cell: O(n + degrees) rather than O(cells^2)."""
    k = len(cells)
    cell_of = [0] * len(rows)
    for i, c in enumerate(cells):
        for v in c:
            cell_of[v] = i
    trace: list[int] = [k]
    trace.extend(len(c) for c in cells)
    for c in cells:
        counts = [0] * k
        for w in bits(rows[c[0]]):
            counts[cell_of[w]] += 1
        trace.extend(counts)
    return tuple(trace)


def _target_cell(cells: list[list[int]]) -> int | None:
    best, size = None, None
    for i, c in enumerate(cells):
        if len(c) > 1 and (size is None or len(c) < size):
            best, size = i, len(c)
    return best


def _child(rows, cells, t, v, budget: _Budget):
    """Individualize v out of cell t and re-refine; returns (cells, trace)."""
    budget.spend()
    new_cells = [list(c) for c in cells]
    rest = [u for u in new_cells[t] if u != v]
    new_cells[t : t + 1] = [[v], rest]
    trace = _refine(rows, new_cells, [1 << v])
    return new_cells, trace


def _labeling(cells: list[list[int]], n: int) -> Perm:
    lab = [0] * n
    for pos, c in enumerate(cells):
        lab[c[0]] = pos
    return tuple(lab)


def _leaf_key(rows: tuple[int, ...], lab: Perm) -> bytes:
    """Upper-triangle bits of the relabeled adjacency, packed big-endian."""
    n = len(lab)
    inv = [0] * n
    for v, l in enumerate(lab):
        inv[l] = v
    acc = 0
    count = 0
    for j in range(1, n):
        vj = inv[j]
        for i in range(j):
            acc = (acc << 1) | (rows[inv[i]] >> vj & 1)
            count += 1
    return acc.to_bytes((count + 7) // 8 or 1, "big")


def _gamma_from_labelings(lab_a: Perm, lab_b: Perm) -> Perm:
    """Permutation sending the vertex labeled j by lab_a to the one labeled j by lab_b."""
    n = len(lab_a)
    inv_b = [0] * n
    for v, l in enumerate(lab_b):
        inv_b[l] = v
    return tuple(inv_b[lab_a[v]] for v in range(n))


def _is_automorphism(rows: tuple[int, ...], p: Perm) -> bool:
    for u in range(len(p)):
        img = 0
        for v in bits(rows[u]):
            img |= 1 << p[v]
        if img != rows[p[u]]:
            return False
    return True


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


def _aut_search(rows: tuple[int, ...], n: int, limit: int):
    """Returns (base, gens, first_leaf_labeling): gens is a strong generating
    set of Aut relative to base, the leftmost path's individualized vertices."""
    budget = _Budget("automorphism search", n, limit)
    cells0: list[list[int]] = [list(range(n))]
    _refine(rows, cells0, [mask_of(range(n))] if n else [])
    # leftmost path
    base: list[int] = []
    first_traces: list[tuple[int, ...]] = []
    cells = cells0
    while True:
        t = _target_cell(cells)
        if t is None:
            break
        v = cells[t][0]
        base.append(v)
        cells, trace = _child(rows, cells, t, v, budget)
        first_traces.append(trace)
    zeta = _labeling(cells, n)
    zeta_bytes = _leaf_key(rows, zeta)
    gens: list[Perm] = []

    def explore(cells, depth: int, prefix: tuple[int, ...], on_first: bool) -> bool:
        t = _target_cell(cells)
        if t is None:
            lab = _labeling(cells, n)
            if lab == zeta:
                return False
            if _leaf_key(rows, lab) == zeta_bytes:
                gamma = _gamma_from_labelings(zeta, lab)
                if not _is_automorphism(rows, gamma):
                    raise AssertionError("leaf key collision without automorphism")
                gens.append(gamma)
                return True
            return False
        explored: list[int] = []
        found_any = False
        for v in cells[t]:
            if on_first and v == base[depth]:
                child, _ = _child(rows, cells, t, v, budget)
                explore(child, depth + 1, prefix + (v,), True)
                explored.append(v)
                continue
            if _orbit_hits(v, explored, prefix, gens, n):
                continue
            child, tr = _child(rows, cells, t, v, budget)
            explored.append(v)
            if tr != first_traces[depth]:
                continue
            found = explore(child, depth + 1, prefix + (v,), False)
            found_any = found_any or found
            if not on_first and found:
                return True
        return found_any

    if n:
        explore(cells0, 0, (), True)
    return base, gens, zeta


def _canon_search(rows: tuple[int, ...], n: int, gens: list[Perm], limit: int):
    """Minimal (trace sequence, labeled adjacency) leaf over the search tree."""
    budget = _Budget("canonical search", n, limit)
    cells0: list[list[int]] = [list(range(n))]
    _refine(rows, cells0, [mask_of(range(n))] if n else [])
    best: list = [None, None, None]  # traces, leaf bytes, labeling

    def explore(cells, depth: int, prefix: tuple[int, ...], traces: tuple):
        t = _target_cell(cells)
        if t is None:
            lab = _labeling(cells, n)
            key = _leaf_key(rows, lab)
            if best[0] is None or (traces, key) < (best[0], best[1]):
                best[0], best[1], best[2] = traces, key, lab
            return
        explored: list[int] = []
        for v in cells[t]:
            if _orbit_hits(v, explored, prefix, gens, n):
                continue
            explored.append(v)
            child, tr = _child(rows, cells, t, v, budget)
            newtraces = traces + (tr,)
            if best[0] is not None:
                bt = best[0][: depth + 1]
                if newtraces > bt:
                    continue
            explore(child, depth + 1, prefix + (v,), newtraces)

    if n:
        explore(cells0, 0, (), ())
    else:
        best[2] = ()
    return best[2]


@lru_cache(maxsize=1024)
def _aut_cached(n: int, rows: tuple[int, ...], budget: int):
    base, gens, _ = _aut_search(rows, n, budget)
    return StabilizerChain.from_strong_generators(n, base, gens), tuple(gens)


def automorphism_group(g: Graph, budget: int | None = None) -> PermGroupDescription:
    budget = budget if budget is not None else caps_from_env().aut_node_budget
    chain, gens = _aut_cached(g.n, g.rows, budget)
    return PermGroupDescription(
        degree=g.n,
        generators=gens,
        order=chain.order(),
        orbits=orbit_partition(g.n, list(gens)),
    )


def automorphism_chain(g: Graph, budget: int | None = None) -> StabilizerChain:
    """The stabilizer chain of Aut(g) built by the automorphism search.

    The chain is cached and shared between callers; it is read-only."""
    budget = budget if budget is not None else caps_from_env().aut_node_budget
    return _aut_cached(g.n, g.rows, budget)[0]


@lru_cache(maxsize=1024)
def _canon_cached(n: int, rows: tuple[int, ...], budget: int) -> Perm:
    _, gens = _aut_cached(n, rows, budget)
    return _canon_search(rows, n, list(gens), budget)


def canonical_form(g: Graph, budget: int | None = None) -> CanonicalForm:
    from .formats import to_graph6

    budget = budget if budget is not None else caps_from_env().aut_node_budget
    lab = _canon_cached(g.n, g.rows, budget)
    return CanonicalForm(labeling=lab, fingerprint=to_graph6(relabel(g, lab)).encode("ascii"))


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
