"""Simple undirected graphs on 0..n-1 with bitset adjacency rows."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import SpecError
from .groups import bits, mask_of


@dataclass(frozen=True)
class Graph:
    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        n, rows = self.n, self.rows
        if len(rows) != n:
            raise SpecError("row count does not match vertex count")
        upper = 0   # bits j > i of each row i
        for i, r in enumerate(rows):
            if r >> n:
                raise SpecError("adjacency bit outside vertex range")
            if r >> i & 1:
                raise SpecError(f"loop at vertex {i}")
            above = r >> i + 1
            upper += above.bit_count()
            while above:
                low = above & -above
                j = i + low.bit_length()
                if not rows[j] >> i & 1:
                    raise SpecError(f"asymmetric edge {i}-{j}")
                above ^= low
        # Each upper bit i-j now has its mirror j-i below the diagonal, so the
        # rows are symmetric iff no other bit lies below it.
        if 2 * upper != sum(r.bit_count() for r in rows):
            i, j = next((i, j) for i in range(n) for j in bits(rows[i] & ((1 << i) - 1))
                        if not rows[j] >> i & 1)
            raise SpecError(f"asymmetric edge {i}-{j}")

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.rows[v]))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.rows[u] >> u >> 1):
                yield (u, u + 1 + v)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def components(self) -> list[list[int]]:
        seen, out = 0, []
        for start in range(self.n):
            if seen >> start & 1:
                continue
            comp_mask, frontier = 1 << start, 1 << start
            while frontier:
                nxt = 0
                for v in bits(frontier):
                    nxt |= self.rows[v]
                frontier = nxt & ~comp_mask
                comp_mask |= frontier
            seen |= comp_mask
            out.append(list(bits(comp_mask)))
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def is_bipartite(self) -> bool:
        color = [-1] * self.n
        for start in range(self.n):
            if color[start] >= 0:
                continue
            color[start] = 0
            stack = [start]
            while stack:
                v = stack.pop()
                for u in bits(self.rows[v]):
                    if color[u] < 0:
                        color[u] = color[v] ^ 1
                        stack.append(u)
                    elif color[u] == color[v]:
                        return False
        return True

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph(self.n, tuple((full ^ r) & ~(1 << i) for i, r in enumerate(self.rows)))


def from_edges(n: int, edges) -> Graph:
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise SpecError("loops not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << i) for i in range(n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise SpecError("cycles need at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edges(10, outer + spokes + inner)


def relabel(g: Graph, perm) -> Graph:
    """New graph with vertex i renamed perm[i]."""
    rows = [0] * g.n
    for u in range(g.n):
        r = 0
        for v in bits(g.rows[u]):
            r |= 1 << perm[v]
        rows[perm[u]] = r
    return Graph(g.n, tuple(rows))


def disjoint_union(a: Graph, b: Graph) -> Graph:
    rows = list(a.rows) + [r << a.n for r in b.rows]
    return Graph(a.n + b.n, tuple(rows))


def direct_product(a: Graph, b: Graph) -> Graph:
    """Tensor product on pairs (x, y) -> x*b.n + y; edges need both projections."""
    rows = [0] * (a.n * b.n)
    for x in range(a.n):
        for y in range(b.n):
            r = 0
            for x2 in bits(a.rows[x]):
                base = x2 * b.n
                for y2 in bits(b.rows[y]):
                    r |= 1 << (base + y2)
            rows[x * b.n + y] = r
    return Graph(a.n * b.n, tuple(rows))


def lexicographic_product(a: Graph, b: Graph) -> Graph:
    """(x1,y1) ~ (x2,y2) iff x1 ~ x2, or x1 = x2 and y1 ~ y2."""
    rows = [0] * (a.n * b.n)
    bfull = (1 << b.n) - 1
    for x in range(a.n):
        outer = 0
        for x2 in bits(a.rows[x]):
            outer |= bfull << (x2 * b.n)
        for y in range(b.n):
            rows[x * b.n + y] = outer | (b.rows[y] << (x * b.n))
    return Graph(a.n * b.n, tuple(rows))


def bipartite_double_cover(g: Graph) -> Graph:
    return direct_product(g, complete_graph(2))


def triangle_profile(g: Graph) -> tuple[int, ...]:
    """Number of triangles through each vertex."""
    out = []
    for v in range(g.n):
        t = 0
        for u in bits(g.rows[v]):
            t += (g.rows[v] & g.rows[u]).bit_count()
        out.append(t // 2)
    return tuple(out)


def triangles(g: Graph) -> Iterator[tuple[int, int, int]]:
    """All triangles u < v < w."""
    for u in range(g.n):
        above_u = g.rows[u] >> (u + 1) << (u + 1)
        for v in bits(above_u):
            common = g.rows[u] & g.rows[v]
            for w in bits(common >> (v + 1) << (v + 1)):
                yield (u, v, w)


@dataclass(frozen=True)
class IsomorphismWitness:
    """Explicit vertex bijection source -> target."""

    source: Graph
    target: Graph
    mapping: tuple[int, ...]


def check_witness(w: IsomorphismWitness) -> bool:
    """Exhaustive edge-preservation check in both directions."""
    a, b, m = w.source, w.target, w.mapping
    if a.n != b.n or sorted(m) != list(range(a.n)):
        return False
    for u in range(a.n):
        image = mask_of(m[v] for v in bits(a.rows[u]))
        if image != b.rows[m[u]]:
            return False
    return True
