"""Graph serialization: graph6, DOT, and a JSON-friendly dict form.

graph6 follows the standard format: a size header (one char for n <= 62,
'~' plus three chars up to n = 258047), then the upper triangle of the
adjacency matrix read column by column, packed into 6-bit groups offset
by 63.  Headers beyond the three-char range are out of scope here.
"""
from __future__ import annotations

import json
from typing import Any

from .errors import ShapeError
from .graphs import Graph, from_edges


def _g6_header(n: int) -> str:
    if n < 0:
        raise ShapeError("vertex count must be nonnegative")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    raise ShapeError(f"graph6 header for n={n} not supported")


def graph6_in_order(rows, order) -> str:
    """graph6 of the graph with these adjacency rows, vertex order[j] written
    as vertex j.  The canonical fingerprint is this string for the best
    leaf's vertex order, written once per graph; the searches compare leaves
    by their traces, which already hold the adjacency matrix in leaf order,
    and never key a leaf by its graph6."""
    n = len(order)
    acc = 0
    for j in range(1, n):
        vj = order[j]
        for i in range(j):
            acc = acc << 1 | rows[order[i]] >> vj & 1
    width = n * (n - 1) // 2
    pad = -width % 6
    acc <<= pad
    return _g6_header(n) + "".join(chr((acc >> s & 63) + 63) for s in range(width + pad - 6, -1, -6))


def to_graph6(g: Graph) -> str:
    return graph6_in_order(g.rows, range(g.n))


def from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ShapeError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise ShapeError("graph6 characters out of range")
    if data[0] == 63:  # '~'
        if len(data) < 4:
            raise ShapeError("truncated graph6 header")
        n = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise ShapeError(f"graph6 body length {len(body)} does not match n={n}")
    stream = 0
    for d in body:
        stream = stream << 6 | d
    total = 6 * len(body)
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if stream >> (total - 1 - k) & 1:
                edges.append((i, j))
            k += 1
    if total > need and stream & ((1 << (total - need)) - 1):
        raise ShapeError("graph6 padding bits must be zero")
    return from_edges(n, edges)


def to_dot(g: Graph, name: str = "G", labels: list[str] | None = None) -> str:
    lines = [f"graph {json.dumps(name)} {{"]
    for v in range(g.n):
        label = labels[v] if labels else str(v)
        lines.append(f'  v{v} [label={json.dumps(label)}];')
    for u, v in g.edges():
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_dict(g: Graph) -> dict[str, Any]:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def graph_from_dict(d: dict[str, Any]) -> Graph:
    return from_edges(int(d["n"]), [(int(u), int(v)) for u, v in d["edges"]])
