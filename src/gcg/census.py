"""Exhaustive census of generalized Cayley graphs over the builtin catalog.

One JSON line per (group, alpha, connection set).  Work items are
(group, alpha-index) pairs; each expands to one record per valid set.
The run journals completed work items so an interrupted census resumes,
and the final file is sorted by (group, alpha_index, set_ids) so worker
count and scheduling cannot leak into the output bytes.  A manifest sidecar
`<out>.manifest.json` records what the bytes depend on (schema version,
resolved group names, max order, caps; not the worker count); a finished
output or a journal is reused only when its manifest matches the run.

Expensive verdicts degrade to "unknown" (or a null fingerprint) when a
budget cap is hit; records are never dropped.

Sharing.  `fingerprint`, `vertex_transitive`, `cayley` and `stability` are
isomorphism invariants, so a work item computes them once per isomorphism
class it meets; `compute_record` is the direct, unshared computation.
(b) Let C(alpha) be the automorphisms phi of G with phi alpha = alpha phi.
By Prop 2.1, GC(G, S, alpha) is isomorphic to GC(G, phi(S), phi alpha
phi^-1) = GC(G, phi(S), alpha), through x -> phi(x): alpha(x^-1)y lies in S
iff alpha(phi(x)^-1)phi(y) lies in phi(S).  So the first set of each
C(alpha)-orbit in enumeration order is computed in full and every later set
of that orbit copies its four invariant fields.  (a) Across work items, the
verdicts of a graph are looked up by its fingerprint, the graph6 of the
canonically relabelled graph, so equal fingerprints mean isomorphic graphs.
Only fully known answers are shared: a representative with a null
fingerprint or any "unknown" is neither stored nor copied, and each other
set of its orbit is computed on its own.  A budget can therefore turn
"unknown" into a known, exact answer but never the reverse.  At caps where
nothing is unknown the bytes are those of `compute_record` on every record,
whatever the worker count; when a budget leaves answers unknown, which of
them become known can depend on the items a worker ran before.
`triangle_hash` depends on the labelling and the other fields are cheap, so
they stay per record.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from functools import cache
from multiprocessing import Pool

from .automorphisms import (
    AutomorphismMap,
    enumerate_automorphisms,
    enumerate_involutory_automorphisms,
    is_prime,
)
from .canon import automorphism_group, canonical_form
from .caps import Caps, caps_from_env
from .catalog import builtin_descriptors
from .cayley import detect_cayley, stability_check
from .construct import (
    GCSpec,
    build_gc_graph,
    enumerate_connection_sets,
    kernel_subgroup,
)
from .errors import BudgetExceeded, ManifestMismatch
from .graphs import Graph, triangle_profile
from .groups import FiniteGroup, make_group
from .perms import Perm


@dataclass(frozen=True)
class RunConfig:
    max_order: int = 8
    out_path: str = "census.jsonl"
    jobs: int = 1
    caps: Caps | None = None
    groups: tuple[str, ...] | None = None   # descriptor filter

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("worker count must be >= 1")
        if self.max_order < 1:
            raise ValueError("max order must be >= 1")


def compute_record(spec: GCSpec, alpha_index: int, caps: Caps) -> dict:
    x, record = _labelled_fields(spec, alpha_index)
    record["fingerprint"] = _fingerprint(x, caps)
    record.update(_verdicts(x, caps))
    return record


def _labelled_fields(spec: GCSpec, alpha_index: int) -> tuple[Graph, dict]:
    """The graph and the fields computed for every record."""
    g = spec.group
    x = build_gc_graph(spec)
    kernel = kernel_subgroup(spec)
    record: dict = {
        "group": g.name,
        "alpha_index": alpha_index,
        "alpha": list(spec.alpha.perm),
        "set_ids": list(spec.set_ids()),
        "order": g.order,
        "degree": _degree(x),
        "connected": x.is_connected(),
        "bipartite": x.is_bipartite(),
        "unworthy": len(kernel) > 1,
        "kernel_size": len(kernel),
    }
    profile = ",".join(map(str, triangle_profile(x)))
    record["triangle_hash"] = hashlib.sha256(profile.encode("ascii")).hexdigest()[:16]
    return x, record


def _fingerprint(x: Graph, caps: Caps) -> str | None:
    try:
        return canonical_form(x, caps.aut_node_budget).fingerprint.decode("ascii")
    except BudgetExceeded:
        return None


def _verdicts(x: Graph, caps: Caps) -> dict:
    """vertex_transitive, cayley and stability of x."""
    out: dict = {}
    try:
        desc = automorphism_group(x, caps.aut_node_budget)
        out["vertex_transitive"] = len(desc.orbits) <= 1
    except BudgetExceeded:
        out["vertex_transitive"] = "unknown"
    out["cayley"] = detect_cayley(x, caps).status
    try:
        out["stability"] = stability_check(x, caps.aut_node_budget).status
    except BudgetExceeded:
        out["stability"] = "unknown"
    return out


def _degree(x: Graph) -> int | list[int]:
    """The common vertex degree, or the sorted degree set of an irregular graph
    (which refuting_records then flags)."""
    degrees = sorted(set(x.degrees()))
    return degrees[0] if len(degrees) == 1 else degrees


def _item_key(name: str, alpha_index: int) -> str:
    return f"{name}|{alpha_index}"


# (fingerprint, caps) -> fully known verdicts, shared across work items
_VERDICTS: dict[tuple[str, Caps], dict] = {}


@cache
def _automorphism_perms(g: FiniteGroup) -> tuple[Perm, ...]:
    return tuple(phi.perm for phi in enumerate_automorphisms(g))


def _centralizer(g: FiniteGroup, alpha: AutomorphismMap) -> list[Perm]:
    """C(alpha): the automorphisms of g that commute with alpha."""
    a = alpha.perm
    return [p for p in _automorphism_perms(g) if all(p[a[x]] == a[p[x]] for x in range(g.order))]


def _invariant_fields(x: Graph, caps: Caps) -> tuple[dict, bool]:
    """fingerprint and verdicts of x, through the verdict memo, and whether
    every one is known."""
    fingerprint = _fingerprint(x, caps)
    key = (fingerprint, caps)
    verdicts = _VERDICTS.get(key) if fingerprint is not None else None
    if verdicts is None:
        verdicts = _verdicts(x, caps)
    known = fingerprint is not None and "unknown" not in verdicts.values()
    if known:
        _VERDICTS.setdefault(key, verdicts)
    return {"fingerprint": fingerprint, **verdicts}, known


def _work(args: tuple[str, int, Caps]) -> tuple[str, list[dict]]:
    name, alpha_index, caps = args
    g = make_group(name, caps)
    alpha = enumerate_involutory_automorphisms(g)[alpha_index]
    centralizer = _centralizer(g, alpha)
    shared: dict[int, dict] = {}   # set mask -> known fields of its C(alpha)-orbit
    records = []
    for spec in enumerate_connection_sets(g, alpha, caps=caps):
        x, record = _labelled_fields(spec, alpha_index)
        fields = shared.get(spec.connection.mask)
        if fields is None:
            fields, known = _invariant_fields(x, caps)
            if known:
                s_ids = spec.set_ids()
                for p in centralizer:
                    shared[sum(1 << p[s] for s in s_ids)] = fields
        record.update(fields)
        records.append(record)
    return _item_key(name, alpha_index), records


MANIFEST_SCHEMA = 1


def _manifest(groups: list[str], max_order: int, caps: Caps) -> dict:
    # max_order before groups: the catalog's groups follow from it
    fields = {"schema": MANIFEST_SCHEMA, "max_order": max_order, "groups": groups}
    fields.update({f"caps.{k}": v for k, v in asdict(caps).items()})
    return fields


def _check_manifest(path: str, want: dict, out_path: str) -> None:
    """Raise ManifestMismatch naming the first field where the manifest at
    path differs from this run's, or saying that there is none."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            have = json.load(fh)
    except FileNotFoundError:
        raise ManifestMismatch(
            f"census {out_path} has no manifest {path}; the configuration that wrote it is unknown"
        ) from None
    for field, value in want.items():
        if have.get(field) != value:
            raise ManifestMismatch(
                f"census {out_path} was written with {field} = {have.get(field)!r}, "
                f"this run has {value!r}; use another --out or remove the old files"
            )


def _record_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _sort_key(record: dict):
    return (record["group"], record["alpha_index"], tuple(record["set_ids"]))


def run_census(config: RunConfig) -> list[dict]:
    caps = config.caps or caps_from_env()
    _VERDICTS.clear()   # a run never depends on what ran before it
    names = config.groups or tuple(builtin_descriptors(config.max_order))
    items: list[tuple[str, int, Caps]] = []
    resolved: list[str] = []
    for name in names:
        g = make_group(name, caps)
        resolved.append(g.name)
        for idx in range(len(enumerate_involutory_automorphisms(g))):
            items.append((name, idx, caps))

    journal_path = config.out_path + ".journal"
    part_path = config.out_path + ".part"
    manifest_path = config.out_path + ".manifest.json"
    manifest = _manifest(resolved, config.max_order, caps)
    done: set[str] = set()
    records: list[dict] = []
    resuming = os.path.exists(journal_path)
    if resuming or os.path.exists(config.out_path):
        _check_manifest(manifest_path, manifest, config.out_path)
    else:
        with open(manifest_path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    if not resuming and os.path.exists(config.out_path):
        with open(config.out_path, "r", encoding="ascii") as fh:
            return [json.loads(line) for line in fh if line.strip()]
    if resuming:
        with open(journal_path, "r", encoding="ascii") as fh:
            done = {line.strip() for line in fh if line.strip()}
        if os.path.exists(part_path):
            with open(part_path, "r", encoding="ascii") as fh:
                for line in fh:
                    if not line.strip():
                        continue
                    rec = json.loads(line)
                    if _item_key(rec["group"], rec["alpha_index"]) in done:
                        records.append(rec)

    pending = [it for it in items if _item_key(it[0], it[1]) not in done]
    with open(part_path, "a", encoding="ascii") as part, \
            open(journal_path, "a", encoding="ascii") as journal:
        def consume(key: str, recs: list[dict]) -> None:
            for rec in recs:
                part.write(_record_line(rec) + "\n")
            part.flush()
            journal.write(key + "\n")
            journal.flush()
            records.extend(recs)

        workers = min(config.jobs, os.cpu_count() or 1, len(pending))
        if workers <= 1:
            for it in pending:
                key, recs = _work(it)
                consume(key, recs)
        else:
            with Pool(workers) as pool:
                for key, recs in pool.imap(_work, pending, chunksize=1):
                    consume(key, recs)

    records.sort(key=_sort_key)
    with open(config.out_path, "w", encoding="ascii") as out:
        for rec in records:
            out.write(_record_line(rec) + "\n")
    os.remove(part_path)
    os.remove(journal_path)
    return records


def refuting_records(records: list[dict]) -> list[tuple[dict, str]]:
    """Cross-check each census record against the theory it samples.

    Returns (record, reason) pairs; an empty list certifies consistency."""
    bad = []
    for rec in records:
        if rec["unworthy"] != (rec["kernel_size"] > 1):
            bad.append((rec, "unworthiness flag disagrees with kernel size"))
        if rec["degree"] != len(rec["set_ids"]):
            bad.append((rec, "graph is not |S|-regular"))
        if rec["cayley"] == "cayley" and rec["vertex_transitive"] is False:
            bad.append((rec, "a Cayley graph must be vertex-transitive"))
        if rec["cayley"] == "not_cayley" and _order_is_2p(rec["order"]):
            bad.append((rec, "order-2p graphs are always Cayley"))
        applicable = rec["connected"] and not rec["bipartite"]
        if (rec["stability"] == "not_applicable") == applicable:
            bad.append((rec, "stability applicability disagrees with shape"))
        if rec["stability"] == "stable" and rec["cayley"] == "not_cayley":
            bad.append((rec, "a stable instance must be a Cayley graph"))
    return bad


def _order_is_2p(order: int) -> bool:
    return order % 2 == 0 and is_prime(order // 2)
