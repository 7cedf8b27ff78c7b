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
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from multiprocessing import Pool

from .automorphisms import enumerate_involutory_automorphisms, is_prime
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
from .groups import make_group


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
    try:
        record["fingerprint"] = canonical_form(x, caps.aut_node_budget).fingerprint.decode("ascii")
    except BudgetExceeded:
        record["fingerprint"] = None
    try:
        desc = automorphism_group(x, caps.aut_node_budget)
        record["vertex_transitive"] = len(desc.orbits) <= 1
    except BudgetExceeded:
        record["vertex_transitive"] = "unknown"
    record["cayley"] = detect_cayley(x, caps).status
    try:
        record["stability"] = stability_check(x, caps.aut_node_budget).status
    except BudgetExceeded:
        record["stability"] = "unknown"
    return record


def _degree(x: Graph) -> int | list[int]:
    """The common vertex degree, or the sorted degree set of an irregular graph
    (which refuting_records then flags)."""
    degrees = sorted(set(x.degrees()))
    return degrees[0] if len(degrees) == 1 else degrees


def _item_key(name: str, alpha_index: int) -> str:
    return f"{name}|{alpha_index}"


def _work(args: tuple[str, int, Caps]) -> tuple[str, list[dict]]:
    name, alpha_index, caps = args
    g = make_group(name, caps)
    alpha = enumerate_involutory_automorphisms(g)[alpha_index]
    records = []
    for spec in enumerate_connection_sets(g, alpha, caps=caps):
        records.append(compute_record(spec, alpha_index, caps))
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
