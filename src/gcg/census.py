"""Exhaustive census of generalized Cayley graphs over the builtin catalog.

One JSON line per (group, alpha, connection set).  A work item is one group,
keyed by its name; it expands to one record per valid set of every
involutory alpha of the group, computed one Aut(G)-conjugacy class of alpha
at a time.  Each finished item is sorted by (group, alpha_index, set_ids)
and written to `<out>.parts/<group>.jsonl.tmp`, which is then renamed to
`<out>.parts/<group>.jsonl`; a block file is therefore whole or absent, and
an interrupted census resumes by running the groups without one.  The final
file is the block files copied in group-name order, each record serialized
once, so worker count and scheduling cannot leak into the output bytes;
`<out>.parts` is then removed.  A manifest sidecar `<out>.manifest.json`
records what the bytes depend on (schema version, resolved group names and
caps; not the max order, which only chooses the groups, nor the worker
count); a manifest, an output or a `.parts` directory already there is
reused only when the manifest matches the run.

Expensive verdicts degrade to "unknown" (or a null fingerprint) when a
budget cap is hit; records are never dropped.

Transport (Prop 2.1).  Let psi be an automorphism of G, alpha an involutory
automorphism and alpha' = psi alpha psi^-1.  Then alpha'(psi(x)^-1)psi(y) =
psi(alpha(x^-1)) psi(y) = psi(alpha(x^-1)y), so alpha(x^-1)y lies in S iff
alpha'(psi(x)^-1)psi(y) lies in psi(S).  Hence psi(S) is a valid set for
alpha' exactly when S is one for alpha, and x -> psi(x) is an isomorphism
GC(G, S, alpha) -> GC(G, psi(S), alpha').  A record of GC(G, psi(S), alpha')
therefore follows from one of GC(G, S, alpha) without building its graph:
- `degree`, `connected`, `bipartite`, `fingerprint`, `vertex_transitive`,
  `cayley` and `stability` are isomorphism invariants and are copied;
- the kernel K(S) = {x : alpha(x)S = S} satisfies K(psi(S)) = psi(K(S)),
  because alpha'(psi(x))psi(S) = psi(alpha(x)S); so `kernel_size` and
  `unworthy` are copied;
- the triangle profile (triangles through each vertex) depends on the
  labelling: that of GC(G, psi(S), alpha') is the profile of GC(G, S, alpha)
  with vertex x renamed psi(x), t'[psi(x)] = t[x], and `triangle_hash` is
  the hash of that renamed profile.
Within one alpha, psi ranges over the centralizer C(alpha) (then alpha' =
alpha): the sets come with their rows from `connection_rows`, the first set
of each C(alpha)-orbit in enumeration order is computed in full on the graph
of those rows, and every later set phi(S) of the orbit is transported from
it.  This is done for the class representative only; every other
member alpha_j receives each representative record through one fixed psi_j
with psi_j alpha_rep psi_j^-1 = alpha_j.  `compute_record` is the direct,
untransported computation.

A record whose alpha is not the identity passes `twisted_translation(G,
alpha)` to `stability_check`: that two-fold automorphism certifies every
connected non-bipartite GC(G, S, alpha) unstable with no search and no
budget (the lemma is in `stability_check`), so only alpha = id graphs run
the double-cover search.

Only fully known invariant answers are shared.  All records of one
C(alpha_rep)-orbit, across the whole class, are isomorphic graphs, and the
orbit's records are made together: the representative's sets in
enumeration order, then each other member's images, member by member.  In
that order they copy the orbit's invariant fields once some record has them
all known, and until then each computes them on its own graph.  Across
orbits and work items, the verdicts of a graph are looked up by its
fingerprint, the graph6 of the canonically relabelled graph, so equal
fingerprints mean isomorphic graphs; a null fingerprint or an "unknown"
verdict is never stored.  A budget can therefore turn "unknown" into a
known, exact answer but never the reverse.  At caps where nothing is
unknown the bytes are those of `compute_record` on every record, whatever
the worker count; when a budget leaves answers unknown, which of them
become known can depend on the items a worker ran before.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass
from functools import cache
from multiprocessing import Pool
from typing import NamedTuple

from .automorphisms import (
    AutomorphismMap,
    enumerate_automorphisms,
    enumerate_involutory_automorphisms,
    is_prime,
)
from .canon import automorphism_group, canonical_form
from .caps import Caps, caps_from_env
from .catalog import builtin_descriptors
from .cayley import detect_cayley, stability_check, twisted_translation
from .construct import (
    GCSpec,
    build_gc_graph,
    capped_connection_orbits,
    connection_rows,
    kernel_subgroup,
    make_spec,
)
from .errors import BudgetExceeded, DescriptorError, ManifestMismatch
from .graphs import Graph, triangle_profile
from .groups import FiniteGroup, SubgroupHandle, make_group
from .perms import Perm, identity_perm


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
        if self.groups is not None and not self.groups:
            raise ValueError("the group filter names no group")


def compute_record(spec: GCSpec, alpha_index: int, caps: Caps) -> dict:
    x = build_gc_graph(spec)
    record, _ = _labelled_fields(spec, alpha_index, x)
    record["fingerprint"] = _fingerprint(x, caps)
    record.update(_verdicts(x, caps, twisted_translation(spec.group, spec.alpha.perm)))
    return record


def spec_fields(spec: GCSpec, alpha_index: int, x: Graph) -> tuple[SubgroupHandle, dict]:
    """The kernel, and the fields that every census record and `gcg build`
    print, for x the graph of spec.  `unworthy` is read off x (two vertices
    with one neighbourhood) and `kernel_size` off `kernel_subgroup`, so
    `refuting_records` compares the two (Prop 5.1, Cor 5.2)."""
    g = spec.group
    kernel = kernel_subgroup(spec)
    fields: dict = {
        "group": g.name,
        "alpha_index": alpha_index,
        "alpha": list(spec.alpha.perm),
        "set_ids": list(spec.set_ids()),
        "order": g.order,
        "degree": _degree(x),
        "connected": x.is_connected(),
        "bipartite": x.is_bipartite(),
        "unworthy": len(set(x.rows)) < x.n,
        "kernel_size": len(kernel),
    }
    return kernel, fields


def _labelled_fields(spec: GCSpec, alpha_index: int, x: Graph) -> tuple[dict, tuple[int, ...]]:
    """The fields computed for every record, and the triangle profile behind
    `triangle_hash`, for x the graph of spec."""
    _, record = spec_fields(spec, alpha_index, x)
    profile = triangle_profile(x)
    record["triangle_hash"] = _profile_hash(profile)
    return record, profile


def _profile_hash(profile) -> str:
    return hashlib.sha256(",".join(map(str, profile)).encode("ascii")).hexdigest()[:16]


def _fingerprint(x: Graph, caps: Caps) -> str | None:
    try:
        return canonical_form(x, caps.aut_node_budget).fingerprint.decode("ascii")
    except BudgetExceeded:
        return None


def _verdicts(x: Graph, caps: Caps, two_fold: tuple[Perm, Perm] | None) -> dict:
    """vertex_transitive, cayley and stability of x; two_fold is passed to
    `stability_check`."""
    out: dict = {}
    try:
        desc = automorphism_group(x, caps.aut_node_budget)
        out["vertex_transitive"] = len(desc.orbits) <= 1
    except BudgetExceeded:
        out["vertex_transitive"] = "unknown"
    out["cayley"] = detect_cayley(x, caps).status
    try:
        out["stability"] = stability_check(x, caps.aut_node_budget, two_fold).status
    except BudgetExceeded:
        out["stability"] = "unknown"
    return out


def _degree(x: Graph) -> int | list[int]:
    """The common vertex degree, or the sorted degree set of an irregular graph
    (which refuting_records then flags)."""
    degrees = sorted(set(x.degrees()))
    return degrees[0] if len(degrees) == 1 else degrees


# (fingerprint, caps) -> fully known verdicts, shared across work items
_VERDICTS: dict[tuple[str, Caps], dict] = {}


class AlphaClass(NamedTuple):
    """One Aut(G)-conjugacy class of involutory automorphisms."""

    # (j, psi) with psi alpha_rep psi^-1 = alpha_j, ascending in j; the
    # representative, the lowest index, comes first with psi = identity
    members: tuple[tuple[int, Perm], ...]
    centralizer: tuple[Perm, ...]   # C(alpha_rep)

    @property
    def rep(self) -> int:
        return self.members[0][0]


@cache
def _alpha_classes(g: FiniteGroup) -> tuple[AlphaClass, ...]:
    """`enumerate_involutory_automorphisms(g)` split into Aut(G)-conjugacy
    classes, in order of their representatives."""
    involutions = enumerate_involutory_automorphisms(g)
    index = {a.perm: j for j, a in enumerate(involutions)}
    automorphisms = [phi.perm for phi in enumerate_automorphisms(g)]
    classes: list[AlphaClass] = []
    assigned: set[int] = set()
    for rep, alpha in enumerate(involutions):
        if rep in assigned:
            continue
        a = alpha.perm
        members: dict[int, Perm] = {rep: identity_perm(g.order)}
        centralizer = []
        for psi in automorphisms:
            conj = [0] * g.order   # psi alpha psi^-1
            for x, y in enumerate(psi):
                conj[y] = psi[a[x]]
            j = index[tuple(conj)]
            members.setdefault(j, psi)
            if j == rep:
                centralizer.append(psi)
        assigned.update(members)
        classes.append(AlphaClass(tuple(sorted(members.items())), tuple(centralizer)))
    return tuple(classes)


def _invariant_fields(x: Graph, caps: Caps, two_fold: tuple[Perm, Perm] | None) -> tuple[dict, bool]:
    """fingerprint and verdicts of x, through the verdict memo, and whether
    every one is known."""
    fingerprint = _fingerprint(x, caps)
    key = (fingerprint, caps)
    verdicts = _VERDICTS.get(key) if fingerprint is not None else None
    if verdicts is None:
        verdicts = _verdicts(x, caps, two_fold)
    known = fingerprint is not None and "unknown" not in verdicts.values()
    if known:
        _VERDICTS.setdefault(key, verdicts)
    return {"fingerprint": fingerprint, **verdicts}, known


def _transport(record: dict, profile: tuple[int, ...], phi: Perm, alpha: AutomorphismMap,
               alpha_index: int) -> tuple[dict, tuple[int, ...]]:
    """The labelled record and triangle profile of GC(G, phi(S), alpha) from
    those of GC(G, S, alpha'), where phi alpha' phi^-1 = alpha: x -> phi(x) is
    an isomorphism between them."""
    renamed = [0] * len(profile)
    for x, t in enumerate(profile):
        renamed[phi[x]] = t
    return dict(record, alpha_index=alpha_index, alpha=list(alpha.perm),
                set_ids=sorted(phi[s] for s in record["set_ids"]),
                triangle_hash=_profile_hash(renamed)), tuple(renamed)


def _orbit_records(g: FiniteGroup, involutions: tuple[AutomorphismMap, ...], cls: AlphaClass,
                   first: Graph, orbit: list[tuple[dict, tuple[int, ...]]], caps: Caps) -> list[dict]:
    """The records of one C(alpha_rep)-orbit across its class, from the
    representative's labelled records in enumeration order and the graph of
    the first: those, then their psi_j images member by member, each given
    the orbit's invariant fields."""
    records = [record for record, _ in orbit]
    for j, psi in cls.members[1:]:
        records += [_transport(*source, psi, involutions[j], j)[0] for source in orbit]
    shared: dict | None = None   # the invariant fields, once a record has them all known
    for i, record in enumerate(records):
        if shared is not None:
            record.update(shared)
            continue
        alpha = involutions[record["alpha_index"]]
        x = first if i == 0 else build_gc_graph(make_spec(g, alpha, record["set_ids"]))
        fields, known = _invariant_fields(x, caps, twisted_translation(g, alpha.perm))
        record.update(fields)
        if known:
            shared = fields
    return records


def _work(args: tuple[str, Caps]) -> tuple[str, list[dict]]:
    """The group's name and the records of every alpha of the group, one
    C(alpha_rep)-orbit of each Aut(G)-class of alpha at a time."""
    name, caps = args
    g = make_group(name, caps)
    involutions = enumerate_involutory_automorphisms(g)
    records: list[dict] = []
    for cls in _alpha_classes(g):
        alpha = involutions[cls.rep]
        orbits: list[tuple[Graph, list]] = []   # (first set's graph, labelled records) of each C(alpha)-orbit
        pending: dict[int, tuple[list, Perm]] = {}   # later set of an orbit -> (its labelled records, phi)
        for mask, rows in connection_rows(g, alpha, capped_connection_orbits(g, alpha, caps)):
            if mask in pending:
                orbit, phi = pending.pop(mask)
                orbit.append(_transport(*orbit[0], phi, alpha, cls.rep))
                continue
            x = Graph(g.order, rows)
            record, profile = _labelled_fields(make_spec(g, alpha, mask), cls.rep, x)
            orbit = [(record, profile)]
            orbits.append((x, orbit))
            for phi in cls.centralizer:
                image = sum(1 << phi[s] for s in record["set_ids"])
                if image != mask:
                    pending.setdefault(image, (orbit, phi))
        for x, orbit in orbits:
            records += _orbit_records(g, involutions, cls, x, orbit, caps)
    return g.name, records


MANIFEST_SCHEMA = 4


def _manifest(groups: list[str], caps: Caps) -> dict:
    fields = {"schema": MANIFEST_SCHEMA, "groups": groups}
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


def _record_line(record: dict) -> bytes:
    return (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


def _read_records(path: str) -> list[dict]:
    with open(path, "rb") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _sort_key(record: dict):
    return (record["group"], record["alpha_index"], tuple(record["set_ids"]))


def run_census(config: RunConfig) -> list[dict]:
    caps = config.caps or caps_from_env()
    _VERDICTS.clear()   # a run never depends on what ran before it
    names = config.groups if config.groups is not None else tuple(builtin_descriptors(config.max_order))
    resolved: list[str] = []
    for name in names:
        g = make_group(name, caps)
        if g.name in resolved:
            raise DescriptorError(f"census group {g.name} is listed twice")
        resolved.append(g.name)

    parts = config.out_path + ".parts"
    manifest_path = config.out_path + ".manifest.json"
    manifest = _manifest(resolved, caps)
    if any(map(os.path.exists, (manifest_path, config.out_path, parts))):
        _check_manifest(manifest_path, manifest, config.out_path)
    else:
        with open(manifest_path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    if not os.path.exists(parts) and os.path.exists(config.out_path):
        return _read_records(config.out_path)
    os.makedirs(parts, exist_ok=True)

    def block(key: str) -> str:
        return os.path.join(parts, key + ".jsonl")

    blocks: dict[str, list[dict]] = {}   # group -> its sorted records, for groups run here

    def consume(key: str, recs: list[dict]) -> None:
        recs.sort(key=_sort_key)
        with open(block(key) + ".tmp", "wb") as fh:
            fh.writelines(map(_record_line, recs))
        os.replace(block(key) + ".tmp", block(key))   # a block file is whole or absent
        blocks[key] = recs

    pending = [(name, caps) for name, key in zip(names, resolved) if not os.path.exists(block(key))]
    workers = min(config.jobs, os.cpu_count() or 1, len(pending))
    if workers <= 1:
        for it in pending:
            consume(*_work(it))
    else:
        with Pool(workers) as pool:
            for key, recs in pool.imap(_work, pending, chunksize=1):
                consume(key, recs)

    # _sort_key leads with the group name, so the blocks in name order are
    # the sorted output
    records: list[dict] = []
    with open(config.out_path, "wb") as out:
        for key in sorted(resolved):
            with open(block(key), "rb") as fh:
                shutil.copyfileobj(fh, out)
            records += blocks[key] if key in blocks else _read_records(block(key))
    shutil.rmtree(parts)
    return records


def refuting_records(records: list[dict]) -> list[tuple[dict, str]]:
    """Cross-check each census record against the theory it samples.

    A stable record must have alpha = id (index 0) and be worthy: for alpha
    != id the twisted translation of `stability_check` is a two-fold
    automorphism with sigma != tau, and for an unworthy graph so is
    (id, (1 k)) with k != 1 in the kernel (N(1) = N(k), twins).  Either makes
    a connected non-bipartite graph unstable.

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
        if rec["stability"] == "stable" and rec["alpha_index"] != 0:
            bad.append((rec, "a stable instance must have alpha = id"))
        if rec["stability"] == "stable" and rec["unworthy"]:
            bad.append((rec, "a stable instance must be worthy"))
    return bad


def _order_is_2p(order: int) -> bool:
    return order % 2 == 0 and is_prime(order // 2)
