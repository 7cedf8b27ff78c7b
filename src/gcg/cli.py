"""Command-line front end.

Exit codes: 0 success, 1 usage error (also a census --out written under
another configuration, or an --out that cannot be written), 2 invalid spec
(or a refuted verification instance, or a census record that refutes the
theory it samples), 3 budget or cap exhausted (or a budget-skipped
verification instance).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from functools import partial

from .automorphisms import enumerate_involutory_automorphisms
from .canon import automorphism_group, canonical_form
from .caps import Caps, caps_from_env, with_overrides
from .cayley import detect_cayley, stability_check, twisted_translation
from .census import RunConfig, compute_record, refuting_records, run_census, spec_fields
from .construct import (
    build_gc_graph,
    enumerate_connection_sets,
    make_spec,
    validate_connection_set,
)
from .errors import (
    BudgetExceeded,
    CapExceeded,
    DescriptorError,
    ManifestMismatch,
    ShapeError,
    SpecError,
)
from .catalog import builtin_descriptors
from .formats import graph_to_dict, to_dot, to_graph6
from .groups import bits, make_group, mask_of
from .theorems import THEOREM_IDS, run_theorem

USAGE_EXIT = 1
SPEC_EXIT = 2
BUDGET_EXIT = 3


class UsageParser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with USAGE_EXIT."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _int_at_least(text: str, least: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
    return value


def positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _build_parser() -> UsageParser:
    parser = UsageParser(prog="gcg", description="generalized Cayley graph toolkit")
    parser.add_argument("--caps-aut", type=nonnegative_int, default=None, metavar="N",
                        help="override the automorphism search node budget")
    parser.add_argument("--caps-bits", type=nonnegative_int, default=None, metavar="N",
                        help="override the connection-set enumeration bit budget")
    parser.add_argument("--jobs", type=positive_int, default=1, metavar="N",
                        help="worker count for the census (at most the CPU count "
                             "and the number of pending work items)")
    parser.add_argument("--format", choices=("text", "json", "graph6", "dot"), default=None,
                        help="output format (text or json; export: graph6, dot, json)")
    sub = parser.add_subparsers(dest="command", required=True)

    group = sub.add_parser("group", help="catalog inspection")
    group_sub = group.add_subparsers(dest="group_command", required=True)
    group_list = group_sub.add_parser("list", help="list builtin group descriptors")
    group_list.add_argument("--max-order", type=positive_int, default=None)

    build = sub.add_parser("build", help="build and validate one spec")
    _spec_flags(build)

    enum = sub.add_parser("enumerate", help="enumerate valid connection sets")
    enum.add_argument("--group", required=True)
    enum.add_argument("--alpha", type=int, required=True)
    enum.add_argument("--nonempty", action="store_true")
    enum.add_argument("--connected", action="store_true")
    enum.add_argument("--up-to-complement", action="store_true")

    analyze = sub.add_parser("analyze", help="full analysis record for one spec")
    _spec_flags(analyze)

    verify = sub.add_parser("verify", help="run a theorem verifier")
    verify.add_argument("theorem_id", choices=sorted(THEOREM_IDS))
    verify.add_argument("--max-order", type=int, default=None)
    verify.add_argument("--p", type=int, default=None)
    verify.add_argument("--k", type=int, default=None)
    verify.add_argument("--m", type=int, default=None)
    verify.add_argument("--n", type=int, default=None)
    verify.add_argument("--group", default=None)
    verify.add_argument("--groups", default=None, help="comma-separated descriptors")

    census = sub.add_parser("census", help="run the catalog census")
    census.add_argument("--max-order", type=positive_int, default=None,
                        help="census every builtin group up to this order (default 8)")
    census.add_argument("--out", required=True)
    census.add_argument("--groups", default=None, help="comma-separated descriptors")

    export = sub.add_parser("export", help="export one spec's graph")
    _spec_flags(export)
    export.add_argument("--canonical", action="store_true",
                        help="graph6: emit the canonical form instead of the as-built labeling")
    export.add_argument("--out", default=None, help="output file (default stdout)")
    return parser


def _spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--group", required=True, help="group descriptor, e.g. Z4 or Z2xZ6")
    p.add_argument("--alpha", type=int, required=True,
                   help="index into the involutory automorphism enumeration")
    p.add_argument("--set", required=True, dest="set_ids",
                   help="comma-separated element ids (empty string for S={})")


def _parse_ids(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise DescriptorError(f"bad element id list {text!r}") from exc


def _resolve_alpha(args, caps: Caps):
    g = make_group(args.group, caps)
    autos = enumerate_involutory_automorphisms(g)
    if not 0 <= args.alpha < len(autos):
        raise DescriptorError(
            f"alpha index {args.alpha} out of range; {g.name} has {len(autos)} involutory automorphisms"
        )
    return g, autos[args.alpha]


def _resolve_spec(args, caps: Caps):
    g, alpha = _resolve_alpha(args, caps)
    ids = _parse_ids(args.set_ids)
    for x in ids:
        if not 0 <= x < g.order:
            raise SpecError(f"element id {x} out of range for {g.name}")
    return g, alpha, ids


def _caps(args) -> Caps:
    return with_overrides(caps_from_env(), aut=args.caps_aut, bits=args.caps_bits)


def _emit(payload: dict, fmt: str | None) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def cmd_group_list(args, caps: Caps) -> int:
    rows = []
    for name in builtin_descriptors(args.max_order):
        g = make_group(name, caps)
        rows.append({"group": g.name, "order": g.order, "abelian": g.abelian})
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True))
    else:
        for row in rows:
            kind = "abelian" if row["abelian"] else "non-abelian"
            print(f"{row['group']:>14}  order {row['order']:>2}  {kind}")
    return 0


def cmd_build(args, caps: Caps) -> int:
    g, alpha, ids = _resolve_spec(args, caps)
    mask = mask_of(ids)
    report = validate_connection_set(g, alpha, mask)
    payload = {
        "group": g.name,
        "order": g.order,
        "alpha_index": args.alpha,
        "alpha": list(alpha.perm),
        "set_ids": list(bits(mask)),   # sorted and distinct, as analyze and the census print them
        "cond_i": report.cond_i,
        "cond_ii": report.cond_ii,
        "cond_iii": report.cond_iii,
    }
    if not report.ok:
        if report.witness_ii is not None:
            payload["witness_ii"] = report.witness_ii
        if report.witness_iii is not None:
            payload["witness_iii"] = report.witness_iii
        payload["valid"] = False
        _emit(payload, args.format)
        return SPEC_EXIT
    spec = make_spec(g, alpha, mask)
    x = build_gc_graph(spec)
    kernel, fields = spec_fields(spec, args.alpha, x)
    payload.update(fields, valid=True, vertices=x.n, edges=x.edge_count(), kernel=list(kernel.members()))
    desc = automorphism_group(x, caps.aut_node_budget)
    payload["aut_order"] = desc.order
    payload["vertex_transitive"] = len(desc.orbits) <= 1
    cayley = detect_cayley(x, caps)
    if cayley.status == "unknown":   # only a budget leaves a built graph's verdict unknown
        raise BudgetExceeded(cayley.reason)
    payload["cayley"] = cayley.status
    payload["stability"] = stability_check(x, caps.aut_node_budget, twisted_translation(g, alpha.perm)).status
    _emit(payload, args.format)
    return 0


def cmd_enumerate(args, caps: Caps) -> int:
    g, alpha = _resolve_alpha(args, caps)
    sets = [
        list(spec.set_ids())
        for spec in enumerate_connection_sets(
            g, alpha,
            nonempty_only=args.nonempty,
            connected_only=args.connected,
            up_to_complement=args.up_to_complement,
            caps=caps,
        )
    ]
    if args.format == "json":
        print(json.dumps({"group": g.name, "alpha_index": args.alpha, "sets": sets}))
    else:
        for ids in sets:
            print(",".join(map(str, ids)) if ids else "")
    return 0


def cmd_analyze(args, caps: Caps) -> int:
    g, alpha, ids = _resolve_spec(args, caps)
    spec = make_spec(g, alpha, ids)
    record = compute_record(spec, args.alpha, caps)
    indent = None if args.format == "json" else 2
    print(json.dumps(record, sort_keys=True, indent=indent))
    return 0


def cmd_verify(args, caps: Caps) -> int:
    params: dict = {}
    if args.max_order is not None:
        params["max_order"] = args.max_order
    for key in ("p", "k", "m", "n"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    if args.group is not None:
        params["group"] = args.group
    if args.groups is not None:
        params["groups"] = args.groups.split(",")
    reports = run_theorem(args.theorem_id, params, caps)
    for report in sorted(reports, key=lambda r: (r.theorem_id, r.instance)):
        print(json.dumps(report.to_json(), sort_keys=True))
    verdicts = {r.verdict for r in reports}
    if "refuted" in verdicts:
        return SPEC_EXIT
    if "skipped" in verdicts:
        return BUDGET_EXIT
    return 0


def cmd_census(args, caps: Caps) -> int:
    groups = tuple(args.groups.split(",")) if args.groups is not None else None
    config = RunConfig(
        max_order=args.max_order or 8,
        out_path=args.out,
        jobs=args.jobs,
        caps=caps,
        groups=groups,
    )
    started = time.perf_counter()
    records = run_census(config)
    print(f"{len(records)} records -> {args.out}")
    _census_summary(records, time.perf_counter() - started)
    bad = refuting_records(records)
    for rec, why in bad[:10]:
        print(f"REFUTING {rec['group']} alpha#{rec['alpha_index']} S={rec['set_ids']}: {why}",
              file=sys.stderr)
    if bad:
        return SPEC_EXIT
    print("cross-checks: clean", file=sys.stderr)
    return 0


def _census_summary(records: list[dict], elapsed: float) -> None:
    """Print the census totals to stderr: time, isomorphism classes, records
    per group and how many records carry each notable verdict."""
    err = partial(print, file=sys.stderr)
    err(f"elapsed {elapsed:.1f}s")
    fingerprints = Counter(r["fingerprint"] for r in records)
    missing = fingerprints.pop(None, 0)
    err(f"{len(fingerprints)} isomorphism classes (distinct fingerprints)"
        + (f", {missing} records without a fingerprint" if missing else ""))
    per_group = Counter(r["group"] for r in records)
    for name, count in sorted(per_group.items(), key=lambda kv: (-kv[1], kv[0])):
        err(f"  {name:>14}  {count:>5} records")
    err(f"not vertex-transitive: {sum(r['vertex_transitive'] is False for r in records)}")
    err(f"not Cayley: {sum(r['cayley'] == 'not_cayley' for r in records)}")
    err(f"unworthy: {sum(r['unworthy'] for r in records)}")
    err(f"unstable: {sum(r['stability'] == 'unstable' for r in records)}")


def cmd_export(args, caps: Caps) -> int:
    g, alpha, ids = _resolve_spec(args, caps)
    spec = make_spec(g, alpha, ids)
    x = build_gc_graph(spec)
    fmt = args.format or "graph6"
    if fmt == "graph6":
        if args.canonical:
            text = canonical_form(x, caps.aut_node_budget).fingerprint.decode("ascii")
        else:
            text = to_graph6(x)
    elif fmt == "dot":
        labels = [g.names[v] for v in range(g.order)]
        text = to_dot(x, name=g.name.replace("x", "_"), labels=labels)
    elif fmt == "json":
        text = json.dumps(graph_to_dict(x), sort_keys=True)
    else:
        raise DescriptorError(f"unknown export format {fmt!r}")
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.format in ("graph6", "dot") and args.command != "export":
        parser.error(f"--format {args.format} applies to export only")
    if args.command == "export" and args.canonical and args.format not in (None, "graph6"):
        parser.error("--canonical applies to --format graph6 only")
    if args.command == "census" and args.groups is not None and args.max_order is not None:
        parser.error("--max-order applies to a census without --groups only")
    try:
        caps = _caps(args)
        if args.command == "group":
            return cmd_group_list(args, caps)
        if args.command == "build":
            return cmd_build(args, caps)
        if args.command == "enumerate":
            return cmd_enumerate(args, caps)
        if args.command == "analyze":
            return cmd_analyze(args, caps)
        if args.command == "verify":
            return cmd_verify(args, caps)
        if args.command == "census":
            return cmd_census(args, caps)
        if args.command == "export":
            return cmd_export(args, caps)
        parser.error(f"unknown command {args.command!r}")
    except SpecError as exc:
        print(f"gcg: invalid spec: {exc}", file=sys.stderr)
        return SPEC_EXIT
    except (CapExceeded, BudgetExceeded) as exc:
        print(f"gcg: budget exhausted: {exc}", file=sys.stderr)
        return BUDGET_EXIT
    except (DescriptorError, ShapeError, ManifestMismatch, OSError) as exc:
        print(f"gcg: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    return USAGE_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
