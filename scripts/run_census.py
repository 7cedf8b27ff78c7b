#!/usr/bin/env python3
"""Census driver with a summary table.

Sweeps every builtin group up to --max-order, one JSON line per
(group, alpha, connection set), then prints aggregate statistics (the
number of isomorphism classes among them) and cross-checks the records for
internal contradictions.  An interrupted run resumes from the finished
groups' block files in `<out>.parts`.  Exit status: 0 clean, 1 usage error,
2 a refuting record, 3 a cap or budget exhausted.
"""
from __future__ import annotations

import sys
import time
from collections import Counter

from gcg.caps import caps_from_env
from gcg.census import RunConfig, refuting_records, run_census
from gcg.cli import UsageParser, positive_int
from gcg.errors import BudgetExceeded, CapExceeded, DescriptorError, ManifestMismatch


def main() -> int:
    parser = UsageParser(description=__doc__)
    parser.add_argument("--max-order", type=positive_int, default=8)
    parser.add_argument("--jobs", type=positive_int, default=1)
    parser.add_argument("--out", default="census.jsonl")
    parser.add_argument("--groups", default=None,
                        help="comma-separated descriptor filter")
    args = parser.parse_args()

    config = RunConfig(
        max_order=args.max_order,
        out_path=args.out,
        jobs=args.jobs,
        caps=caps_from_env(),
        groups=tuple(args.groups.split(",")) if args.groups is not None else None,
    )
    started = time.perf_counter()
    try:
        records = run_census(config)
    except (DescriptorError, ManifestMismatch) as exc:
        print(f"run_census: {exc}", file=sys.stderr)
        return 1
    except (CapExceeded, BudgetExceeded) as exc:
        print(f"run_census: budget exhausted: {exc}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - started

    per_group = Counter(r["group"] for r in records)
    print(f"{len(records)} records in {elapsed:.1f}s -> {args.out}")
    fingerprints = Counter(r["fingerprint"] for r in records)
    missing = fingerprints.pop(None, 0)
    print(f"  {len(fingerprints)} isomorphism classes (distinct fingerprints)"
          + (f", {missing} records without a fingerprint" if missing else ""))
    for name, count in sorted(per_group.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  {name:>14}  {count:>5} records")
    flags = Counter()
    for r in records:
        if r["vertex_transitive"] is False:
            flags["not vertex-transitive"] += 1
        if r["cayley"] == "not_cayley":
            flags["not Cayley"] += 1
        if r["unworthy"]:
            flags["unworthy"] += 1
        if r["stability"] == "unstable":
            flags["unstable"] += 1
    for label, count in sorted(flags.items()):
        print(f"  {label}: {count}")

    bad = refuting_records(records)
    if bad:
        for rec, why in bad[:10]:
            print(f"REFUTING {rec['group']} alpha#{rec['alpha_index']} "
                  f"S={rec['set_ids']}: {why}", file=sys.stderr)
        return 2
    print("  cross-checks: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
