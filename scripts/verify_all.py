#!/usr/bin/env python3
"""Run every theorem verifier at its default desk-scale parameters.

Prints one line per theorem with verdict counts and timing, then a totals
line.  Exit code 0 when everything verified, 1 on a usage error (an
unknown theorem id among them), 2 on any refutation, 3 when any sweep was
budget-skipped.
"""
from __future__ import annotations

import sys
import time
from collections import Counter

from gcg.caps import caps_from_env
from gcg.cli import UsageParser
from gcg.errors import DescriptorError
from gcg.theorems import THEOREM_IDS, run_theorem


def main() -> int:
    parser = UsageParser(description=__doc__)
    parser.add_argument(
        "theorems", nargs="*", default=list(THEOREM_IDS),
        help="theorem ids to run (default: all)",
    )
    args = parser.parse_args()
    unknown = [tid for tid in args.theorems if tid not in THEOREM_IDS]
    if unknown:
        parser.error(f"unknown theorem id {unknown[0]!r} (choose from {', '.join(THEOREM_IDS)})")
    try:
        caps = caps_from_env()
    except DescriptorError as exc:
        parser.error(str(exc))

    totals: Counter[str] = Counter()
    started = time.perf_counter()
    for tid in args.theorems:
        t0 = time.perf_counter()
        reports = run_theorem(tid, {}, caps)
        dt = time.perf_counter() - t0
        verdicts = Counter(r.verdict for r in reports)
        totals.update(verdicts)
        summary = ", ".join(f"{k}={v}" for k, v in sorted(verdicts.items()))
        print(f"{tid:>10}  {len(reports):>4} reports  {summary}  ({dt:.2f}s)")
        for r in reports:
            if r.verdict == "refuted":
                print(f"            REFUTED {r.instance}: {r.certificate}")
    elapsed = time.perf_counter() - started
    print(f"{'total':>10}  {sum(totals.values()):>4} reports  "
          + ", ".join(f"{k}={v}" for k, v in sorted(totals.items()))
          + f"  ({elapsed:.2f}s)")
    if totals.get("refuted"):
        return 2
    if totals.get("skipped"):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
