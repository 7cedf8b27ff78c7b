"""Digests of the outputs that refactors must keep byte-identical.

    python3 scripts/output_digest.py [--max-order N]

Prints the sha256 and record count of a one-job census to --max-order
(default 11, written to a temporary directory), then, for every theorem id,
the sha256 and exit status of `gcg --format json verify <id>`.  Run it on
two checkouts and diff the two outputs.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from gcg.census import RunConfig, run_census  # noqa: E402
from gcg.theorems import THEOREM_IDS  # noqa: E402


def census_digest(max_order: int) -> tuple[str, int]:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "census.jsonl")
        records = run_census(RunConfig(max_order=max_order, out_path=out, jobs=1))
        with open(out, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest(), len(records)


def verify_digest(theorem_id: str) -> tuple[str, int]:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "gcg", "--format", "json", "verify", theorem_id],
        env=env, capture_output=True, check=False,
    )
    return hashlib.sha256(proc.stdout).hexdigest(), proc.returncode


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-order", type=int, default=11)
    args = ap.parse_args()
    digest, count = census_digest(args.max_order)
    print(f"census --max-order {args.max_order}  {digest}  {count} records")
    for tid in THEOREM_IDS:
        digest, status = verify_digest(tid)
        print(f"verify {tid:<9}  {digest}  exit {status}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
