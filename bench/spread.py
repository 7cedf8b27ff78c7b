"""Run-to-run spread of the benchmark, and the recorded baseline.

    python3 bench/spread.py --seeds 1-10
    python3 bench/spread.py --workloads analyze verify --seeds 1-5
    python3 bench/spread.py --seeds 1-10 --baseline

Runs `run.py` once per (seed, workload), rotating the workload order from
seed to seed, at BENCHMARK.json's run_seconds.  For each end-to-end metric
it prints the median, the quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median, marked `!` when the spread is above a third of
the metric's bound.  --baseline also
makes one traced run per workload and writes both to bench/baseline.json.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
from run import WORKLOADS, machine_info  # noqa: E402


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {"correct": False}
    if not result["correct"]:
        print(f"{workload} seed {seed} trace {trace}: NOT CORRECT\n{proc.stderr[-3000:]}", file=sys.stderr)
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description="benchmark spread over seeds")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                    help="default: the workloads of BENCHMARK.json")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    args.workloads = args.workloads or [w["name"] for w in spec["workloads"]]

    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for k, seed in enumerate(args.seeds):
        shift = k % len(args.workloads)
        for w in args.workloads[shift:] + args.workloads[:shift]:
            runs[w].append(bench_once(spec, w, seed, 0))
            print(f"{w} seed {seed} done", file=sys.stderr, flush=True)

    table: dict[str, dict] = {}
    all_correct = True
    for w in args.workloads:
        all_correct &= all(r["correct"] for r in runs[w])
        ok = [r for r in runs[w] if r["correct"]]
        table[w] = {}
        for m in spec["end_to_end"]:
            if not ok:
                continue
            s = summarize([r["metrics"][m["name"]]["value"] for r in ok])
            table[w][m["name"]] = s
            flag = "!" if s["spread"] > m["bound"] / 3 else " "
            print(f"{w:<11} {m['name']:<14} median {s['median']:>12.5f} q1 {s['q1']:>12.5f} "
                  f"q3 {s['q3']:>12.5f} spread {s['spread']:.4f}{flag} bound {m['bound']} {m['unit']}")
            print(" " * 12 + " ".join(f"{v:.5g}" for v in s["values"]))

    if args.baseline:
        traced = {w: bench_once(spec, w, args.seeds[0], 1) for w in args.workloads}
        all_correct &= all(r["correct"] for r in traced.values())
        baseline = {
            "machine": machine_info(),
            "run_seconds": spec["run_seconds"],
            "seeds": args.seeds,
            "end_to_end": table,
            "per_layer": {w: {k: v["value"] for k, v in r.get("metrics", {}).items()} for w, r in traced.items()},
        }
        with open(os.path.join(BENCH, "baseline.json"), "w", encoding="ascii") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
