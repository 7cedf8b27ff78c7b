"""The gcg benchmark: census, census-par, analyze and verify workloads.

    python3 bench/run.py --workload census --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload verify --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --seconds 25       # every BENCHMARK.json workload

Workloads (each repetition runs in a fresh interpreter, see rep.py):
  census      run_census over the builtin catalog to order 11, one process.
  verify      all 18 verifiers at default parameters, THEOREM_IDS order.
  analyze     one closed-loop client sending a fixed pool of 75 specs of
              order 13-24 through make_spec + compute_record, in --seed order.
  census-par  census at two pool workers; byte-identical output.
census, analyze and verify are in BENCHMARK.json.  census-par (the Pool
path) is not: its two pool workers are not probed for host speed (see
probe.py) and compete with the probed parent for the host's two vCPUs,
and it did not fit the time budget beside the others.  Run it by name.

With --trace 0, repetitions run until one more would overshoot --seconds
of measured time by more than stopping undershoots it, then SETUPS
set-up-only interpreters run (a set-up takes about 0.15 s, so one run
needs many samples).  Every end-to-end metric of BENCHMARK.json is
printed (the median over repetitions; setup_s over all set-ups), with
notes on failures, the latency of one operation (p50 and tail over the
pooled operations) and pool workers.  wall_s, setup_s and results_per_s are
given at the reference host speed of probe.py, because this host's speed
swings by up to 1.8x between runs; the raw times and the measured host
speed are printed as notes.
With --trace 1, two traced repetitions run; every per-layer metric is
printed from the first, and the exact counts of the two must agree.
trace_overhead_s is the tracer's own estimate of its cost (see
tracer.wrapper_cost).  Outputs are checked against goldens/ in every
repetition.  The last line of stdout is one JSON object:
correct, attempted, failed and metrics.  Files go to bench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("census", "census-par", "analyze", "verify")
SETUPS = 20             # set-up-only interpreters per workload in an untraced run
RUN_DEADLINE_S = 170    # a one-workload run must end within 180 s
EXACT_COUNT_SUFFIXES = (".calls", ".elements", ".maps", ".reports", ".raised",
                        ".cayley", ".not_cayley", ".unknown", "repeat_share")
RESULT_NAMES = {"census": "records", "census-par": "records", "analyze": "queries", "verify": "reports"}
OP_NAMES = {"census": "work item", "census-par": "work item", "analyze": "query", "verify": "verifier"}


def machine_info() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": platform.processor() or platform.machine(),
        "commit": _git_commit(),
    }
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        if models:
            info["cpu"] = models[0]
    except OSError:
        pass
    return info


def _git_commit() -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), "r", encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_rep(workload: str, seed: int, trace: int, outdir: str, deadline: float, setup_only: bool = False) -> dict:
    """One repetition in a fresh interpreter; a crash or timeout becomes a
    result with a problem, never an exception."""
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    cmd = [sys.executable, os.path.join(BENCH, "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--outdir", outdir]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the repetition and its pool workers
        proc.communicate()
        return {"problems": [f"{workload} repetition passed the run deadline"]}
    path = os.path.join(outdir, "result.json")
    if proc.returncode != 0 or not os.path.exists(path):
        return {"problems": [f"{workload} repetition exited {proc.returncode}: {err.strip()[-2000:]}"]}
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    if len(xs) < 11:
        return None
    return 100.0 * (len(xs) - 10) / len(xs), xs[-11]


def end_to_end(workload: str, reps: list[dict], setups: list[dict]) -> tuple[dict, list[str]]:
    ok = [r for r in reps if "wall_s" in r]
    walls = [r["wall_s"] for r in ok]
    attempted = sum(r["attempted"] for r in ok)
    failed = sum(r["failed"] for r in ok)
    ops = [x for r in ok for x in r["ops"]]
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": statistics.median(max(r["rss_mb"], r["worker_rss_mb"]) for r in ok),
        "ok_share": 1 - failed / attempted if attempted else 0.0,
        "results_per_s": statistics.median(r["results"] / r["wall_s"] for r in ok),
    }
    notes = [
        f"{len(ok)} repetition(s), {len(setups)} set-ups; {RESULT_NAMES[workload]}_per_s = results_per_s",
        f"measured: raw_wall_s {statistics.median(r['raw_wall_s'] for r in ok):.4f}, "
        f"raw_setup_s {statistics.median(s['raw_setup_s'] for s in setups):.4f}, "
        f"host_speed {statistics.median(r['host_speed'] for r in ok):.4f}",
        f"failed_share {failed / attempted if attempted else 1.0:.6f} ({failed} of {attempted})",
        f"op = one {OP_NAMES[workload]}, raw time; {len(ops)} op samples; op_p50_ms {1000 * statistics.median(ops):.4f}",
    ]
    t = tail(ops)
    notes.append(f"op_tail_ms {1000 * t[1]:.4f} at p{t[0]:.1f}" if t else "op_tail_ms n/a (fewer than 11 ops)")
    notes.append("largest pool worker peak_rss_mb "
                 + ", ".join(f"{r['worker_rss_mb']:.1f}" for r in ok))
    return values, notes


def per_layer(reps: list[dict]) -> tuple[dict, list[str]]:
    traced = [r for r in reps if "layers" in r]
    if len(traced) < 2:
        return {}, ["traced repetitions missing"]
    first, second = traced[0]["layers"], traced[1]["layers"]
    values = dict(first)
    problems = []
    for key in sorted(set(first) | set(second)):
        if key.endswith(EXACT_COUNT_SUFFIXES) and first.get(key) != second.get(key):
            problems.append(f"count {key} differs between traced repetitions: {first.get(key)} vs {second.get(key)}")
    return values, problems


def measure(workloads: list[str], seed: int, seconds: float, trace: int) -> dict:
    """Interleave repetitions across workloads, rotating their order each round."""
    deadline = time.monotonic() + RUN_DEADLINE_S * len(workloads)
    reps: dict[str, list[dict]] = {w: [] for w in workloads}
    setups: dict[str, list[dict]] = {w: [] for w in workloads}

    def wants_more(w: str) -> bool:
        done = reps[w]
        if any(r.get("problems") for r in done):
            return False
        if trace:
            return len(done) < 2
        # Stop once one more repetition would overshoot --seconds by more
        # than stopping undershoots it.
        walls = [r["raw_wall_s"] for r in done]
        return not walls or sum(walls) + statistics.mean(walls) / 2 < seconds

    rnd = 0
    while True:
        order = workloads[rnd % len(workloads):] + workloads[:rnd % len(workloads)]
        pending = [w for w in order if wants_more(w)]
        if not pending:
            break
        for w in pending:
            outdir = os.path.join(OUT, f"{w}-trace{trace}", f"rep{len(reps[w])}")
            reps[w].append(run_rep(w, seed, trace, outdir, deadline))
        rnd += 1
    if not trace:
        for w in workloads:
            setups[w] = [r for r in reps[w] if "setup_s" in r]
            for _ in range(SETUPS):
                r = run_rep(w, seed, 0, os.path.join(OUT, f"{w}-trace0", "setup"), deadline, setup_only=True)
                if "setup_s" in r:
                    setups[w].append(r)
                else:
                    reps[w].append(r)
    return {"reps": reps, "setups": setups}


def main() -> int:
    ap = argparse.ArgumentParser(description="gcg benchmark")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "gcg", "__init__.py")):
        print(f"gcg sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]

    print("machine " + json.dumps(machine_info(), sort_keys=True), flush=True)
    run = measure(workloads, args.seed, args.seconds, args.trace)
    problems, metrics = [], {}
    attempted = failed = 0
    for w in workloads:
        reps = run["reps"][w]
        for r in reps:
            problems += r.get("problems", [])
            attempted += r.get("attempted", 0)
            failed += r.get("failed", 0)
        if not any("wall_s" in r for r in reps):
            continue
        if args.trace:
            values, trace_problems = per_layer(reps)
            problems += trace_problems
            notes = []
        else:
            values, notes = end_to_end(w, reps, run["setups"][w])
        for m in wanted:
            value = values.get(m["name"], 0.0)
            key = m["name"] if len(workloads) == 1 else f"{w}.{m['name']}"
            metrics[key] = {"value": value, "unit": m["unit"]}
            print(f"{w:<11} {m['name']:<58} {value:>14.6f} {m['unit']}")
        for note in notes:
            print(f"{w:<11} # {note}")
    for p in problems[:50]:
        print("PROBLEM " + p, file=sys.stderr)
    correct = not problems and len(metrics) == len(wanted) * len(workloads)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
