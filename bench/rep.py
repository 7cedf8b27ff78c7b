"""One repetition of one benchmark workload, in a fresh interpreter.

`run.py` starts this once per repetition, because gcg keeps caches that
would otherwise turn a second repetition into cache hits (`lru_cache` in
canon, module-level dicts in theorems).  The repetition imports gcg from
`src/`, builds the workload's inputs (timed as set-up), runs the timed
operations, checks every output against the goldens in `goldens/`, and
writes one JSON result to `<outdir>/result.json`.

    python3 bench/rep.py --workload census --seed 1 --trace 0 --outdir DIR

`--setup-only` stops after set-up.  Untraced repetitions report their
times at the host-speed probe's reference speed (see probe.py), with the
measured times beside them as raw_setup_s and raw_wall_s.
"""
import time

T_START = time.perf_counter()

from probe import HostProbe  # noqa: E402

# Set-up is timed from T_START, so the probe starts before the imports.
HOST = HostProbe()
HOST.start()

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
GOLDENS = os.path.join(BENCH, "goldens")

CENSUS_MAX_ORDER = 11
CENSUS_JOBS = {"census": 1, "census-par": 2}
# The analyze client sends a fixed pool of specs, drawn once from this seed
# and committed with a golden record each.  A fresh draw per seed would not
# be steady: a tenth of the specs (vertex-transitive graphs with large
# automorphism groups) take three quarters of the time.  --seed sets the
# order the client sends the pool in.
ANALYZE_ORDERS = (13, 24)
ANALYZE_POOL_SEED = 7
ANALYZE_POOL_SIZE = 75
VERDICT_FIELDS = ("vertex_transitive", "cayley", "stability")
MAIN_PID = os.getpid()

_now = time.perf_counter


def record_failed(rec: dict) -> bool:
    return rec["fingerprint"] is None or any(rec[f] == "unknown" for f in VERDICT_FIELDS)


def _load_golden(workload: str) -> dict:
    name = "census" if workload in CENSUS_JOBS else workload
    with open(os.path.join(GOLDENS, name + ".json"), "r", encoding="ascii") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# census and census-par: run_census over the builtin catalog


def setup_census(gcg, caps, seed: int) -> dict:
    """The work items run_census will build, and the record count they
    must yield: one record per valid connection set of each (group, alpha).
    The census has no randomness; the seed is unused."""
    expected = 0
    for name in gcg.catalog.builtin_descriptors(CENSUS_MAX_ORDER):
        g = gcg.groups.make_group(name, caps)
        for alpha in gcg.automorphisms.enumerate_involutory_automorphisms(g):
            expected += 2 ** len(gcg.construct.connection_orbits(g, alpha))
    return {"expected_records": expected}


def _time_work_items(gcg, outdir: str, tracer):
    """Time each census work item where run_census calls it (also inside
    forked pool workers), appending (key, start, end) to a per-process file.
    A traced worker hands its spans over at the same point."""
    original = gcg.census._work

    def timed(args):
        t0 = _now()
        key, recs = original(args)
        t1 = _now()
        with open(os.path.join(outdir, f"items-{os.getpid()}.tsv"), "a", encoding="ascii") as fh:
            fh.write(f"{key}\t{t0!r}\t{t1!r}\n")
        if tracer is not None and os.getpid() != MAIN_PID:
            tracer.flush(os.path.join(outdir, f"spans-{os.getpid()}.jsonl"))
        return key, recs

    timed.__module__, timed.__qualname__ = original.__module__, original.__qualname__
    gcg.census._work = timed   # the pool pickles it by this name


def run_census(gcg, caps, inputs: dict, workload: str, outdir: str, tracer) -> dict:
    out_path = os.path.join(outdir, "census.jsonl")
    _time_work_items(gcg, outdir, tracer)
    config = gcg.census.RunConfig(
        max_order=CENSUS_MAX_ORDER, out_path=out_path, jobs=CENSUS_JOBS[workload], caps=caps,
    )
    problems: list[str] = []
    t0 = _now()
    try:
        records = gcg.census.run_census(config)
    except Exception as exc:   # reported as a failed run, with the reason
        records, problems = None, [f"run_census raised {type(exc).__name__}: {exc}"]
    t1 = _now()

    items = []
    for path in glob.glob(os.path.join(outdir, "items-*.tsv")):
        with open(path, "r", encoding="ascii") as fh:
            items += [float(b) - float(a) for _k, a, b in (line.split("\t") for line in fh)]
    attempted = inputs["expected_records"]
    if records is None:
        return {"t0": t0, "t1": t1, "ops": items, "results": 0, "attempted": attempted,
                "failed": attempted, "problems": problems}

    with open(out_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    failed = sum(1 for r in records if record_failed(r))
    golden = _load_golden(workload)
    if len(records) != golden["records"] or len(records) != attempted:
        problems.append(f"{len(records)} records; golden {golden['records']}, expected {attempted}")
    if digest != golden["sha256"]:
        problems.append(f"census output sha256 {digest} differs from golden {golden['sha256']}")
    for rec, reason in gcg.census.refuting_records(records)[:5]:
        problems.append(f"refuted {rec['group']}|{rec['alpha_index']}|{rec['set_ids']}: {reason}")
    return {"t0": t0, "t1": t1, "ops": items, "results": len(records), "attempted": len(records),
            "failed": failed, "problems": problems}


# ---------------------------------------------------------------------------
# analyze: one closed-loop client sending make_spec + compute_record queries


def setup_analyze(gcg, caps, seed: int) -> dict:
    lo, hi = ANALYZE_ORDERS
    names = [
        n for n in gcg.catalog.builtin_descriptors(hi)
        if gcg.groups.descriptor_order(gcg.groups.parse_descriptor(n)) >= lo
    ]
    groups = {n: gcg.groups.make_group(n, caps) for n in names}
    maps = {n: gcg.automorphisms.enumerate_involutory_automorphisms(g) for n, g in groups.items()}
    # Uniform over the group, then over its involutory automorphisms, then
    # over the orbit-inclusion masks (each valid connection set once).
    rng = random.Random(ANALYZE_POOL_SEED)
    pool = []
    for _ in range(ANALYZE_POOL_SIZE):
        name = rng.choice(names)
        idx = rng.randrange(len(maps[name]))
        orbits = gcg.construct.connection_orbits(groups[name], maps[name][idx])
        mask = rng.getrandbits(len(orbits))
        ids = tuple(sorted(s for j, orbit in enumerate(orbits) if mask >> j & 1 for s in orbit))
        pool.append((name, idx, ids))
    random.Random(seed).shuffle(pool)
    return {"queries": [(groups[n], maps[n][i], i, ids) for n, i, ids in pool]}


def _query_key(group_name: str, alpha_index: int, ids) -> str:
    return f"{group_name}|{alpha_index}|{','.join(map(str, ids))}"


def run_analyze(gcg, caps, inputs: dict, workload: str, outdir: str, tracer) -> dict:
    latencies, answers = [], []
    t0 = _now()
    for g, alpha, idx, ids in inputs["queries"]:
        q0 = _now()
        try:
            spec = gcg.construct.make_spec(g, alpha, ids)
            answers.append(gcg.census.compute_record(spec, idx, caps))
        except Exception as exc:   # a failed query, counted and reported
            answers.append(f"{type(exc).__name__}: {exc}")
        latencies.append(_now() - q0)
    t1 = _now()

    keys = [_query_key(g.name, idx, ids) for g, _a, idx, ids in inputs["queries"]]
    golden = _load_golden(workload)["records"]
    problems, failed = [], 0
    for key, rec in zip(keys, answers):
        if not isinstance(rec, dict):
            failed += 1
            problems.append(f"{key}: raised {rec}")
            continue
        failed += record_failed(rec)
        problems += _analyze_mismatches(gcg, key, rec, golden.get(key))
    return {"t0": t0, "t1": t1, "ops": latencies, "results": len(answers),
            "attempted": len(answers), "failed": failed, "problems": problems}


def _analyze_mismatches(gcg, key: str, rec: dict, gold: dict | None) -> list[str]:
    """Every field must equal the golden, except that a field the golden has
    as unknown or null may become known when the record stays consistent."""
    if gold is None:
        return [f"{key}: no golden record"]
    refuted = [reason for _r, reason in gcg.census.refuting_records([rec])]
    out = [f"{key}: refuted: {reason}" for reason in refuted]
    for field in sorted(set(gold) | set(rec)):
        have, want = rec.get(field, "<missing>"), gold.get(field, "<missing>")
        if have == want or (want in ("unknown", None) and not refuted):
            continue
        out.append(f"{key}: {field} is {have!r}, golden {want!r}")
    return out


# ---------------------------------------------------------------------------
# verify: all verifiers at default parameters, in THEOREM_IDS order


def setup_verify(gcg, caps, seed: int) -> dict:
    return {"ids": list(gcg.theorems.THEOREM_IDS)}


def _report_digest(reports) -> str:
    lines = sorted(f"{r.instance}\t{r.verdict}" for r in reports)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def run_verify(gcg, caps, inputs: dict, workload: str, outdir: str, tracer) -> dict:
    latencies, outcome = [], {}
    t0 = _now()
    for tid in inputs["ids"]:
        q0 = _now()
        try:
            outcome[tid] = gcg.theorems.run_theorem(tid, None, caps)
        except Exception as exc:   # a failed verifier, counted and reported
            outcome[tid] = f"{type(exc).__name__}: {exc}"
        latencies.append(_now() - q0)
    t1 = _now()

    summary = {
        tid: {"reports": len(reps), "sha256": _report_digest(reps)}
        for tid, reps in outcome.items() if not isinstance(reps, str)
    }
    golden = _load_golden(workload)
    problems, attempted, failed = [], 0, 0
    for tid in inputs["ids"]:
        reps = outcome[tid]
        if isinstance(reps, str):
            want = golden.get(tid, {}).get("reports", 1)
            attempted, failed = attempted + want, failed + want
            problems.append(f"{tid}: raised {reps}")
            continue
        attempted += len(reps)
        failed += sum(1 for r in reps if r.verdict != "verified")
        problems += [f"{tid} {r.instance}: refuted" for r in reps if r.verdict == "refuted"]
        if summary[tid] != golden.get(tid):
            problems.append(f"{tid}: (instance, verdict) list {summary[tid]} differs from golden {golden.get(tid)}")
    results = sum(len(r) for r in outcome.values() if not isinstance(r, str))
    return {"t0": t0, "t1": t1, "ops": latencies, "results": results,
            "attempted": attempted, "failed": failed, "problems": problems}


WORKLOADS = {
    "census": (setup_census, run_census),
    "census-par": (setup_census, run_census),
    "analyze": (setup_analyze, run_analyze),
    "verify": (setup_verify, run_verify),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import gcg
    if not os.path.abspath(gcg.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported gcg from {gcg.__file__}, not from {src}")
    tracer = None
    if args.trace:
        HOST.stop()   # spans time the program alone
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    caps = gcg.caps.Caps()   # the default ("desk") profile, whatever the environment says
    setup, run = WORKLOADS[args.workload]
    inputs = setup(gcg, caps, args.seed)
    setup_end = _now()

    result: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    result["raw_setup_s"] = setup_end - T_START
    result["setup_s"] = result["raw_setup_s"] if args.trace else HOST.scaled(T_START, setup_end)
    if not args.setup_only:
        out = run(gcg, caps, inputs, args.workload, args.outdir, tracer)
        t0, t1 = out.pop("t0"), out.pop("t1")
        result["raw_wall_s"] = t1 - t0
        result["wall_s"] = result["raw_wall_s"] if args.trace else HOST.scaled(t0, t1)
        result["host_speed"] = 1.0 if args.trace else HOST.speed(t0, t1)
        result.update(out)
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["rss_mb"] = self_kb / 1024
        result["worker_rss_mb"] = child_kb / 1024
        if tracer is not None:
            from tracer import layer_metrics, read_spans, wrapper_cost
            tracer.flush(os.path.join(args.outdir, f"spans-{os.getpid()}.jsonl"))
            spans = read_spans(sorted(glob.glob(os.path.join(args.outdir, "spans-*.jsonl"))))
            layers = layer_metrics(spans)
            # Summed over processes, so for census-par it is CPU time
            # across workers rather than added wall time.
            layers["trace_overhead_s"] = len(spans) * wrapper_cost()
            items = out["ops"] if args.workload in CENSUS_JOBS else []
            layers["census.item_longest_s"] = max(items, default=0.0)
            layers["census.item_sum_s"] = sum(items, 0.0)
            result["layers"] = layers
    HOST.stop()
    with open(os.path.join(args.outdir, "result.json"), "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
