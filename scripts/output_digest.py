"""Digests of the outputs that refactors must keep byte-identical.

    python3 scripts/output_digest.py [--max-order N]

Prints the sha256 and record count of a one-job census to --max-order
(default 11, written to a temporary directory), of the same census at two
pool workers, and of one-job censuses to order 7 at an automorphism-search
budget of 8 nodes, to order 9 at a budget of 10 nodes and to order 12 at a
regular-subgroup search budget of 3 nodes, where some answers stay unknown
(so a change in how records are shared shows on the pool path and under
either budget; the order-9 line has moved under a change to orbit sharing
that left the order-7 line as it was).  The tight lines stay at one job:
under a budget, which answers a worker's verdict memo turns known depends
on the groups it ran before, so at two workers the bytes can change from
run to run.  Then the sha256 and record
count of the --max-order census killed in its 11th group (a patched
`gcg.census._work` raises there) and then resumed, at one job and at two
pool workers, which must equal the uninterrupted census's.  Then the
sha256 of the `stability_check` answers (status, |Aut|, |Aut(cover)|,
reason) of every connected non-bipartite census graph to order 10, in
census order, so a change in the double-cover search shows, and of the
answers (status, reason) that the twisted-translation two-fold
automorphism certifies, with no search, on those whose alpha is not the
identity, so a change in that route shows.  Then the
sha256 of the `detect_cayley` answers (status, reason, |Aut|, connection
ids, orbit witness) and of the `canonical_form` answers (fingerprint,
labelling) of every distinct census graph to order 10, in census order, so
a change in Cayley detection or in the canonical leaf shows.  Then the
sha256 of the search trees on those graphs: base, generators, canonical
labelling and nodes charged of the one walk that `automorphism_group` and
`canonical_form` share, and base, generators, labelling and nodes charged
of the seeded double-cover search, each at the default automorphism-search
budget (or the budget error it raises), so a change in any search tree
shows even where the answers stay the same.  Then the
sha256 of the `enumerate_automorphisms` and
`enumerate_involutory_automorphisms` perm lists of every catalog group, in
order, so a change in the Aut(G) enumeration or in the alpha indices shows,
and of the `enumerate_involutory_automorphisms` perm lists of three
order-32 groups outside the catalog (Z4xZ4xZ2, D16xZ2, Z2xZ2xZ2xZ4), whose
generators reach each other's images.
Then the sha256 of the `decompose_odd_abelian` coordinates (`pair_of`) for
every alpha of every odd abelian catalog group, and of the
`decompose_cyclic_sylow` answers (n, a, z, coords) for every alpha of every
even abelian catalog group with at most one involution, so a change in the
coordinates shows; no verifier report carries them.
Then, for every theorem id, the sha256 and exit status of
`gcg --format json verify <id>`, then of fourteen verifier runs with flags
(each flag a verifier reads: --max-order, --p, --m/--n, --k, --group,
--groups; two of them thm-3.5 on Z48 and Z64, whose 2^24 and 2^32 sets
lie past the catalog and past the bit cap on set enumeration, one
thm-4.3 --p 11, whose D22|alpha#0 holds 2^16 sets, more than the default
sweep budget, one thm-3.1 on product presentations, whose even factor sits
first, last or beside an odd part, prop-5.1 to order 16, whose unworthiness
sweep runs out of its budget part-way through orders 13-16, and cor-5.4 to
order 16),
and the exit status of five runs that must be refused: a flag the verifier
does not read, a --max-order that leaves nothing to check, an empty
--group and --groups, and a group listed twice.  Then the exit status of
the command lines the front end must refuse: an unknown --format, graph6
or dot outside export, --canonical with a format other than graph6, and a
`group list --max-order` below 1.  Then the sha256 and exit status of
`gcg census --groups Z4,Z5` and of a `census --groups Z4 --max-order 8`,
which must be refused, each run in a fresh temporary working directory so
that stdout names no temporary path.  Then the sha256 and exit status of
`gcg --format json build` and `analyze` on a fixed list of specs, one of
them invalid and one given with its ids unsorted and repeated, and of an
`analyze` under a negative --caps-aut, which must be refused.  Then `build` and `analyze` on a D6 spec at an
automorphism-search budget of 9 nodes, which the double-cover search
exhausts: `build` must exit 3, and `analyze` exit 0 with its stability
`unknown`.  Then the
sha256 of `gcg --format json group list`, of `gcg --format dot export` for a
D8 and a Z2xZ4 spec (their vertex labels are the groups' element names),
and of each sweeping verifier's reports at a sweep budget of 5 checks,
where most sweeps stop part-way.  A check is one budget unit: a connection
set, a (spec, phi) pair, or one connection-orbit layer of the verifiers that
certify layers instead of single sets (prop-2.5, thm-3.1, thm-3.5, lemma-4.2,
thm-4.3), whose j layers certify the first 2^j sets.  Those five and
prop-5.1, whose sets are built from the same layers, are also run at
budgets of 1 and 40, so a change in how they count layers or sets shows
here.  Every gcg run is a fresh interpreter.  Run it on two checkouts and
diff the two outputs.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from gcg.automorphisms import (  # noqa: E402
    decompose_cyclic_sylow,
    decompose_odd_abelian,
    enumerate_automorphisms,
    enumerate_involutory_automorphisms,
)
from gcg.caps import caps_from_env  # noqa: E402
from gcg.catalog import builtin_descriptors  # noqa: E402
from gcg import canon  # noqa: E402
from gcg.canon import canonical_form  # noqa: E402
from gcg.cayley import detect_cayley, stability_check, twisted_translation  # noqa: E402
import gcg.census  # noqa: E402
from gcg.census import RunConfig, run_census  # noqa: E402
from gcg.construct import build_gc_graph, enumerate_connection_sets  # noqa: E402
from gcg.errors import BudgetExceeded  # noqa: E402
from gcg.graphs import bipartite_double_cover  # noqa: E402
from gcg.groups import make_group  # noqa: E402
from gcg.theorems import THEOREM_IDS  # noqa: E402

EXPORTS = (("D8", "2", "1,3"), ("Z2xZ4", "3", "1,3"))
FLAGGED_VERIFY = (
    ("thm-4.3", "--p", "7"),
    ("thm-4.3", "--p", "11"),
    ("thm-3.1", "--groups", "Z4,Z12"),
    ("ex-3.2", "--m", "2", "--n", "3"),
    ("ex-3.3", "--k", "3"),
    ("thm-3.5", "--group", "Z2xZ2xZ3"),
    ("thm-3.5", "--group", "Z48"),
    ("thm-3.5", "--group", "Z64"),
    ("lemma-4.1", "--p", "7"),
    ("lemma-4.2", "--p", "7"),
    ("prop-5.1", "--max-order", "8"),
    ("thm-3.1", "--groups", "Z2xZ3,Z3xZ4,Z3xZ6,Z3xZ8,Z4xZ5"),
    ("prop-5.1", "--max-order", "16"),
    ("cor-5.4", "--max-order", "16"),
)
REFUSED_VERIFY = (
    ("lemma-3.4", "--max-order", "8"),
    ("prop-2.2", "--max-order", "0"),
    ("thm-3.5", "--group", ""),
    ("thm-3.1", "--groups", ""),
    ("thm-3.1", "--groups", "Z4,Z4"),
)
REFUSED_RUNS = (
    ("--format", "xml", "analyze", "--group", "Z4", "--alpha", "1", "--set", "1,3"),
    ("--format", "graph6", "verify", "lemma-4.1", "--p", "3"),
    ("--format", "dot", "analyze", "--group", "Z4", "--alpha", "1", "--set", "1,3"),
    ("--format", "json", "export", "--canonical", "--group", "D8", "--alpha", "2", "--set", "1,3"),
    ("--format", "dot", "export", "--canonical", "--group", "D8", "--alpha", "2", "--set", "1,3"),
    ("group", "list", "--max-order", "0"),
    ("group", "list", "--max-order", "-1"),
)
CENSUS_RUNS = (
    ("census", "--groups", "Z4,Z5", "--out", "c.jsonl"),
    ("census", "--groups", "Z4", "--max-order", "8", "--out", "c.jsonl"),   # refused
)
SPECS = (("Z4", "1", "3,1,1"), ("Z4", "1", "2"), ("Z6", "1", "1,3,5"), ("D8", "2", "1,3"))
# a spec whose double-cover search runs out of an automorphism-search budget of 9 nodes
TIGHT_SPEC = ("D6", "0", "1,2,3,4")
TIGHT_SPEC_BUDGET = 9
SWEEPING_IDS = ("prop-2.1", "prop-2.5", "thm-3.1", "thm-3.5", "lemma-4.2", "thm-4.3", "prop-5.1")
# run at every budget of BUDGET_LADDER, the other sweeping ids at SMALL_BUDGET only
LADDER_IDS = ("prop-2.5", "thm-3.1", "thm-3.5", "lemma-4.2", "thm-4.3", "prop-5.1")
SMALL_BUDGET = 5
# (max order, Caps field, value), each run at one job
TIGHT_CENSUSES = ((7, "aut_node_budget", 8), (9, "aut_node_budget", 10), (12, "regular_search_budget", 3))
KILLED_GROUP = 10   # index of the group in which the resumed census is killed
STABILITY_ORDER = 10
BUDGET_LADDER = (1, SMALL_BUDGET, 40)
ORDER_32_GROUPS = ("Z4xZ4xZ2", "D16xZ2", "Z2xZ2xZ2xZ4")
# Prints a verifier's reports the way `gcg --format json verify` does, under
# the default caps with a sweep budget of argv[2] instances.
BUDGET_RUN = """
import json, sys
from dataclasses import replace
from gcg.caps import caps_from_env
from gcg.theorems import run_theorem
reports = run_theorem(sys.argv[1], {}, replace(caps_from_env(), sweep_instance_budget=int(sys.argv[2])))
for r in sorted(reports, key=lambda r: (r.theorem_id, r.instance)):
    print(json.dumps(r.to_json(), sort_keys=True))
"""


def census_digest(max_order: int, jobs: int = 1, **caps_fields: int) -> tuple[str, int]:
    caps = replace(caps_from_env(), **caps_fields)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "census.jsonl")
        records = run_census(RunConfig(max_order=max_order, out_path=out, jobs=jobs, caps=caps))
        with open(out, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest(), len(records)


class Killed(Exception):
    """Stands for the interruption of a census run."""


_WORK = gcg.census._work
_kill_at: str | None = None   # read by pool workers, which fork after it is set


def _killed_work(args):
    if args[0] == _kill_at:
        raise Killed(args[0])
    return _WORK(args)


def resumed_census_digest(max_order: int, jobs: int) -> tuple[str, int]:
    """census_digest of a census killed in its KILLED_GROUP-th group and then resumed."""
    global _kill_at
    _kill_at = builtin_descriptors(max_order)[KILLED_GROUP]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "census.jsonl")
        config = RunConfig(max_order=max_order, out_path=out, jobs=jobs, caps=caps_from_env())
        gcg.census._work = _killed_work
        try:
            run_census(config)
        except Killed:
            pass
        else:
            raise RuntimeError(f"the census was not killed in {_kill_at}")
        finally:
            gcg.census._work = _WORK
        records = run_census(config)
        with open(out, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest(), len(records)


def census_specs(max_order: int):
    """Every census spec to max_order, in census order."""
    caps = caps_from_env()
    for name in builtin_descriptors(max_order):
        g = make_group(name, caps)
        for alpha in enumerate_involutory_automorphisms(g):
            yield from enumerate_connection_sets(g, alpha, caps=caps)


def census_graphs(max_order: int):
    """Every census graph to max_order, in census order."""
    return map(build_gc_graph, census_specs(max_order))


def distinct_census_graphs(max_order: int):
    """The census graphs to max_order, each labelled graph once, in census order."""
    seen = set()
    for x in census_graphs(max_order):
        if (x.n, x.rows) not in seen:
            seen.add((x.n, x.rows))
            yield x


def stability_digest(max_order: int) -> tuple[str, int]:
    caps = caps_from_env()
    digest = hashlib.sha256()
    count = 0
    for x in census_graphs(max_order):
        if x.is_connected() and not x.is_bipartite():
            r = stability_check(x, caps.aut_node_budget)
            digest.update(repr((r.status, r.aut_order, r.cover_aut_order, r.reason)).encode())
            count += 1
    return digest.hexdigest(), count


def two_fold_digest(max_order: int) -> tuple[str, int]:
    caps = caps_from_env()
    digest = hashlib.sha256()
    count = 0
    for spec in census_specs(max_order):
        pair = twisted_translation(spec.group, spec.alpha.perm)
        x = build_gc_graph(spec)
        if pair is not None and x.is_connected() and not x.is_bipartite():
            r = stability_check(x, caps.aut_node_budget, pair)
            digest.update(repr((r.status, r.reason)).encode())
            count += 1
    return digest.hexdigest(), count


def cayley_digest(max_order: int) -> tuple[str, int]:
    caps = caps_from_env()
    digest = hashlib.sha256()
    count = 0
    for x in distinct_census_graphs(max_order):
        v = detect_cayley(x, caps)
        digest.update(repr((v.status, v.reason, v.aut_order, v.connection_ids, v.orbit_witness)).encode())
        count += 1
    return digest.hexdigest(), count


def canonical_digest(max_order: int) -> tuple[str, int]:
    caps = caps_from_env()
    digest = hashlib.sha256()
    count = 0
    for x in distinct_census_graphs(max_order):
        c = canonical_form(x, caps.aut_node_budget)
        digest.update(repr((c.fingerprint, c.labeling)).encode())
        count += 1
    return digest.hexdigest(), count


def search_tree_digest(max_order: int) -> tuple[str, int]:
    budget = caps_from_env().aut_node_budget
    budgets = []

    class Counting(canon._Budget):
        def __init__(self, *args):
            super().__init__(*args)
            budgets.append(self)

    def tree(search, *args):
        """(answer, nodes charged) of one search, or its budget error."""
        budgets.clear()
        try:
            return search(*args), budgets[0].nodes
        except BudgetExceeded as exc:
            return str(exc)

    digest = hashlib.sha256()
    count = 0
    plain = canon._Budget
    canon._Budget = Counting
    try:
        for x in distinct_census_graphs(max_order):
            walk = tree(canon._aut_search, x.rows, x.n, budget)
            trees = [walk]
            if not isinstance(walk, str):
                gens = walk[0][1]
                cover = bipartite_double_cover(x)
                # seeded as `double_cover_automorphism_group` seeds its search
                seeds = canon._cover_seeds(x.n, gens)
                trees.append(tree(canon._aut_search, cover.rows, cover.n, budget,
                                  seeds, "double-cover automorphism search"))
            digest.update(repr((x.rows, trees)).encode())
            count += 1
    finally:
        canon._Budget = plain
    return digest.hexdigest(), count


def automorphism_digest() -> tuple[str, int]:
    caps = caps_from_env()
    digest = hashlib.sha256()
    names = builtin_descriptors()
    for name in names:
        g = make_group(name, caps)
        for autos in (enumerate_automorphisms(g), enumerate_involutory_automorphisms(g)):
            digest.update(repr([a.perm for a in autos]).encode())
    return digest.hexdigest(), len(names)


def involution_digest() -> tuple[str, int]:
    caps = caps_from_env()
    digest = hashlib.sha256()
    count = 0
    for name in ORDER_32_GROUPS:
        autos = enumerate_involutory_automorphisms(make_group(name, caps))
        digest.update(repr([a.perm for a in autos]).encode())
        count += len(autos)
    return digest.hexdigest(), count


def decomposition_digest() -> tuple[str, int]:
    caps = caps_from_env()
    digest = hashlib.sha256()
    count = 0
    for name in builtin_descriptors():
        g = make_group(name, caps)
        if not g.abelian or (g.order % 2 == 0 and sum(o == 2 for o in g.element_orders) > 1):
            continue
        for alpha in enumerate_involutory_automorphisms(g):
            if g.order % 2:
                answer = decompose_odd_abelian(g, alpha).pair_of
            else:
                dec = decompose_cyclic_sylow(g, alpha)
                answer = (dec.n, dec.a, dec.z, dec.coords)
            digest.update(repr((name, answer)).encode())
            count += 1
    return digest.hexdigest(), count


def run_digest(*args: str, cwd: str | None = None) -> tuple[str, int]:
    """sha256 of the stdout of `python -m gcg <args>` (or `python -c`), and its exit status."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, check=False, cwd=cwd)
    return hashlib.sha256(proc.stdout).hexdigest(), proc.returncode


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-order", type=int, default=11)
    args = ap.parse_args()
    digest, count = census_digest(args.max_order)
    print(f"census --max-order {args.max_order}  {digest}  {count} records")
    digest, count = census_digest(args.max_order, jobs=2)
    print(f"census --max-order {args.max_order} --jobs 2  {digest}  {count} records")
    for order, field, value in TIGHT_CENSUSES:
        digest, count = census_digest(order, **{field: value})
        print(f"census --max-order {order} {field}={value}  {digest}  {count} records")
    for jobs in (1, 2):
        digest, count = resumed_census_digest(args.max_order, jobs)
        print(f"census --max-order {args.max_order} --jobs {jobs} killed and resumed  {digest}  {count} records")
    digest, count = stability_digest(STABILITY_ORDER)
    print(f"stability --max-order {STABILITY_ORDER}  {digest}  {count} graphs")
    digest, count = two_fold_digest(STABILITY_ORDER)
    print(f"two-fold stability --max-order {STABILITY_ORDER}  {digest}  {count} graphs")
    digest, count = cayley_digest(STABILITY_ORDER)
    print(f"detect_cayley --max-order {STABILITY_ORDER}  {digest}  {count} graphs")
    digest, count = canonical_digest(STABILITY_ORDER)
    print(f"canonical_form --max-order {STABILITY_ORDER}  {digest}  {count} graphs")
    digest, count = search_tree_digest(STABILITY_ORDER)
    print(f"search trees --max-order {STABILITY_ORDER}  {digest}  {count} graphs")
    digest, count = automorphism_digest()
    print(f"automorphisms  {digest}  {count} groups")
    digest, count = involution_digest()
    print(f"involutory automorphisms of {','.join(ORDER_32_GROUPS)}  {digest}  {count} maps")
    digest, count = decomposition_digest()
    print(f"decompositions  {digest}  {count} (group, alpha) pairs")
    for tid in THEOREM_IDS:
        digest, status = run_digest("-m", "gcg", "--format", "json", "verify", tid)
        print(f"verify {tid:<9}  {digest}  exit {status}")
    for argv in (*FLAGGED_VERIFY, *REFUSED_VERIFY):
        digest, status = run_digest("-m", "gcg", "--format", "json", "verify", *argv)
        print(f"verify {' '.join(arg or repr(arg) for arg in argv)}  {digest}  exit {status}")
    for argv in REFUSED_RUNS:
        digest, status = run_digest("-m", "gcg", *argv)
        print(f"refused {' '.join(argv)}  {digest}  exit {status}")
    for argv in CENSUS_RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            digest, status = run_digest("-m", "gcg", *argv, cwd=tmp)
        print(f"{' '.join(argv)}  {digest}  exit {status}")
    for command in ("build", "analyze"):
        for group, alpha, ids in SPECS:
            digest, status = run_digest(
                "-m", "gcg", "--format", "json", command, "--group", group, "--alpha", alpha, "--set", ids
            )
            print(f"{command} {group} alpha={alpha} S={{{ids}}}  {digest}  exit {status}")
    group, alpha, ids = SPECS[0]
    digest, status = run_digest(
        "-m", "gcg", "--caps-aut", "-1", "--format", "json", "analyze",
        "--group", group, "--alpha", alpha, "--set", ids,
    )
    print(f"analyze --caps-aut -1 {group} alpha={alpha} S={{{ids}}}  {digest}  exit {status}")
    group, alpha, ids = TIGHT_SPEC
    for command in ("build", "analyze"):
        digest, status = run_digest(
            "-m", "gcg", "--caps-aut", str(TIGHT_SPEC_BUDGET), "--format", "json", command,
            "--group", group, "--alpha", alpha, "--set", ids,
        )
        print(f"{command} --caps-aut {TIGHT_SPEC_BUDGET} {group} alpha={alpha} S={{{ids}}}  {digest}  exit {status}")
    digest, status = run_digest("-m", "gcg", "--format", "json", "group", "list")
    print(f"group list  {digest}  exit {status}")
    for group, alpha, ids in EXPORTS:
        digest, status = run_digest(
            "-m", "gcg", "--format", "dot", "export", "--group", group, "--alpha", alpha, "--set", ids
        )
        print(f"export dot {group} alpha={alpha} S={{{ids}}}  {digest}  exit {status}")
    for tid in SWEEPING_IDS:
        for budget in BUDGET_LADDER if tid in LADDER_IDS else (SMALL_BUDGET,):
            digest, status = run_digest("-c", BUDGET_RUN, tid, str(budget))
            print(f"verify {tid:<9} budget {budget}  {digest}  exit {status}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
