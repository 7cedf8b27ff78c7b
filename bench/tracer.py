"""Span recorder for traced benchmark repetitions.

Spans are recorded from the benchmark's side only: `install` replaces each
traced public function of a gcg module by a timing wrapper, in the module
that defines it and in every gcg module that imported it (so
`gcg.census.detect_cayley` and `gcg.cayley.enumerate_group_elements` are
both timed).  Nothing under `src/` changes.

A span is (id, parent, name, start, end, info).  Ids are (pid, n) so spans
from forked census workers stay distinct; `info` carries the count a layer
metric needs (elements enumerated, a Cayley verdict, a fingerprint, ...).
Spans stay in memory and are written out once, after the timed region;
census workers append theirs after each work item (see `flush`).
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

_now = time.perf_counter

# Traced public functions, by the layer (gcg module) that defines them.
TRACED: dict[str, tuple[str, ...]] = {
    "groups": ("make_group",),
    "automorphisms": ("enumerate_automorphisms", "enumerate_involutory_automorphisms"),
    "construct": ("make_spec", "enumerate_connection_sets", "build_gc_graph", "kernel_subgroup"),
    "graphs": ("triangle_profile", "bipartite_double_cover"),
    "canon": ("automorphism_group", "canonical_form"),
    "perms": ("enumerate_group_elements",),
    "cayley": ("detect_cayley", "stability_check"),
    "census": ("run_census", "compute_record"),
}

# What a span keeps from a call's return value.
_INFO = {
    "automorphisms.enumerate_involutory_automorphisms": len,
    "perms.enumerate_group_elements": lambda r: 0 if r is None else len(r),
    "cayley.detect_cayley": lambda r: r.status,
    "canon.canonical_form": lambda r: r.fingerprint.decode("ascii"),
}


class Tracer:
    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._stack: list[tuple] = []
        self._n = 0

    def _open(self) -> tuple:
        pid = os.getpid()
        if pid != self.pid:
            # First span in a forked worker: the inherited spans belong to
            # the parent.  Open parent spans stay on the stack so worker
            # spans still name the span that caused them.
            self.pid, self.spans = pid, []
        self._n += 1
        sid = (pid, self._n)
        self._stack.append(sid)
        return sid

    def _close(self, sid: tuple, name: str, t0: float, t1: float, info) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, parent, name, t0, t1, info))

    def wrap(self, name: str, fn, info=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open()
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sid, name, t0, _now(), "raised:" + type(exc).__name__)
                raise
            t1 = _now()
            self._close(sid, name, t0, t1, info(result) if info else None)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        # One span per next(): the generator's own work between yields,
        # never the consumer's loop body.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    sid = self._open()
                    t0 = _now()
                    try:
                        item = next(it)
                    except StopIteration:
                        self._close(sid, name, t0, _now(), None)
                        return
                    except BaseException as exc:
                        self._close(sid, name, t0, _now(), "raised:" + type(exc).__name__)
                        raise
                    self._close(sid, name, t0, _now(), None)
                    yield item
            finally:
                it.close()

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever gcg imported it, and every
        theorem runner as `theorems.<id>`."""
        modules = [m for k, m in list(sys.modules.items()) if k == "gcg" or k.startswith("gcg.")]
        for layer, names in TRACED.items():
            home = sys.modules["gcg." + layer]
            for fname in names:
                original = getattr(home, fname)
                span = f"{layer}.{fname}"
                wrapped = self.wrap(span, original, _INFO.get(span))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
        runners = sys.modules["gcg.theorems"].THEOREM_RUNNERS
        for tid, runner in list(runners.items()):
            runners[tid] = self.wrap(f"theorems.{tid}", runner, len)

    def flush(self, path: str) -> None:
        """Append this process's spans to `path` as JSON lines and forget them."""
        if os.getpid() != self.pid:
            return
        with open(path, "a", encoding="ascii") as fh:
            for sid, parent, name, t0, t1, info in self.spans:
                fh.write(json.dumps([list(sid), parent and list(parent), name, t0, t1, info]) + "\n")
        self.spans = []


def wrapper_cost(calls: int = 20_000, rounds: int = 15) -> float:
    """Seconds one traced call costs beyond the call itself: a no-op timed
    through a scratch Tracer's wrapper and bare, in batches of `calls`;
    the median over `rounds` batches of the difference, per call."""
    def noop():
        return None

    scratch = Tracer()
    traced = scratch.wrap("noop", noop)
    costs = []
    for _ in range(rounds):
        scratch.spans = []
        t0 = _now()
        for _ in range(calls):
            noop()
        t1 = _now()
        for _ in range(calls):
            traced()
        t2 = _now()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return sorted(costs)[rounds // 2]


def read_spans(paths: list[str]) -> list[tuple]:
    spans = []
    for path in paths:
        with open(path, "r", encoding="ascii") as fh:
            for line in fh:
                sid, parent, name, t0, t1, info = json.loads(line)
                spans.append((tuple(sid), parent and tuple(parent), name, t0, t1, info))
    return spans


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer totals from one repetition's spans.

    `<name>.s` sums the outermost spans of each name (a nested span of the
    same name is already inside it); `<name>.self_s` subtracts the direct
    child spans of the same process; `<name>.calls` counts calls (for the
    generator `construct.enumerate_connection_sets`, resumptions)."""
    by_id = {s[0]: s for s in spans}
    children_s: dict[tuple, float] = {}
    for sid, parent, _name, t0, t1, _info in spans:
        if parent is not None and parent in by_id and parent[0] == sid[0]:
            children_s[parent] = children_s.get(parent, 0.0) + (t1 - t0)

    def nested_in_same_name(span) -> bool:
        parent = span[1]
        while parent is not None and parent in by_id:
            if by_id[parent][2] == span[2]:
                return True
            parent = by_id[parent][1]
        return False

    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    fingerprints: list[str] = []
    for span in spans:
        sid, _parent, name, t0, t1, info = span
        add(name + ".calls", 1)
        add(name + ".self_s", (t1 - t0) - children_s.get(sid, 0.0))
        if not nested_in_same_name(span):
            add(name + ".s", t1 - t0)
        if isinstance(info, str) and info.startswith("raised:"):
            add(name + ".raised", 1)
        elif name == "cayley.detect_cayley":
            add(f"{name}.{info}", 1)
        elif name == "perms.enumerate_group_elements":
            add(name + ".elements", info)
        elif name == "automorphisms.enumerate_involutory_automorphisms":
            add(name + ".maps", info)
        elif name.startswith("theorems."):
            add(name + ".reports", info)
        elif name == "canon.canonical_form":
            fingerprints.append(info)
    if fingerprints:
        # Order-free, so census-par's interleaved workers give the same share.
        out["canon.repeat_share"] = 1 - len(set(fingerprints)) / len(fingerprints)
    return out
