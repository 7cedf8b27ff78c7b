"""Host-speed probe: expresses a repetition's times at a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host.  A vCPU's speed there
swings by 10-15% from second to second and by up to 1.8x over minutes,
independently on each vCPU, so the wall time of the same code spreads past
the benchmark's bounds however long a run is.  The probe samples that speed
where and when the work runs: every PERIOD_S a SIGALRM interrupts the
repetition's own interpreter, on its own vCPU, and times a fixed
pure-Python loop (about 1 ms).  `scaled(a, b)` takes the wall time of
[a, b], removes the probes' own time, and multiplies it by REF_S over the
probes' mean, which gives seconds on a host whose probe takes REF_S.
Program code is not probed; only the loop below is, so a slower program
reads slower, while a slower host does not.

Pool workers forked from the repetition inherit no interval timer and are
not probed.
"""
from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.025
ROUNDS = 150
# About the probe's median time on an Intel Xeon vCPU under CPython 3.11.7,
# the host the baseline was recorded on.  A constant: it only sets the unit.
REF_S = 0.00100

_now = time.perf_counter
_P = tuple(range(1, 97)) + (0,)
_S = tuple(5 * i % 97 for i in range(97))


def _loop() -> tuple:
    q = _P
    for _ in range(ROUNDS):
        q = tuple(_S[i] for i in q)
    return q


class HostProbe:
    """Samples host speed on SIGALRM between start() and stop()."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []   # (start, duration) of each probe

    def _probe(self, _signum=None, _frame=None) -> None:
        t0 = _now()
        _loop()
        self.samples.append((t0, _now() - t0))

    def start(self) -> None:
        """Probe once now (after one warm-up loop), then every PERIOD_S."""
        _loop()
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _inside(self, a: float, b: float) -> list[float]:
        inside = [d for t, d in self.samples if a <= t < b]
        if not inside:
            raise RuntimeError(f"no host-speed probe between {a} and {b}")
        return inside

    def scaled(self, a: float, b: float) -> float:
        """Wall time of [a, b] less the probes in it, at the reference speed."""
        inside = self._inside(a, b)
        return (b - a - sum(inside)) * REF_S / statistics.fmean(inside)

    def speed(self, a: float, b: float) -> float:
        """Host speed over [a, b] relative to the reference (1.0: REF_S per probe)."""
        return REF_S / statistics.fmean(self._inside(a, b))
