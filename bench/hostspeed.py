"""Host-speed meter: a fixed canary loop sampled on a wall-clock timer.

The virtual machines this benchmark runs on change speed by up to half for
seconds to minutes at a time, the same way for CPU time as for wall time, so
neither a longer run nor CPU time removes the swing.  The meter runs a fixed
pure-Python canary (about 0.3 ms) from a SIGALRM handler every INTERVAL
seconds of wall time, during the set-ups and the timed rounds.  The canary's
time at that moment says how fast the host is running, and the time spent in
the handler is subtracted from whatever it interrupted.  Timings are then
scaled by CANARY_REF / (mean canary time over the round), which turns them
into what they would be on a host that runs the canary in CANARY_REF.

The canary runs in the program's process, so the cyclic garbage collector is
off while it runs: a collection, whose cost grows with the program's heap,
would otherwise land in a sample and be taken for a slow host.  The factor
is the mean, not the median, because the host's slow stretches cover part
of a round and the verdicts pay for them in proportion: over 30 rounds of
`decision` the mean left a spread of 0.05 in round time, the median 0.11.
"""
from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

#: seconds between canary samples
INTERVAL = 0.02

#: canary time, in seconds, that defines the reference host speed (about the
#: median on the reference machine: a 2 vCPU VM, CPython 3.11)
CANARY_REF = 0.0003


def canary() -> int:
    """Tuples, bit masks, generator expressions, a dict and a frozenset: the
    same kinds of work as srdepth's verdicts."""
    seen: dict = {}
    acc = 0
    for a in range(40):
        t = tuple((a * k) % 5 for k in range(6))
        m = 0
        for j, e in enumerate(t):
            if e:
                m |= 1 << j
        seen[(m, t)] = seen.get((m, t), 0) + 1
        acc += all(x <= y for x, y in zip(t, (2, 3, 4, 1, 2, 3)))
        acc += len(frozenset(j for j in range(6) if m >> j & 1))
    return acc + len(seen)


class HostMeter:
    """Samples the canary while running; `stolen` is the wall time spent in
    the handler so far, and `samples` the (start, canary seconds) pairs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.stolen = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append((t0, timed_canary()))
        self.stolen += perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Host slowness over [start, end]: mean canary time / CANARY_REF."""
        window = [d for t, d in self.samples if start <= t <= end]
        if not window:
            raise ValueError("no canary sample in the window")
        return statistics.fmean(window) / CANARY_REF


def timed_canary() -> float:
    """Seconds one canary takes, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        canary()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def burst_factor(count: int = 16) -> float:
    """Host slowness from `count` canaries run back to back, for stretches
    during which the meter is off: mean canary time / CANARY_REF."""
    return statistics.fmean(timed_canary() for _ in range(count)) / CANARY_REF
