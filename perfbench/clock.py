"""Timing scaled to a reference interpreter speed.

On a shared machine the speed of the same Python code drifts by a quarter
and more over tens of seconds (frequency scaling, work on sibling
hyperthreads), in phases longer than one pass.  So every timed interval is
measured against a speed probe: a fixed piece of pure-Python rational
arithmetic that a profiling timer (SIGPROF, on process CPU time) runs every
``INTERVAL_S``.  An interval's scaled duration integrates, over the stretches
between probes, wall time times ``PROBE_REF_S`` over the probe's time there;
the probes themselves are left out.  ``PROBE_REF_S`` is about the probe's
usual time on a 2-vCPU x86-64 virtual machine (Intel Xeon, CPython 3.11),
so scaled seconds read roughly as seconds on that machine.

The probe must measure the machine, not the program around it.  So it runs
with the garbage collector off, and its work is done once untimed before the
timed run: timed cold, right after allocation-heavy program code, the probe
read up to a quarter slower in its slowest tenth, and an injected slowdown
of the program lost about 15 % of its size once scaled (the slowdown tests
in test_perfbench.py measure this; figures in README.md).

On that machine, over 40 s of back-to-back compiles of the same input,
scaling cut the spread (coefficient of variation) of 0.25 s samples from
about 0.2 to 0.02, and of 2.5 s blocks from about 0.1 to 0.006.
"""

from __future__ import annotations

import bisect
import gc
import signal
from fractions import Fraction
from time import perf_counter

# Process CPU time between probes.  CPU-time timers fire on the kernel tick,
# so this asks for a probe at every tick (4 ms at 250 Hz); each probe takes
# about 0.1 ms, and it is run twice (warm-up, then timed).  Probing every
# 40 ms instead left twice the spread.
INTERVAL_S = 0.0025
PROBE_STEPS = 20
PROBE_REF_S = 0.00009


def probe_work() -> Fraction:
    acc = Fraction(0)
    seen = {}
    for i in range(1, PROBE_STEPS):
        acc += Fraction(i, i + 2)
        seen[i % 7] = acc
    return acc


class SpeedClock:
    def __init__(self) -> None:
        # (start, end, timed duration), ascending; [start, end] holds the warm-up too
        self.probes: list[tuple[float, float, float]] = []

    def _probe(self, signum, frame) -> None:
        # The probe's own allocations must not set off a collection of the
        # program's heap, and caches the program left cold must not slow the
        # timed run: either would read as a slower machine.
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        probe_work()
        timed = perf_counter()
        probe_work()
        end = perf_counter()
        if enabled:
            gc.enable()
        self.probes.append((start, end, end - timed))

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._probe(None, None)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)  # a probe signal still in flight is dropped

    def scaled(self, t0: float, t1: float) -> float:
        """Duration of [t0, t1] at the reference speed, probes excluded.

        Each stretch between probes counts at the speed of the probe that
        ends it.  (Smoothing over neighbouring probes, or an exponent on the
        speed ratio, made the scaled times less steady, not more.)
        """
        probes = self.probes
        lo = bisect.bisect_right(probes, t0, key=_start)
        total = 0.0
        at = t0
        for k in range(lo, len(probes)):
            start, end, took = probes[k]
            total += (min(start, t1) - at) / took
            at = end
            if at >= t1:
                break
        if at < t1:
            total += (t1 - at) / probes[-1][2]
        return total * PROBE_REF_S


def _start(probe: tuple[float, float, float]) -> float:
    return probe[0]
