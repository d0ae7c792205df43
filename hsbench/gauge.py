"""In-process gauge of the CPU's current speed, for times that hold still.

Each vCPU of the VM the benchmark was written on runs the same code up to
twice as slowly from one second to the next, and the two vCPUs drift
independently, so neither a reference run before and after a workload nor
one on the other vCPU tracks it. A `Gauge` instead interrupts the workload
process itself every PERIOD_S with SIGALRM and times a fixed piece of work
(a tick) in the handler, sampling the speed of the very CPU, in the very
seconds, the workload ran on. `reference_s` turns a measured interval into
seconds at REFERENCE_TICK_S per tick: it leaves out the ticks' own time and
scales each stretch between ticks by how fast the ticks around it ran.

A tick is half an interpreter loop on a few cached objects and half reads
of a 64k-entry table in random order, which miss the L2 cache. The loop
alone tracks the package's slowdowns only in part, since they also come
from cache and memory contention; the mix tracked them best (README.md,
"Machine speed"). The table adds about 5 MB to every child's peak RSS.

Python runs the handler between bytecodes, so a tick that falls inside a
long native call (a HiGHS solve) waits until the call returns; the stretch
before it is then scaled by the ticks just before and after the call. The
tick is pure Python on objects built here, so it is safe while the
interrupted code is half-way through importing numpy or scipy.
"""

from __future__ import annotations

import random
import signal
import time

PERIOD_S = 0.05
LOOP_STEPS = 5_000
TABLE_SIZE = 1 << 16
READS = 1_024
# Median tick on a 2-vCPU Intel Xeon VM (Python 3.11.7); the unit in which
# gauged times read.
REFERENCE_TICK_S = 0.00105

_TABLE = list(range(10**6, 10**6 + TABLE_SIZE))  # distinct int objects
_ORDER = list(range(TABLE_SIZE))
random.Random(7).shuffle(_ORDER)


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _tick_work(k: int) -> int:
    total = 0
    for i in range(LOOP_STEPS):
        total += (i * 7919) % 257
    start = k * READS % TABLE_SIZE
    for j in _ORDER[start:start + READS]:
        total += _TABLE[j]
    return total


class Gauge:
    """Records [start_ns, end_ns] of a tick every PERIOD_S while started."""

    def __init__(self) -> None:
        self.ticks: list[list[int]] = []

    def _tick(self, _signum, _frame) -> None:
        start = now_ns()
        _tick_work(len(self.ticks))
        self.ticks.append([start, now_ns()])

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def reference_s(interval: list[int], ticks: list[list[int]]) -> float:
    """Seconds of `interval` ([t0, t1] ns) outside the ticks, at reference speed.

    Each stretch between ticks is scaled by REFERENCE_TICK_S over the mean
    duration of the tick before it and the tick after it, which may lie
    outside the interval. With no ticks at all the raw length is returned.
    """
    t0, t1 = interval
    if not ticks:
        return (t1 - t0) / 1e9
    total = 0.0
    edge, before = t0, None  # end of the last stretch, duration of the tick there
    for start, end in ticks:
        took = end - start
        if end <= t0:
            before = took
            continue
        around = took if before is None else (before + took) / 2
        if start >= t1:
            total += (t1 - edge) / around
            return total * REFERENCE_TICK_S
        total += (start - edge) / around
        edge, before = end, took
    return total * REFERENCE_TICK_S + (t1 - edge) / before * REFERENCE_TICK_S

