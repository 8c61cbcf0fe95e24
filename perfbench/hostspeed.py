"""Host speed, read from a fixed pure-Python kernel timed between goals.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over minutes (a neighbour on the same physical core, a frequency
change).  The drift moves every timing in a run together, so it shows up as a
difference between runs of the same code.  To take it out, a fixed kernel is
timed between goals, outside the timed region, and each goal's time is scaled
by ``REF_KERNEL_S / kernel time`` around that goal: times are reported at the
reference speed.  On a host of steady speed the scale is a constant, and a
metric moves exactly as much as the raw time it was computed from.

The raw figures stay in the run's metadata.
"""

from __future__ import annotations

import statistics
import time

KERNEL_STEPS = 1_000
KERNEL_REPEATS = 3
# Kernel time on the reference host (2 vCPUs at 2.0 GHz, Python 3.11.7) in
# its faster state; that host switches between two speeds about 1.85x apart
# every second or so.  Only the ratio of two runs matters; this constant
# keeps the scaled figures near the raw ones there.
REF_KERNEL_S = 0.00022


def _step(i: int, table: dict) -> int:
    key = (i & 63, i % 7)
    table[key] = table.get(key, 0) + i
    return key[0]


def kernel_seconds() -> float:
    """The median time of a few runs of the kernel: calls, tuples and dict
    traffic, the kind of work the interpreter does in the program."""
    times = []
    for _ in range(KERNEL_REPEATS):
        table: dict = {}
        start = time.perf_counter()
        for i in range(KERNEL_STEPS):
            _step(i, table)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(kernel_s: float) -> float:
    """The factor from raw time to reference time at a kernel reading."""
    return REF_KERNEL_S / kernel_s


class HostClock:
    """Kernel readings between goals: one before the first goal, one after
    each goal that ends at least ``every_s`` of goal time after the last
    reading, and one after the last goal."""

    def __init__(self, every_s: float = 0.01) -> None:
        self.every_s = every_s
        self.marks: list[tuple[int, float]] = []  # (goals done, kernel seconds)
        self.goal_s: list[float] = []
        self._since = 0.0

    def start(self) -> None:
        self.marks.append((0, kernel_seconds()))

    def tick(self, done: int, goal_s: float) -> None:
        """Called after each goal, with the goals done so far and that goal's time."""
        self.goal_s.append(goal_s)
        self._since += goal_s
        if self._since >= self.every_s:
            self.marks.append((done, kernel_seconds()))
            self._since = 0.0

    def finish(self, done: int) -> None:
        if self.marks[-1][0] != done:
            self.marks.append((done, kernel_seconds()))

    def scales(self) -> list[float]:
        """One factor per goal.  Between two readings the kernel time is taken
        to change linearly with goal time, and each goal gets its value at
        the goal's midpoint: a short goal run just after one reading and
        just before a long goal gets that reading, not the mean of two
        readings half a second apart."""
        out: list[float] = []
        for (lo, before), (hi, after) in zip(self.marks, self.marks[1:]):
            times = self.goal_s[lo:hi]
            span = sum(times)
            at = 0.0
            for t in times:
                w = (at + t / 2.0) / span if span else 0.5
                out.append(scale(before + (after - before) * w))
                at += t
        return out
