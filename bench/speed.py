"""How fast the machine runs right now, measured beside the program.

The sandbox's virtual CPUs are hyperthreads of a shared host.  Whenever
the sibling thread of the core is busy - another tenant's work; this
machine's own second CPU stays idle - everything here, a pure Python loop
just the same, takes 1.5 to 1.8 times as long, for seconds to minutes at
a stretch.  A 20 s window can lie wholly inside one such spell, so no
statistic of the window's wall-clock latencies (median, tenth percentile,
throughput) can tell a slow spell from a slower program: over ten runs of
one commit they spread by 30-50 %.

What does tell them apart is a fixed piece of work that does not belong
to the program: :func:`kernel`, 0.12 ms of dictionary, string and sort
work.  The closed-loop drivers time it between any two operations; the
mean of the two readings around an operation over :data:`REFERENCE_S` is
the *speed factor* in force while the operation ran, and the operation's
latency divided by it is its latency in *reference-speed* milliseconds:
what it would have taken had the machine run at the speed at which the
kernel takes :data:`REFERENCE_S`.  A change to the program does not
change the kernel, so a slower program still reads slower by as much; a
slower machine slows both and cancels.

The raw wall-clock figures stay beside the normalised ones (``req_per_s``,
``*_p50_ms``, ``*_p95_ms``, ``bench.speed_factor``): a change that slows
the kernel too (a thread that competes for the interpreter lock) hides
from the normalised figures and shows there.
"""

from __future__ import annotations

from time import perf_counter

#: What one call of :func:`kernel` takes on the sizing machine while the
#: sibling thread is idle.  A constant, so that normalised figures stay in
#: milliseconds and equal the wall clock in a calm spell.
REFERENCE_S = 120e-6

#: Share of the kernel's slowdown that a class of operation (or, for a
#: build, a workload) shows; 1 where not listed.  A fresh analysis, and the
#: ``analyze`` build, which ingests photons and runs sixteen analyses, is
#: vectorised numpy and file writes for much of its time, which a busy
#: sibling thread slows less than it slows interpreted code (README,
#: "Speed factor": 1.45x where the kernel and the pages read 1.75x).
SENSITIVITY = {"analyze": 0.65}


def kernel() -> str:
    """The fixed work: interpreted dictionary, string and sort operations
    on a few kilobytes, like the program's own pages."""
    table = {}
    total = 0
    for index in range(500):
        table[str(index)] = index * 3
        total += len(table)
    return "".join(sorted(table)[:50])


def reading(calls: int = 1) -> float:
    """Seconds one kernel call takes now: the median of ``calls`` calls."""
    times = []
    for _ in range(calls):
        started = perf_counter()
        kernel()
        times.append(perf_counter() - started)
    return sorted(times)[calls // 2]


def factor(before_s: float, after_s: float, cls: str = "") -> float:
    """By how much the machine's state stretched an operation of class
    ``cls`` that ran between two kernel readings."""
    slowdown = (before_s + after_s) / (2.0 * REFERENCE_S)
    return 1.0 + SENSITIVITY.get(cls, 1.0) * (slowdown - 1.0)


class Meter:
    """Reference-speed seconds of a long stretch of work (a build): the
    wall time between consecutive ticks, each interval divided by the
    speed factor read at its two ends.  The kernel's own time is left out."""

    #: Readings per tick: an interval can be long, so one reading hit by
    #: an interrupt would distort all of it.
    CALLS = 3

    def __init__(self, cls: str = "") -> None:
        self.cls = cls
        self.normal_s = 0.0
        self.wall_s = 0.0
        self._last: tuple[float, float] | None = None    # (ended, reading)

    def tick(self) -> None:
        started = perf_counter()
        now = reading(self.CALLS)
        if self._last is not None:
            ended, before = self._last
            wall = started - ended
            self.wall_s += wall
            self.normal_s += wall / factor(before, now, self.cls)
        self._last = (perf_counter(), now)


reading(20)     # first calls are slower: caches, specialised bytecode
