"""Statistics collection for simulation runs."""

from __future__ import annotations

import math
from typing import Optional

from .events import Simulator


class Tally:
    """Running mean/min/max of observed samples."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def record(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0


class TimeWeighted:
    """Time-weighted average of a piecewise-constant signal.

    ``record(v)`` notes that the signal takes value ``v`` from the current
    simulation time onward.  ``mean(until)`` integrates the signal.
    """

    def __init__(self, sim: Simulator):
        self._sim = sim
        self._area = 0.0
        self._last_time = sim.now
        self._last_value: Optional[float] = None
        self._start = sim.now

    def record(self, value: float) -> None:
        now = self._sim.now
        if self._last_value is not None:
            self._area += self._last_value * (now - self._last_time)
        self._last_time = now
        self._last_value = value

    def mean(self, until: Optional[float] = None) -> float:
        end = self._sim.now if until is None else until
        span = end - self._start
        if span <= 0:
            return self._last_value or 0.0
        area = self._area
        if self._last_value is not None and end > self._last_time:
            area += self._last_value * (end - self._last_time)
        return area / span

    @property
    def current(self) -> float:
        return self._last_value or 0.0
