"""Discrete-event simulation substrate.

Used by :mod:`repro.evalmodel` to reproduce the paper's two testbeds,
browsing (Figures 4-5) and processing (Tables 1-3), on a single machine.
"""

from .events import EventHandle, SimulationError, Simulator
from .process import Future, Interrupted, Process, spawn
from .resources import FcfsServer, ProcessorSharing
from .stats import Tally, TimeWeighted

__all__ = [
    "EventHandle",
    "FcfsServer",
    "Future",
    "Interrupted",
    "Process",
    "ProcessorSharing",
    "SimulationError",
    "Simulator",
    "Tally",
    "TimeWeighted",
    "spawn",
]
