"""Discrete-event simulation kernel.

The kernel is deliberately small: events, generator processes, a
deterministic clock/heap, waitable stores, and measurement monitors.
Everything else in :mod:`repro` (network, TCP, CPU scheduling, MPI) is
built on these primitives.
"""

from .events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    LOW,
    NORMAL,
    Timeout,
    URGENT,
)
from .gcpause import paused_gc
from .monitor import Counter, Monitor
from .process import Process
from .resources import Resource, Store
from .simulator import SimulationError, Simulator, TimerHandle

__all__ = [
    "AllOf",
    "AnyOf",
    "Counter",
    "Event",
    "Interrupt",
    "LOW",
    "Monitor",
    "NORMAL",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "TimerHandle",
    "Timeout",
    "URGENT",
    "paused_gc",
]
