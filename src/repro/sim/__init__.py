"""Discrete-event simulation engine.

This subpackage is the foundation of the reproduction: a deterministic,
single-threaded discrete-event simulator with cancellable events and
named RNG streams.  Everything above it (the cluster substrate, workload
generators, and the controllers' decision loops) is expressed as
callbacks scheduled on a :class:`Simulator`.

Simulated time is a ``float`` in **seconds**.  The engine is agnostic to
units, but the whole code base sticks to seconds / Hz / cycles.
"""

from repro.sim.engine import EventHandle, Simulator, SimulationError
from repro.sim.rng import RngRegistry

__all__ = [
    "EventHandle",
    "RngRegistry",
    "SimulationError",
    "Simulator",
]
