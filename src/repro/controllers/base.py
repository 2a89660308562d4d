"""The controller skeleton: lifecycle, decision loops and counted actuation.

A controller's lifecycle is ``attach(sim, cluster, targets)`` →
``start()`` → (simulation runs; the controller's decision loops fire)
→ ``stop()``.  The harness attaches a fresh controller instance per
run — controllers are stateful and single-use by design, mirroring how
the real daemons are launched per experiment.

A controller declares its periodic decision loops in
:meth:`Controller.loops`, as ``(interval, unit, method name)`` entries.
:meth:`Controller.start` runs ``_on_start`` and then schedules each
loop's first tick one interval out, in declaration order; every tick
calls the method and then schedules the next one.  :meth:`Controller.stop`
cancels them.  The fault injector's stall gate shadows exactly the
declared methods.

Every core or frequency change a controller starts goes through the
counted functions at the end of this module (:func:`set_cores`,
:func:`set_frequency`, :func:`step_cores`, :func:`step_frequency`).
The baselines pass them the :class:`~repro.cluster.cluster.Cluster`;
SurgeGuard's per-node units pass their
:class:`~repro.cluster.cluster.NodeView`.  Either answers
``container(name)``, ``set_cores`` and ``set_frequency``, and each
action is counted by direction in :class:`ControllerStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import List, Optional, Sequence, Tuple

from repro.sim.engine import EventHandle, Simulator
from repro.cluster.cluster import Cluster
from repro.controllers.targets import TargetConfig

__all__ = [
    "Controller",
    "ControllerStats",
    "set_cores",
    "set_frequency",
    "step_cores",
    "step_frequency",
]

#: One declared decision loop: ``(interval, unit, method name)``.
Loop = Tuple[float, object, str]


@dataclass
class ControllerStats:
    """Decision counters every controller reports (Table I evidence)."""

    decision_cycles: int = 0
    upscale_core_actions: int = 0
    downscale_core_actions: int = 0
    freq_up_actions: int = 0
    freq_down_actions: int = 0

    @property
    def total_actions(self) -> int:
        return (
            self.upscale_core_actions
            + self.downscale_core_actions
            + self.freq_up_actions
            + self.freq_down_actions
        )


class Controller:
    """Base resource controller; the null policy as it stands."""

    #: Human-readable controller name (used in experiment reports).
    name: str = "abstract"

    def __init__(self) -> None:
        self.sim: Optional[Simulator] = None
        self.cluster: Optional[Cluster] = None
        self.targets: Optional[TargetConfig] = None
        self.stats = ControllerStats()
        self._attached = False
        self._started = False
        #: The pending tick of each declared loop; empty once stopped.
        self._handles: List[EventHandle] = []

    def attach(self, sim: Simulator, cluster: Cluster, targets: TargetConfig) -> None:
        """Bind the controller to a deployed cluster (once)."""
        if self._attached:
            raise RuntimeError(f"{self.name}: attach() called twice")
        self.sim = sim
        self.cluster = cluster
        self.targets = targets
        self._attached = True
        self._on_attach()

    def loops(self) -> Sequence[Loop]:
        """The periodic decision loops, as ``(interval, unit, method
        name)`` entries; read after :meth:`attach`.  Default: none."""
        return ()

    def start(self) -> None:
        """Run ``_on_start``, then schedule every declared loop (once)."""
        if not self._attached:
            raise RuntimeError(f"{self.name}: start() before attach()")
        if self._started:
            raise RuntimeError(f"{self.name}: start() called twice")
        loops = self.loops()
        for interval, _unit, method in loops:
            if not (isfinite(interval) and interval > 0.0):
                raise ValueError(
                    f"{self.name}: {method} interval must be finite and "
                    f"positive, got {interval!r}"
                )
        self._started = True
        self._on_start()
        sim = self.sim
        self._handles = [
            sim.schedule(interval, self._tick, i, interval, getattr(unit, method))
            for i, (interval, unit, method) in enumerate(loops)
        ]

    def stop(self) -> None:
        """Cancel the decision loops; idempotent."""
        for handle in self._handles:
            handle.cancel()
        self._handles = []

    def _tick(self, i: int, interval: float, decide) -> None:
        decide()
        if self._handles:  # ``decide`` may have stopped the controller
            self._handles[i] = self.sim.schedule(
                interval, self._tick, i, interval, decide
            )

    # ------------------------------------------------------------ subclasses
    def _on_attach(self) -> None:
        """Hook: wire node views, sub-units, etc.  Default: nothing."""

    def _on_start(self) -> None:
        """Hook: per-run state and hooks, before the loops are scheduled.
        Default: nothing."""


# ---------------------------------------------------------------- actuation
def set_cores(target, stats: ControllerStats, name: str, cores: float) -> None:
    """Set ``name``'s allocation through ``target`` (a ``Cluster`` or a
    ``NodeView``) and count the action by its direction."""
    old = target.container(name).cores
    target.set_cores(name, cores)
    if cores > old:
        stats.upscale_core_actions += 1
    elif cores < old:
        stats.downscale_core_actions += 1


def set_frequency(target, stats: ControllerStats, name: str, frequency: float) -> None:
    """Set ``name``'s DVFS level through ``target`` and count the action
    by its direction."""
    old = target.container(name).frequency
    target.set_frequency(name, frequency)
    if frequency > old:
        stats.freq_up_actions += 1
    elif frequency < old:
        stats.freq_down_actions += 1


def step_cores(
    target, stats: ControllerStats, name: str, delta: float, floor: float = 0.0
) -> bool:
    """Grant (``delta > 0``) or revoke (``delta < 0``) cores.

    A grant needs ``delta`` free cores on the container's own node; a
    revoke may not take the allocation below ``floor``.  Returns whether
    the step was taken.
    """
    c = target.container(name)
    new = c.cores + delta
    if delta > 0.0:
        if c.node.free_cores + 1e-9 < delta:
            return False
    elif new < floor - 1e-9:
        return False
    set_cores(target, stats, name, new)
    return True


def step_frequency(target, stats: ControllerStats, name: str, up: bool) -> bool:
    """Move ``name`` one DVFS level up or down; returns ``False`` when it
    already sits at that end of the range."""
    c = target.container(name)
    f = c.frequency
    new = c.dvfs.step_up(f) if up else c.dvfs.step_down(f)
    if new == f:
        return False
    set_frequency(target, stats, name, new)
    return True
