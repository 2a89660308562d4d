"""Controller interface and bookkeeping shared by all controllers.

A controller's lifecycle is ``attach(sim, cluster, targets)`` →
``start()`` → (simulation runs; the controller's periodic processes make
decisions) → ``stop()``.  The harness attaches a fresh controller
instance per run — controllers are stateful and single-use by design,
mirroring how the real daemons are launched per experiment.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from repro.sim.engine import Simulator
from repro.cluster.cluster import Cluster
from repro.controllers.targets import TargetConfig

__all__ = ["Controller", "ControllerStats"]


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


class Controller(abc.ABC):
    """Abstract resource controller."""

    #: Human-readable controller name (used in experiment reports).
    name: str = "abstract"

    def __init__(self) -> None:
        self.sim: Optional[Simulator] = None
        self.cluster: Optional[Cluster] = None
        self.targets: Optional[TargetConfig] = None
        self.stats = ControllerStats()
        self._attached = False
        self._started = False

    def attach(self, sim: Simulator, cluster: Cluster, targets: TargetConfig) -> None:
        """Bind the controller to a deployed cluster (once)."""
        if self._attached:
            raise RuntimeError(f"{self.name}: attach() called twice")
        self.sim = sim
        self.cluster = cluster
        self.targets = targets
        self._attached = True
        self._on_attach()

    def start(self) -> None:
        """Begin making decisions (schedules the periodic processes)."""
        if not self._attached:
            raise RuntimeError(f"{self.name}: start() before attach()")
        if self._started:
            raise RuntimeError(f"{self.name}: start() called twice")
        self._started = True
        self._on_start()

    def stop(self) -> None:
        """Stop all decision processes; idempotent."""
        if self._started:
            self._started = False
            self._on_stop()

    # ------------------------------------------------------------ subclasses
    def _on_attach(self) -> None:
        """Hook: wire node views, hooks, etc.  Default: nothing."""

    @abc.abstractmethod
    def _on_start(self) -> None:
        """Hook: schedule decision loops."""

    def _on_stop(self) -> None:
        """Hook: cancel decision loops.  Default: nothing."""

    # ------------------------------------------------------------- utilities
    def _step_cores_up(self, name: str, step: float) -> bool:
        """Grant ``step`` cores to ``name`` if the node budget allows."""
        assert self.cluster is not None
        node = self.cluster.node_of(name)
        if node.free_cores + 1e-9 < step:
            return False
        self.cluster.set_cores(name, self.cluster.containers[name].cores + step)
        self.stats.upscale_core_actions += 1
        return True

    def _step_cores_down(self, name: str, step: float, floor: float) -> bool:
        """Revoke ``step`` cores from ``name`` unless at/below ``floor``."""
        assert self.cluster is not None
        current = self.cluster.containers[name].cores
        if current - step < floor - 1e-9:
            return False
        self.cluster.set_cores(name, current - step)
        self.stats.downscale_core_actions += 1
        return True

    def _step_freq_up(self, name: str) -> bool:
        """Raise ``name``'s frequency one DVFS level if not at max."""
        assert self.cluster is not None
        c = self.cluster.containers[name]
        new = c.dvfs.step_up(c.frequency)
        if new == c.frequency:
            return False
        self.cluster.set_frequency(name, new)
        self.stats.freq_up_actions += 1
        return True

    def _step_freq_down(self, name: str) -> bool:
        """Lower ``name``'s frequency one DVFS level if not at min."""
        assert self.cluster is not None
        c = self.cluster.containers[name]
        new = c.dvfs.step_down(c.frequency)
        if new == c.frequency:
            return False
        self.cluster.set_frequency(name, new)
        self.stats.freq_down_actions += 1
        return True
