"""SurgeGuardController — one Escalator + FirstResponder per node.

The assembly is where the decentralization claim becomes structural:
``_on_attach`` iterates the cluster's :class:`NodeView` objects and hands
each sub-unit *only* its node's view.  Nothing in :mod:`repro.core`
imports or receives a global cluster handle (a test greps the call
graph to keep it that way), matching Fig. 1 — "each node contains one
instance of SurgeGuard managing resources for the containers on that
node".

Ablation arms (Fig. 15) are expressed through
:class:`~repro.core.config.SurgeGuardConfig`:

* ``firstresponder=False`` → Escalator-only (the Fig. 10 comparison);
* ``use_new_metrics=False`` → "Parties + sensitivity" arm;
* ``use_sensitivity=False`` → "Parties + new metrics" arm;
* both False → the Parties-equivalent base allocator.
"""

from __future__ import annotations

from typing import List, Optional

from repro.controllers.base import Controller
from repro.core.config import SurgeGuardConfig
from repro.core.escalator import Escalator
from repro.core.firstresponder import FirstResponder

__all__ = ["SurgeGuardController"]


class SurgeGuardController(Controller):
    """The complete SurgeGuard resource controller."""

    name = "surgeguard"

    def __init__(self, config: Optional[SurgeGuardConfig] = None):
        super().__init__()
        self.config = config or SurgeGuardConfig()
        self.escalators: List[Escalator] = []
        self.firstresponders: List[FirstResponder] = []

    def _on_attach(self) -> None:
        assert self.sim is not None and self.cluster is not None
        assert self.targets is not None
        for view in self.cluster.node_views:
            self.escalators.append(
                Escalator(self.sim, view, self.config, self.targets, self.stats)
            )
            if self.config.firstresponder:
                fr = FirstResponder(
                    self.sim, view, self.config, self.targets, self.stats
                )
                self.firstresponders.append(fr)

    def _on_start(self) -> None:
        for fr in self.firstresponders:
            fr.install()
        for esc in self.escalators:
            esc.start()

    def _on_stop(self) -> None:
        for esc in self.escalators:
            esc.stop()

    # ------------------------------------------------------------ diagnostics
    @property
    def packets_inspected(self) -> int:
        """Total FirstResponder packet inspections across nodes."""
        return sum(fr.packets_inspected for fr in self.firstresponders)

    @property
    def fast_path_violations(self) -> int:
        """Total per-packet slack violations detected."""
        return sum(fr.violations_detected for fr in self.firstresponders)

    @property
    def boosts_applied(self) -> int:
        """Total frequency boosts performed by the fast path."""
        return sum(fr.boosts_applied for fr in self.firstresponders)
