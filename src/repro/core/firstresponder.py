"""FirstResponder — SurgeGuard's kernel-module fast path (§IV-A).

The real FirstResponder hooks ``netif_receive_skb`` and, per packet:

1. reads the ``startTime`` metadata field,
2. computes per-packet slack (Eq. 4–5):
   ``slack = expectedTimeFromStart − (currentTime − pkt.startTime)``,
3. on negative slack, enqueues a frequency-update work item; a worker
   thread off the critical path pops it and writes the MSRs, raising
   the frequency of the violating container and its same-node
   downstream containers.

The simulation analogue attaches to the node's RX hook list (run for
every packet delivered to a container on the node, before the container
sees it) with the measured 0.26 µs primary-thread cost added to packet
latency; the 0.44 µs enqueue + 2.1 µs MSR write appear as a delay
between detection and the frequency actually changing (coordinator–
worker design, Fig. 9).

**Mitigating frequent updates**: per-packet slack is noisy, so once a
path is boosted its frequency is frozen for a hold window of about 2×
the end-to-end request latency (§IV-A) — implemented as a per-container
``hold_until`` timestamp checked before boosting.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.engine import Simulator
from repro.cluster.cluster import NodeView
from repro.cluster.packet import REQUEST, RpcPacket
from repro.controllers.base import ControllerStats, set_frequency
from repro.controllers.targets import TargetConfig
from repro.core.config import ENQUEUE_COST, HOOK_COST, MSR_COST, SurgeGuardConfig

__all__ = ["FirstResponder"]


class FirstResponder:
    """Per-node per-packet slack tracker and frequency booster.

    Parameters mirror :class:`~repro.core.escalator.Escalator`.
    """

    def __init__(
        self,
        sim: Simulator,
        view: NodeView,
        config: SurgeGuardConfig,
        targets: TargetConfig,
        stats: Optional[ControllerStats] = None,
    ):
        self.sim = sim
        self.view = view
        self.config = config
        self.targets = targets
        self.stats = stats if stats is not None else ControllerStats()
        self._hold_until: Dict[str, float] = {}
        self._installed = False
        #: Last time each container's boost was applied by the worker —
        #: diagnostics plus the validate layer's boost-revert invariant.
        self.last_boost_time: Dict[str, float] = {}
        # Observable fast-path counters (§VI-D overhead analysis).
        self.packets_inspected = 0
        self.violations_detected = 0
        self.boosts_applied = 0
        self.boosts_suppressed = 0

    # -------------------------------------------------------------- lifecycle
    def install(self) -> None:
        """Attach the RX hook on this node (idempotent guard)."""
        if self._installed:
            raise RuntimeError("FirstResponder already installed")
        self.view.add_rx_hook(self.on_packet, cost=HOOK_COST)
        self._installed = True

    @property
    def hold_window(self) -> float:
        """Frequency freeze duration (~2× end-to-end latency, §IV-A)."""
        return self.config.hold_factor * self.targets.qos_target

    # --------------------------------------------------------------- hot path
    def on_packet(self, pkt: RpcPacket) -> None:
        """The primary-thread hook: slack check, maybe enqueue a boost.

        Only request packets are progress-checked: a request arriving at
        a container is the moment its ``expectedTimeFromStart`` target
        applies (responses travelling upstream carry no per-container
        progress target).
        """
        self.packets_inspected += 1
        if pkt.kind != REQUEST:
            return
        try:
            # A subscript, not ``.get``: a replica name falls back to its
            # service's target only through ``__missing__``.
            target = self.targets.expected_time_from_start[pkt.dst]
        except KeyError:
            return  # no target for this destination
        observed = self.sim.now - pkt.start_time
        slack = target - observed
        if slack >= 0:
            return
        self.violations_detected += 1
        if self.sim.now < self._hold_until.get(pkt.dst, -1.0):
            self.boosts_suppressed += 1
            return
        # Freeze the path immediately (the decision is made on the
        # critical path; only the MSR write is deferred to the worker).
        containers = [pkt.dst] + self.view.local_downstream(pkt.dst)
        hold = self.sim.now + self.hold_window
        for name in containers:
            self._hold_until[name] = hold
        delay = ENQUEUE_COST + MSR_COST
        self.sim.schedule(delay, self._apply_boost, tuple(containers))

    # ------------------------------------------------------------ worker path
    def _apply_boost(self, containers: tuple) -> None:
        """Worker thread: write the MSRs (frequency → max) and publish
        the new frequencies to the Escalator-shared region (shFreq)."""
        f_max = self.view.node.dvfs.f_max
        now = self.sim.now
        local = self.view.node.containers
        for name in containers:
            if name not in local:
                continue  # replica reaped between enqueue and MSR write
            self.last_boost_time[name] = now
            if self.view.container(name).frequency < f_max:
                set_frequency(self.view, self.stats, name, f_max)
        self.boosts_applied += 1
