"""Arms a :class:`~repro.faults.plan.FaultPlan` against a live cluster.

The injector follows the same attachment discipline as the validation
monitors (:mod:`repro.validate.monitors`): every hook is an
instance-attribute shadow or a scheduled event, installed by
:meth:`FaultInjector.arm` and removed by :meth:`FaultInjector.disarm`,
so class hot paths carry zero cost when no injector is armed and a
disarmed object graph is exactly the pre-arm one.

Wiring per fault type:

* **Packet loss** — ``network.send`` is shadowed; inside a loss window
  each packet burns one ``faults.loss`` draw and is either discarded
  (counted in ``network.packets_dropped``) or forwarded to the original
  bound method.  Outside every window no draw happens.
* **Crashes** — two scheduled events per :class:`ContainerCrash`: the
  crash calls :meth:`ServiceInstance.crash` (fails in-flight work,
  flushes pools and compute, drops arriving packets), the restart calls
  :meth:`ServiceInstance.restart` and resets the learned per-container
  controller state (sensitivity rows) for the dead process.
* **Controller stalls** — every decision loop the controller declares
  (:meth:`~repro.controllers.base.Controller.loops`: each per-node
  Escalator's ``decide``, a baseline's periodic decision) is shadowed
  with a gate that no-ops inside stall windows.  Must be armed *before*
  ``controller.start()``: the loops capture the bound method at start
  time.
* **RPC resilience** — one shared :class:`~repro.faults.rpc.RpcCaller`
  is installed on the cluster (ingress) and every service instance
  (child calls).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.faults.plan import FaultPlan
from repro.faults.rpc import RpcCaller
from repro.sim.engine import Simulator

__all__ = ["FaultInjector"]


class FaultInjector:
    """Installs one fault plan on one simulation run.

    Parameters
    ----------
    plan:
        The fault schedule to inject.  An empty plan arms nothing.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.sim: Optional[Simulator] = None
        self.cluster: Optional[Cluster] = None
        self.controller = None
        self.rpc: Optional[RpcCaller] = None
        self._armed = False
        self._loss_installed = False
        self._stall_targets: List[Tuple[object, str]] = []
        # ---- counters --------------------------------------------------
        self.crashes_injected = 0
        self.restarts_completed = 0
        self.inflight_failed = 0
        self.stalled_cycles = 0

    # ------------------------------------------------------------- lifecycle
    def arm(self, sim: Simulator, cluster: Cluster, *, controller=None) -> None:
        """Attach the plan.  Call after ``controller.attach`` and before
        ``controller.start`` (stall gates must precede the decision
        loops' method binding)."""
        if self._armed:
            raise RuntimeError("FaultInjector already armed")
        self._armed = True
        self.sim = sim
        self.cluster = cluster
        self.controller = controller

        if self.plan.rpc is not None:
            self.rpc = RpcCaller(
                sim, cluster.network, self.plan.rpc, cluster.rng.stream("faults.rpc")
            )
            cluster.rpc = self.rpc
            for inst in cluster.instances.values():
                inst.rpc = self.rpc

        if self.plan.loss_windows:
            self._install_loss()

        for crash in self.plan.crashes:
            if crash.container not in cluster.instances:
                raise KeyError(f"unknown crash target {crash.container!r}")
            sim.schedule_at(crash.time, self._crash, crash.container)
            sim.schedule_at(
                crash.time + crash.restart_delay, self._restart, crash.container
            )

        if self.plan.stalls:
            self._install_stall_gates()

    def disarm(self) -> None:
        """Remove every shadow, restoring the pre-arm object graph.

        Scheduled crash/restart events are not unscheduled (disarm after
        the run, as with monitors); counters survive for fingerprinting.
        """
        if not self._armed:
            return
        self._armed = False
        cluster = self.cluster
        if self.rpc is not None:
            cluster.rpc = None
            for inst in cluster.instances.values():
                inst.rpc = None
        if self._loss_installed:
            del cluster.network.send  # restore the class method
            self._loss_installed = False
        for obj, attr in self._stall_targets:
            delattr(obj, attr)  # restore the class method
        self._stall_targets = []

    def fault_stats(self) -> dict:
        """Picklable counter snapshot (fingerprinted under faults)."""
        out = {
            "packets_dropped": self.cluster.network.packets_dropped,
            "crashes": self.crashes_injected,
            "inflight_failed": self.inflight_failed,
            "stalled_cycles": self.stalled_cycles,
        }
        if self.rpc is not None:
            out["rpc_retries"] = self.rpc.retries
            out["rpc_errors"] = self.rpc.errors
            out["rpc_fail_fast"] = self.rpc.budget_exhausted
        return out

    # ------------------------------------------------------------------ loss
    def _install_loss(self) -> None:
        net = self.cluster.network
        original = net.send  # bound class method
        rng = self.cluster.rng.stream("faults.loss")
        windows = sorted(self.plan.loss_windows, key=lambda w: w.start)
        cursor = [0]  # send times are monotonic; skip expired windows

        def send_with_loss(packet) -> None:
            t = net.sim.now
            i = cursor[0]
            while i < len(windows) and t >= windows[i].end:
                i += 1
            cursor[0] = i
            if i < len(windows) and windows[i].start <= t:
                # One draw per packet, only inside a window.
                if float(rng.random()) < windows[i].rate:
                    packet.send_time = t
                    net.packets_dropped += 1
                    # Drop release point: a lost packet's life ends here.
                    # Requests and responses alike go back to the free
                    # list; an RPC caller keeps only the call's fields and
                    # retries with a fresh packet.
                    net.pool.release(packet)
                    return
            original(packet)

        net.send = send_with_loss  # type: ignore[method-assign]
        self._loss_installed = True

    # --------------------------------------------------------------- crashes
    def _crash(self, name: str) -> None:
        self.crashes_injected += 1
        self.inflight_failed += self.cluster.instances[name].crash()

    def _restart(self, name: str) -> None:
        self.restarts_completed += 1
        self.cluster.instances[name].restart()
        # The learned sensitivity rows describe the dead process; a
        # restarted container is re-learned from scratch (no-op for
        # controllers without per-container learned state).
        for esc in getattr(self.controller, "escalators", None) or ():
            esc.sensitivity.forget(name)

    # ---------------------------------------------------------------- stalls
    def _install_stall_gates(self) -> None:
        windows = sorted(self.plan.stalls, key=lambda w: w.start)

        # A controller without loops (null, oracle) has nothing to stall.
        loops = self.controller.loops() if self.controller is not None else ()
        sim = self.sim
        for _interval, obj, attr in loops:
            original = getattr(obj, attr)

            def gated(original=original) -> None:
                t = sim.now
                for w in windows:
                    if w.start <= t < w.end:
                        self.stalled_cycles += 1
                        return
                    if t < w.start:
                        break
                original()

            setattr(obj, attr, gated)
            self._stall_targets.append((obj, attr))
