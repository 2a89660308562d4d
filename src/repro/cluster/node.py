"""Nodes: core budgets, container hosting, and the RX hook point.

A :class:`Node` models one server of the paper's testbed.  The paper
reserves cores per node for the OS/network stack and the controller
itself (16 + 3 of 64 logical cores) and exposes the remainder to the
workload; :attr:`Node.cores` here is that *workload* budget — controller
and OS overheads are modeled as explicit costs, not as simulated cores.

The node also owns the **RX hook list**: callables invoked for every
packet delivered to a container on this node, *before* the packet
reaches the container.  This is the simulation analogue of
FirstResponder's kernel hook at ``netif_receive_skb`` — earliest
possible interception on the receive path.  Each hook declares a
per-packet processing cost which the network adds to the delivery
latency (the paper measures 0.26 µs for FirstResponder's primary
thread).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, TYPE_CHECKING

from repro.sim.engine import Simulator
from repro.cluster.container import Container
from repro.cluster.frequency import DvfsModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.packet import RpcPacket

__all__ = ["Node"]

RxHook = Callable[["RpcPacket"], None]


class Node:
    """One server node hosting containers under a shared core budget.

    Parameters
    ----------
    sim:
        The simulator.
    name:
        Node name (e.g. ``"node0"``).
    cores:
        Workload core budget (logical cores usable by containers).
    dvfs:
        DVFS model shared by all containers on this node.
    """

    def __init__(self, sim: Simulator, name: str, cores: float, dvfs: DvfsModel):
        if cores <= 0:
            raise ValueError(f"node {name!r}: cores must be positive")
        self.sim = sim
        self.name = name
        self.cores = float(cores)
        self.dvfs = dvfs
        self.containers: Dict[str, Container] = {}
        self._hooks: List[Tuple[float, RxHook]] = []
        # Per-packet caches, rebuilt on hook add/remove: total hook cost
        # and the hook callables in run order.  The network reads these on
        # every delivery, so they must not be recomputed per packet.
        self._rx_overhead = 0.0
        self._hook_fns: Tuple[RxHook, ...] = ()

    # ----------------------------------------------------------- containers
    def add_container(self, container: Container) -> None:
        """Host ``container`` on this node (its allocation counts here)."""
        if container.name in self.containers:
            raise ValueError(f"duplicate container {container.name!r} on {self.name!r}")
        if container.node is not None:
            raise ValueError(f"container {container.name!r} already placed")
        if self.allocated + container.cores > self.cores + 1e-9:
            raise ValueError(
                f"node {self.name!r}: adding {container.name!r} "
                f"({container.cores} cores) exceeds budget {self.cores}"
            )
        container.node = self
        self.containers[container.name] = container

    def remove_container(self, name: str) -> Container:
        """Evict a container (replica reaping); its cores return to the
        node budget and feasibility sweeps stop seeing it."""
        container = self.containers.pop(name)
        container.node = None
        return container

    @property
    def allocated(self) -> float:
        """Total cores currently allocated to containers on this node."""
        return sum(c.cores for c in self.containers.values())

    @property
    def free_cores(self) -> float:
        """Unallocated workload cores available for upscaling."""
        return self.cores - self.allocated

    def can_grow(self, container_name: str, delta: float) -> bool:
        """True if ``container_name`` may gain ``delta`` cores within budget."""
        if container_name not in self.containers:
            raise KeyError(container_name)
        return delta <= self.free_cores + 1e-9

    def set_cores(self, container_name: str, cores: float) -> None:
        """Set a container's allocation, enforcing the node budget."""
        container = self.containers[container_name]
        others = self.allocated - container.cores
        if others + cores > self.cores + 1e-9:
            raise ValueError(
                f"node {self.name!r}: allocation {cores} for {container_name!r} "
                f"exceeds remaining budget {self.cores - others:.2f}"
            )
        container.set_cores(cores)

    def feasibility_problems(self, eps: float = 1e-6) -> List[str]:
        """Core-feasibility problems on this node, as human-readable strings.

        Empty list = feasible: every container holds a positive
        allocation and the sum stays within the node's workload budget.
        Used by the runtime invariant monitors (:mod:`repro.validate`).
        """
        errors: List[str] = []
        total = 0.0
        for c in self.containers.values():
            if c.cores <= 0:
                errors.append(
                    f"{self.name}: container {c.name!r} has non-positive "
                    f"allocation {c.cores}"
                )
            total += c.cores
        if total > self.cores + eps:
            errors.append(
                f"{self.name}: allocated {total:.6f} cores exceeds "
                f"budget {self.cores:.6f}"
            )
        return errors

    # -------------------------------------------------------------- RX path
    def add_rx_hook(self, hook: RxHook, *, cost: float = 0.0) -> None:
        """Attach an RX-side packet hook with a per-packet processing cost."""
        if cost < 0:
            raise ValueError("hook cost must be non-negative")
        self._hooks.append((cost, hook))
        self._refresh_hook_caches()

    def remove_rx_hook(self, hook: RxHook) -> None:
        """Detach a previously-added hook (no-op if absent).

        Equality (not identity) comparison, so a re-derived bound method
        like ``fr.on_packet`` matches the one originally added."""
        self._hooks = [(c, h) for (c, h) in self._hooks if h != hook]
        self._refresh_hook_caches()

    def _refresh_hook_caches(self) -> None:
        self._rx_overhead = sum(c for c, _ in self._hooks)
        self._hook_fns = tuple(h for _, h in self._hooks)

    @property
    def rx_overhead(self) -> float:
        """Total per-packet latency added by the installed hooks."""
        return self._rx_overhead

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Node {self.name!r} cores={self.cores} "
            f"allocated={self.allocated:.1f} containers={len(self.containers)}>"
        )
