"""Simulated microservice cluster substrate.

This subpackage stands in for the paper's physical testbed (4× Xeon 6242
nodes running DeathStarBench under Docker).  It provides:

* :class:`~repro.cluster.node.Node` — cores, a per-container DVFS domain,
  and the RX-side hook point where FirstResponder attaches.
* :class:`~repro.cluster.container.Container` — a processor-sharing
  execution model: ``n`` active compute phases on ``c`` allocated cores at
  frequency ``f`` each progress at ``f · min(1, c/n)`` cycles/s.
* :class:`~repro.cluster.threadpool.ConnectionPool` — caller-side
  connection pools implementing both threading models from §II-A of the
  paper (fixed-size pool vs. connection-per-request).
* :class:`~repro.cluster.network.Network` — RPC packet delivery with
  configurable intra/inter-node latency and injectable latency surges.
* :class:`~repro.cluster.runtime.ContainerRuntime` — the per-container
  metric collection (execTime, timeWaitingForFreeConn, execMetric,
  queueBuildup) that the paper's modified DeathStarBench reports to the
  controllers over shared files.
* :class:`~repro.cluster.cluster.Cluster` — assembly, placement, and the
  controller-facing allocation API (with per-node local views preserving
  SurgeGuard's decentralization).
"""

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.container import Container
from repro.cluster.frequency import DvfsModel
from repro.cluster.interference import InterferenceInjector, InterferenceWindow
from repro.cluster.network import Network, NetworkConfig
from repro.cluster.node import Node
from repro.cluster.packet import RpcPacket
from repro.cluster.runtime import ContainerRuntime, RuntimeWindow
from repro.cluster.threadpool import ConnectionPool
from repro.cluster.tracing import RequestTracer, Span

__all__ = [
    "Cluster",
    "ClusterConfig",
    "Container",
    "ConnectionPool",
    "ContainerRuntime",
    "DvfsModel",
    "InterferenceInjector",
    "InterferenceWindow",
    "Network",
    "NetworkConfig",
    "Node",
    "RequestTracer",
    "RpcPacket",
    "RuntimeWindow",
    "Span",
]
