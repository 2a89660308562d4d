"""Service-to-node placement policies.

The paper distributes each application's containers across the cluster's
nodes (Fig. 1: "each node contains one instance of SurgeGuard managing
resources for the containers on that node") and scales experiments from
1 to 4 nodes (Fig. 13).  Placement here is static for the duration of a
run — SurgeGuard is robust to re-placement because it keeps only local
state, and tests exercise that property directly, but the evaluation
scenarios do not migrate containers mid-run.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.cluster.loadbalancer import replica_name

__all__ = [
    "PLACEMENTS",
    "round_robin",
    "pack_first",
    "by_depth",
    "expand_replicas",
    "expand_depths",
]

#: Placement policy names accepted by ``ClusterConfig.placement``.
PLACEMENTS = ("pack", "round_robin", "by_depth")


def round_robin(services: Sequence[str], n_nodes: int) -> Dict[str, int]:
    """Spread services across nodes in declaration order.

    Declaration order follows the task graph root-to-leaves, so adjacent
    graph stages usually land on different nodes — the worst case for a
    controller that needed global knowledge, and therefore the honest
    case for demonstrating SurgeGuard's decentralization.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    return {name: i % n_nodes for i, name in enumerate(services)}


def pack_first(services: Sequence[str], n_nodes: int) -> Dict[str, int]:
    """Place everything on node 0 (single-node experiments)."""
    if n_nodes < 1:
        raise ValueError("need at least one node")
    return {name: 0 for name in services}


def by_depth(depths: Dict[str, int], n_nodes: int) -> Dict[str, int]:
    """Place services so consecutive task-graph *stages* alternate nodes.

    Guarantees that for ``n_nodes > 1`` every parent→child edge crosses
    nodes, maximizing the reliance on packet-carried upscale hints (the
    decentralization stress test used in the node-scaling experiments).
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    return {name: depth % n_nodes for name, depth in depths.items()}


def expand_replicas(services: Sequence[str], replicas: int) -> List[str]:
    """Expand service names to replica endpoint names, in declaration
    order with a service's replicas consecutive.

    ``replicas=1`` is the identity (replica 0 keeps the bare service
    name), so at one replica per service every placement policy maps
    the service names themselves — the golden-fingerprint seam.
    """
    if replicas < 1:
        raise ValueError("need at least one replica")
    return [replica_name(s, k) for s in services for k in range(replicas)]


def expand_depths(depths: Dict[str, int], replicas: int) -> Dict[str, int]:
    """Replica-expanded variant of a task-graph depth map: every replica
    inherits its service's stage depth (stage-alternating placement
    treats replicas of one service as one stage)."""
    if replicas < 1:
        raise ValueError("need at least one replica")
    return {
        replica_name(s, k): d for s, d in depths.items() for k in range(replicas)
    }
