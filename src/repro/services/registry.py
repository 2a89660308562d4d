"""Workload registry — Table III plus per-workload experiment defaults.

The registry maps the paper's five (workload, action) pairs to:

* an :class:`~repro.services.taskgraph.AppSpec` builder,
* the *scaled* experiment defaults (base request rate, node size,
  Little's-Law pool size) used throughout the benchmark harness.

Scaling rationale (see DESIGN.md): the testbed runs ~34 initial cores
per node at multi-krps; the simulation runs the same topologies at
sub-node scale so a full figure regenerates in minutes.  Two invariants
of the paper's methodology are preserved mechanically:

* **initial allocations sit near the knee** —
  :func:`calibrate_initial_cores` sets each container's allocation to
  ``demand / target_util`` at the base rate (the paper searches for the
  highest-steady-state-throughput allocation; same effect);
* **node budgets leave ~1/3 headroom** — the paper initializes the
  workload to 2/3 of the 52 workload cores; :func:`node_budget` applies
  the same ratio.
* **pool sizes follow Little's Law (Eq. 1)** at the scaled rate, so
  fixed pools bind at the same *relative* surge magnitudes as the
  512-connection pools do at testbed rates.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.services.chain import chain_app
from repro.services.hotel_reservation import recommend_hotel_app, search_hotel_app
from repro.services.social_network import compose_post_app, read_user_timeline_app
from repro.services.taskgraph import AppSpec, ServiceSpec

__all__ = [
    "WORKLOADS",
    "WorkloadProfile",
    "calibrate_initial_cores",
    "get_workload",
    "node_budget",
    "workload_table",
]

#: The paper's initial frequency (1.6 GHz) — calibration assumes it.
_F_INIT = 1.6e9


@dataclass(frozen=True)
class WorkloadProfile:
    """One Table III row plus scaled-experiment defaults."""

    key: str
    workload: str
    action: str
    builder: Callable[..., AppSpec]
    #: Scaled open-loop base request rate (req/s), near the knee.
    base_rate: float
    #: Fixed-pool size at the scaled rate (None for conn-per-request apps).
    scaled_pool: Optional[int]
    #: Table III value (512 or None for ∞).
    paper_pool: Optional[int]

    def build(self, *, scaled: bool = True) -> AppSpec:
        """Build the app; ``scaled=True`` applies scaled pools + knee calibration."""
        if self.paper_pool is None:
            app = self.builder()
        else:
            app = self.builder(pool_size=self.scaled_pool if scaled else self.paper_pool)
        if scaled:
            app = calibrate_initial_cores(app, self.base_rate)
        return app


def _service_demand(spec: ServiceSpec, rate: float, frequency: float) -> float:
    """Mean cores needed by one service at ``rate`` req/s (M/G/∞ view)."""
    cycles = spec.pre_work.mean_cycles + spec.post_work.mean_cycles
    return rate * cycles / frequency


def calibrate_initial_cores(
    app: AppSpec,
    base_rate: float,
    *,
    target_util: float = 0.7,
    granularity: float = 0.5,
    frequency: float = _F_INIT,
    min_cores: float = 0.5,
) -> AppSpec:
    """Return ``app`` with initial cores set near the knee at ``base_rate``.

    Each service gets ``ceil((demand / target_util) / granularity) ·
    granularity`` cores, floored at ``min_cores`` — the simulation
    analogue of the artifact's "search for the allocation supporting the
    highest request rate, base rate slightly below the knee".
    """
    if base_rate <= 0:
        raise ValueError("base_rate must be positive")
    if not 0 < target_util < 1:
        raise ValueError("target_util must be in (0, 1)")
    new_services = []
    for spec in app.services:
        demand = _service_demand(spec, base_rate, frequency)
        cores = max(min_cores, math.ceil(demand / target_util / granularity) * granularity)
        new_services.append(dataclasses.replace(spec, initial_cores=cores))
    return dataclasses.replace(app, services=tuple(new_services))


def node_budget(
    app: AppSpec,
    *,
    headroom: float = 0.65,
    n_nodes: int = 1,
    replica_capacity: int = 1,
) -> float:
    """Per-node workload core budget, paper-style (initial = 2/3 of budget).

    For multi-node runs the per-node budget is kept at the single-node
    value (the paper keeps 52 workload cores per node as it scales out),
    which is what makes larger clusters *less* resource-constrained.

    ``replica_capacity`` sizes the budget for horizontal scaling: the
    cluster can host up to that many replicas of every service at their
    initial allocations (plus the usual headroom).  The default of 1
    hosts one replica per service.
    """
    if replica_capacity < 1:
        raise ValueError("replica_capacity must be >= 1")
    total_init = sum(s.initial_cores for s in app.services) * replica_capacity
    per_node_init = total_init / n_nodes
    return max(math.ceil(per_node_init / headroom), math.ceil(total_init / headroom / n_nodes))


WORKLOADS: Dict[str, WorkloadProfile] = {
    "chain": WorkloadProfile(
        key="chain",
        workload="CHAIN",
        action="-",
        builder=chain_app,
        base_rate=1800.0,
        scaled_pool=16,
        paper_pool=512,
    ),
    "readUserTimeline": WorkloadProfile(
        key="readUserTimeline",
        workload="socialNetwork",
        action="ReadUserTimeline",
        builder=read_user_timeline_app,
        base_rate=1100.0,
        scaled_pool=12,
        paper_pool=512,
    ),
    "composePost": WorkloadProfile(
        key="composePost",
        workload="socialNetwork",
        action="ComposePost",
        builder=compose_post_app,
        base_rate=900.0,
        scaled_pool=20,
        paper_pool=512,
    ),
    "searchHotel": WorkloadProfile(
        key="searchHotel",
        workload="hotelReservation",
        action="searchHotel",
        builder=search_hotel_app,
        base_rate=900.0,
        scaled_pool=None,
        paper_pool=None,
    ),
    "recommendHotel": WorkloadProfile(
        key="recommendHotel",
        workload="hotelReservation",
        action="recommendHotel",
        builder=recommend_hotel_app,
        base_rate=1100.0,
        scaled_pool=None,
        paper_pool=None,
    ),
}


def get_workload(key: str) -> WorkloadProfile:
    """Look up a workload profile by key (see :data:`WORKLOADS`)."""
    try:
        return WORKLOADS[key]
    except KeyError:
        raise KeyError(
            f"unknown workload {key!r}; available: {sorted(WORKLOADS)}"
        ) from None


def workload_table() -> List[Tuple[str, str, int, str, str]]:
    """Regenerate Table III: (workload, action, depth, RPC, pool label)."""
    rows = []
    for profile in WORKLOADS.values():
        app = profile.build(scaled=False)
        rows.append(
            (
                profile.workload,
                profile.action,
                app.depth,
                app.rpc_framework,
                app.threadpool_label,
            )
        )
    return rows
