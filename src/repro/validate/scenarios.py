"""The differential scenario matrix: one table of cell families.

Each entry of :data:`FAMILIES` crosses its workload families with its
controllers and its scenarios; :func:`matrix` walks the table in order
(family, then workload, then controller, then scenario).  The base
family runs one scaled representative per paper workload family
({CHAIN, socialNetwork, hotelReservation}) under the null baseline,
full SurgeGuard, and the two strongest baselines (Parties,
CaladanAlgo), under three traffic shapes:

* ``steady`` — base rate only, no disturbance;
* ``rate-spike`` — the §VI-B periodic request-rate surges;
* ``latency-surge`` — the abstract's second surge type, injected through
  :meth:`repro.cluster.network.Network.add_latency_surge` via the
  harness's ``latency_surges`` config.

The other families add faults, replica scaling (§VII), the related-work
controller zoo, and a jitter-free multi-node fabric.  Durations are
deliberately small (a cell runs in seconds) — this matrix is a
*differential* net, not a performance study: with monitors armed it
must produce zero invariant violations and fingerprints bit-identical to
the committed goldens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.cluster.network import NetworkConfig
from repro.exec.specs import spec
from repro.experiments.harness import ExperimentConfig
from repro.faults.plan import (
    ContainerCrash,
    ControllerStall,
    FaultPlan,
    LossWindow,
    RpcPolicy,
)

__all__ = ["FAMILIES", "WORKLOADS", "Family", "Scenario", "matrix", "names"]

#: Matrix workloads: registry key per paper workload family.
WORKLOADS: Dict[str, str] = {
    "chain": "chain",
    "socialNetwork": "readUserTimeline",
    "hotelReservation": "searchHotel",
}

#: Shared cell timing: measurement [warmup, warmup+duration), then drain.
_BASE = dict(
    duration=2.0,
    warmup=1.0,
    profile_duration=1.0,
    drain=1.0,
    seed=11,
)

#: The periodic rate surge (the ``rate-spike`` shape), shared by every
#: family's surge scenarios.
_SPIKE = dict(spike_magnitude=2.0, spike_len=0.5, spike_period=2.0, spike_offset=0.25)

#: Shared fault-cell RPC policy.  The 250 ms timeout sits far above the
#: steady-state latency tail (~8 ms end-to-end) but inside the worst
#: congested tails (~700 ms) — a request that slow is deeply
#: QoS-violating either way, so the error rate becomes part of the
#: controller differential.  The retry budget is the storm brake: the
#: matrix runs near saturation, where unbudgeted timeout retries turn
#: one loss burst into a permanent metastable collapse that drowns any
#: controller signal.  Every fault cell uses ``drain=2.0`` so the
#: worst-case call resolution (~0.9 s after the last injection) lands
#: inside the run and the drained-ledger invariants stay checkable.
_FAULT_RPC = RpcPolicy(
    timeout=0.25,
    max_retries=2,
    backoff_base=20e-3,
    retry_budget=0.1,
    retry_burst=50.0,
)

#: HPA knobs for the horizontal cells.  The tight interval and short
#: launch delay make the autoscaler actually fire inside a 2 s
#: measurement window; ``scale_in_patience`` is set beyond the cell
#: horizon so no replica is reaped mid-run (keeps every container in
#: the final-allocation fingerprint with positive cores).
_HPA_CELL = dict(
    interval=0.25,
    launch_delay=0.3,
    max_replicas=3,
    scale_in_patience=40,
)


@dataclass(frozen=True)
class Family:
    """One cell family: the names it crosses and what its cells share."""

    workloads: Tuple[str, ...]
    controllers: Tuple[str, ...]
    #: Scenario name -> its ``ExperimentConfig`` overrides, in order.
    scenarios: Mapping[str, Mapping[str, object]]
    #: Overrides every cell of the family shares.
    shared: Mapping[str, object] = field(default_factory=dict)
    #: Keyword params of every cell's controller spec.
    params: Mapping[str, object] = field(default_factory=dict)


#: The matrix, family by family, in cell order.
FAMILIES: Dict[str, Family] = {
    "base": Family(
        workloads=tuple(WORKLOADS),
        controllers=("null", "surgeguard", "parties", "caladan"),
        scenarios={
            "steady": {},
            "rate-spike": _SPIKE,
            # 2 ms extra per hop for half a second, mid-measurement — an
            # order of magnitude over the base inter-node hop latency.
            "latency-surge": dict(
                latency_surges=(
                    (_BASE["warmup"] + 0.5, _BASE["warmup"] + 1.0, 2e-3),
                ),
            ),
        },
    ),
    # Chain only: the crash target is a mid-chain service, and one
    # workload keeps the family cheap.  Controllers are the resilience
    # comparison set: no control, the paper's system, and the strongest
    # reactive baseline.
    "faults": Family(
        workloads=("chain",),
        controllers=("null", "surgeguard", "parties"),
        scenarios={
            # 30% loss for the middle half-second of measurement, steady
            # rate: transport errors hit every controller identically;
            # how fast the post-burst backlog drains is the differential.
            "loss-burst": dict(
                faults=FaultPlan(
                    loss_windows=(LossWindow(1.5, 2.0, 0.3),), rpc=_FAULT_RPC
                ),
            ),
            # The mid-chain service dies at the peak of the first surge
            # and comes back 300 ms later.
            "crash-during-surge": dict(
                faults=FaultPlan(
                    crashes=(ContainerCrash("chain3", 1.4, 0.3),), rpc=_FAULT_RPC
                ),
                **_SPIKE,
            ),
            # The decision loop is wedged across a full surge: reactive
            # controllers cannot respond for 1.2 s; SurgeGuard's
            # data-plane FirstResponder keeps running (it is not a
            # decision cycle).
            "stalled-controller": dict(
                faults=FaultPlan(
                    stalls=(ControllerStall(1.0, 2.2),), rpc=_FAULT_RPC
                ),
                **_SPIKE,
            ),
        },
        shared=dict(drain=2.0),
    ),
    # The replica autoscaler alone and the §VII hybrid (HPA + SurgeGuard)
    # that bridges its launch gap.
    "horizontal": Family(
        workloads=tuple(WORKLOADS),
        controllers=("hpa", "hybrid"),
        scenarios={
            # Start at 1 replica per service behind the LB, with node
            # budget sized to host the autoscaler's max.
            "replica-surge": dict(
                lb_policy="round_robin",
                replica_capacity=_HPA_CELL["max_replicas"],
                **_SPIKE,
            ),
        },
        params=_HPA_CELL,
    ),
    # The related-work plugins of DESIGN.md §11.
    "zoo": Family(
        workloads=tuple(WORKLOADS),
        controllers=("statuscale", "lsram"),
        scenarios={
            "steady": {},
            "spike": _SPIKE,
            # Static 2-replica deployment behind the LB (no horizontal
            # controller): the zoo plugin sizes each ``svc@k`` replica
            # endpoint vertically while the surge runs.
            "replica-surge": dict(
                replicas=2, lb_policy="round_robin", replica_capacity=2, **_SPIKE
            ),
        },
    ),
    # The only cells on a multi-node fabric without jitter.  The
    # scenario names differ from the base ones so the keys cannot
    # collide with the base family's ``family/controller/steady`` cells.
    "multinode": Family(
        workloads=tuple(WORKLOADS),
        controllers=("null", "surgeguard"),
        scenarios={"multinode-steady": {}, "multinode-spike": _SPIKE},
        shared=dict(n_nodes=4, network=NetworkConfig(jitter=0.0)),
    ),
}


@dataclass(frozen=True)
class Scenario:
    """One matrix cell: its identity plus the harness config to run."""

    workload_family: str
    controller: str
    scenario: str
    config: ExperimentConfig

    @property
    def key(self) -> str:
        """Stable golden-file key, ``family/controller/scenario``."""
        return f"{self.workload_family}/{self.controller}/{self.scenario}"


def names(axis: str) -> List[str]:
    """Every name the table knows on one axis (``"workloads"``,
    ``"controllers"`` or ``"scenarios"``), in table order."""
    return list(dict.fromkeys(n for f in FAMILIES.values() for n in getattr(f, axis)))


def _selected(axis: str, known: List[str], chosen: Optional[Iterable[str]]):
    """The names ``chosen`` on one axis, all of ``known`` for ``None``."""
    if chosen is None:
        return set(known)
    unknown = sorted(set(chosen).difference(known))
    if unknown:
        raise KeyError(f"unknown {axis} {unknown}; known: {known}")
    return set(chosen)


def matrix(
    *,
    families: Optional[Iterable[str]] = None,
    workloads: Optional[Iterable[str]] = None,
    controllers: Optional[Iterable[str]] = None,
    scenarios: Optional[Iterable[str]] = None,
) -> List[Scenario]:
    """The (optionally filtered) cells in table order.

    Each filter keeps the cells whose name on that axis it lists.  A
    name no family knows raises :class:`KeyError`; a known name selects
    nothing from a family that lacks it, so ``controllers=["caladan"]``
    keeps base cells only.
    """
    fams = _selected("families", list(FAMILIES), families)
    wls = _selected("workloads", names("workloads"), workloads)
    ctrls = _selected("controllers", names("controllers"), controllers)
    shapes = _selected("scenarios", names("scenarios"), scenarios)
    return [
        Scenario(
            workload,
            controller,
            scenario,
            ExperimentConfig(
                workload=WORKLOADS[workload],
                controller_factory=spec(controller, **fam.params),
                **{"spike_magnitude": None, **_BASE, **fam.shared, **overrides},
            ),
        )
        for name, fam in FAMILIES.items()
        if name in fams
        for workload in fam.workloads
        if workload in wls
        for controller in fam.controllers
        if controller in ctrls
        for scenario, overrides in fam.scenarios.items()
        if scenario in shapes
    ]
