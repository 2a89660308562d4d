"""The differential scenario matrix: workloads × controllers × scenarios.

One scaled representative per paper workload family ({CHAIN,
socialNetwork, hotelReservation}), crossed with the null baseline, full
SurgeGuard, and the two strongest baselines (Parties, CaladanAlgo),
under three traffic shapes:

* ``steady`` — base rate only, no disturbance;
* ``rate-spike`` — the §VI-B periodic request-rate surges;
* ``latency-surge`` — the abstract's second surge type, injected through
  :meth:`repro.cluster.network.Network.add_latency_surge` via the
  harness's ``latency_surges`` config.

Durations are deliberately small (a cell runs in seconds) — this matrix
is a *differential* net, not a performance study: with monitors armed it
must produce zero invariant violations and fingerprints bit-identical to
the committed goldens.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

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

__all__ = [
    "CONTROLLERS",
    "FAULT_CONTROLLERS",
    "FAULT_SCENARIOS",
    "HORIZONTAL_CONTROLLERS",
    "HORIZONTAL_SCENARIOS",
    "MULTINODE_CONTROLLERS",
    "MULTINODE_SCENARIOS",
    "SCENARIOS",
    "WORKLOADS",
    "ZOO_CONTROLLERS",
    "ZOO_SCENARIOS",
    "Scenario",
    "fault_matrix",
    "horizontal_matrix",
    "multinode_matrix",
    "scenario_matrix",
    "zoo_matrix",
]

#: Matrix workloads: registry key per paper workload family.
WORKLOADS: Dict[str, str] = {
    "chain": "chain",
    "socialNetwork": "readUserTimeline",
    "hotelReservation": "searchHotel",
}

#: Matrix controllers (spec-registry names — picklable and stable).
CONTROLLERS: Tuple[str, ...] = ("null", "surgeguard", "parties", "caladan")

#: Matrix traffic shapes.
SCENARIOS: Tuple[str, ...] = ("steady", "rate-spike", "latency-surge")

#: Shared cell timing: measurement [warmup, warmup+duration), then drain.
_BASE = dict(
    duration=2.0,
    warmup=1.0,
    profile_duration=1.0,
    drain=1.0,
    seed=11,
)


@dataclass(frozen=True)
class Scenario:
    """One matrix cell: its identity plus the harness config to run."""

    workload_family: str
    workload_key: str
    controller: str
    scenario: str
    config: ExperimentConfig

    @property
    def key(self) -> str:
        """Stable golden-file key, ``family/controller/scenario``."""
        return f"{self.workload_family}/{self.controller}/{self.scenario}"


def _cell_config(workload_key: str, controller: str, scenario: str) -> ExperimentConfig:
    cfg = ExperimentConfig(
        workload=workload_key,
        controller_factory=spec(controller),
        spike_magnitude=None,
        **_BASE,
    )
    if scenario == "steady":
        return cfg
    if scenario == "rate-spike":
        return replace(
            cfg,
            spike_magnitude=2.0,
            spike_len=0.5,
            spike_period=2.0,
            spike_offset=0.25,
        )
    if scenario == "latency-surge":
        # 2 ms extra per hop for half a second, mid-measurement — an
        # order of magnitude over the base inter-node hop latency.
        t0 = _BASE["warmup"] + 0.5
        return replace(cfg, latency_surges=((t0, t0 + 0.5, 2e-3),))
    raise ValueError(f"unknown scenario {scenario!r}")


#: Fault-family controllers (the resilience comparison set: no control,
#: the paper's system, and the strongest reactive baseline).
FAULT_CONTROLLERS: Tuple[str, ...] = ("null", "surgeguard", "parties")

#: Fault-family scenarios (see :mod:`repro.faults`).
FAULT_SCENARIOS: Tuple[str, ...] = (
    "loss-burst",
    "crash-during-surge",
    "stalled-controller",
)

#: Shared fault-cell RPC policy.  The 250 ms timeout sits far above the
#: steady-state latency tail (~8 ms end-to-end) but inside the worst
#: congested tails (~700 ms) — a request that slow is deeply
#: QoS-violating either way, so the error rate becomes part of the
#: controller differential.  The retry budget is the storm brake: the
#: matrix runs near saturation, where unbudgeted timeout retries turn
#: one loss burst into a permanent metastable collapse that drowns any
#: controller signal.  Every cell uses ``drain=2.0`` so the worst-case
#: call resolution (~0.9 s after the last injection) lands inside the
#: run and the drained-ledger invariants stay checkable.
_FAULT_RPC = RpcPolicy(
    timeout=0.25,
    max_retries=2,
    backoff_base=20e-3,
    retry_budget=0.1,
    retry_burst=50.0,
)

#: The periodic rate surge shared by the crash / stall fault cells
#: (identical shape to the ``rate-spike`` scenario).
_SPIKE = dict(spike_magnitude=2.0, spike_len=0.5, spike_period=2.0, spike_offset=0.25)


def _fault_cell_config(workload_key: str, controller: str, scenario: str) -> ExperimentConfig:
    cfg = ExperimentConfig(
        workload=workload_key,
        controller_factory=spec(controller),
        spike_magnitude=None,
        **_BASE,
    )
    if scenario == "loss-burst":
        # 30% loss for the middle half-second of measurement, steady
        # rate: transport errors hit every controller identically; how
        # fast the post-burst backlog drains is the differential.
        return replace(
            cfg,
            drain=2.0,
            faults=FaultPlan(loss_windows=(LossWindow(1.5, 2.0, 0.3),), rpc=_FAULT_RPC),
        )
    if scenario == "crash-during-surge":
        # The mid-chain service dies at the peak of the first surge and
        # comes back 300 ms later.
        return replace(
            cfg,
            drain=2.0,
            faults=FaultPlan(
                crashes=(ContainerCrash("chain3", 1.4, 0.3),), rpc=_FAULT_RPC
            ),
            **_SPIKE,
        )
    if scenario == "stalled-controller":
        # The decision loop is wedged across a full surge: reactive
        # controllers cannot respond for 1.2 s; SurgeGuard's data-plane
        # FirstResponder keeps running (it is not a decision cycle).
        return replace(
            cfg,
            drain=2.0,
            faults=FaultPlan(stalls=(ControllerStall(1.0, 2.2),), rpc=_FAULT_RPC),
            **_SPIKE,
        )
    raise ValueError(f"unknown fault scenario {scenario!r}")


#: Horizontal-family controllers: the replica autoscaler alone and the
#: §VII hybrid (HPA + SurgeGuard) that bridges its launch gap.
HORIZONTAL_CONTROLLERS: Tuple[str, ...] = ("hpa", "hybrid")

#: Horizontal-family scenarios.
HORIZONTAL_SCENARIOS: Tuple[str, ...] = ("replica-surge",)

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


def _horizontal_cell_config(workload_key: str, controller: str, scenario: str) -> ExperimentConfig:
    if scenario not in HORIZONTAL_SCENARIOS:
        raise ValueError(f"unknown horizontal scenario {scenario!r}")
    return ExperimentConfig(
        workload=workload_key,
        controller_factory=spec(controller, **_HPA_CELL),
        # Replicas are real here: start at 1 per service behind the LB,
        # with node budget sized to host the autoscaler's max.
        replicas=1,
        lb_policy="round_robin",
        replica_capacity=_HPA_CELL["max_replicas"],
        **_SPIKE,
        **_BASE,
    )


def horizontal_matrix(
    *,
    workloads: Optional[List[str]] = None,
    controllers: Optional[List[str]] = None,
    scenarios: Optional[List[str]] = None,
) -> List[Scenario]:
    """The replica-scaling cells: every workload family × {hpa, hybrid}
    under the standard periodic surge, with the LB tier armed."""
    families = list(WORKLOADS) if workloads is None else workloads
    ctrls = list(HORIZONTAL_CONTROLLERS) if controllers is None else controllers
    shapes = list(HORIZONTAL_SCENARIOS) if scenarios is None else scenarios
    cells = []
    for family in families:
        try:
            workload_key = WORKLOADS[family]
        except KeyError:
            raise KeyError(
                f"unknown workload family {family!r}; known: {sorted(WORKLOADS)}"
            ) from None
        for controller in ctrls:
            if controller not in HORIZONTAL_CONTROLLERS:
                raise KeyError(
                    f"unknown horizontal controller {controller!r}; "
                    f"known: {list(HORIZONTAL_CONTROLLERS)}"
                )
            for scenario in shapes:
                if scenario not in HORIZONTAL_SCENARIOS:
                    raise KeyError(
                        f"unknown horizontal scenario {scenario!r}; "
                        f"known: {list(HORIZONTAL_SCENARIOS)}"
                    )
                cells.append(
                    Scenario(
                        workload_family=family,
                        workload_key=workload_key,
                        controller=controller,
                        scenario=scenario,
                        config=_horizontal_cell_config(
                            workload_key, controller, scenario
                        ),
                    )
                )
    return cells


#: Controller-zoo family: the related-work plugins of DESIGN.md §11.
ZOO_CONTROLLERS: Tuple[str, ...] = ("statuscale", "lsram")

#: Zoo scenarios: the vertical-scaling shapes plus the replica-armed
#: surge, which exercises both plugins on ``svc@k`` replica endpoints
#: (targets resolved through the replica fallback).
ZOO_SCENARIOS: Tuple[str, ...] = ("steady", "spike", "replica-surge")


def _zoo_cell_config(workload_key: str, controller: str, scenario: str) -> ExperimentConfig:
    cfg = ExperimentConfig(
        workload=workload_key,
        controller_factory=spec(controller),
        spike_magnitude=None,
        **_BASE,
    )
    if scenario == "steady":
        return cfg
    if scenario == "spike":
        return replace(cfg, **_SPIKE)
    if scenario == "replica-surge":
        # Static 2-replica deployment behind the LB (no horizontal
        # controller): the zoo plugin sizes each replica endpoint
        # vertically while the surge runs.
        return replace(
            cfg,
            replicas=2,
            lb_policy="round_robin",
            replica_capacity=2,
            **_SPIKE,
        )
    raise ValueError(f"unknown zoo scenario {scenario!r}")


def zoo_matrix(
    *,
    workloads: Optional[List[str]] = None,
    controllers: Optional[List[str]] = None,
    scenarios: Optional[List[str]] = None,
) -> List[Scenario]:
    """The controller-zoo cells: every workload family × {statuscale,
    lsram} × {steady, spike, replica-surge}."""
    families = list(WORKLOADS) if workloads is None else workloads
    ctrls = list(ZOO_CONTROLLERS) if controllers is None else controllers
    shapes = list(ZOO_SCENARIOS) if scenarios is None else scenarios
    cells = []
    for family in families:
        try:
            workload_key = WORKLOADS[family]
        except KeyError:
            raise KeyError(
                f"unknown workload family {family!r}; known: {sorted(WORKLOADS)}"
            ) from None
        for controller in ctrls:
            if controller not in ZOO_CONTROLLERS:
                raise KeyError(
                    f"unknown zoo controller {controller!r}; "
                    f"known: {list(ZOO_CONTROLLERS)}"
                )
            for scenario in shapes:
                if scenario not in ZOO_SCENARIOS:
                    raise KeyError(
                        f"unknown zoo scenario {scenario!r}; "
                        f"known: {list(ZOO_SCENARIOS)}"
                    )
                cells.append(
                    Scenario(
                        workload_family=family,
                        workload_key=workload_key,
                        controller=controller,
                        scenario=scenario,
                        config=_zoo_cell_config(workload_key, controller, scenario),
                    )
                )
    return cells


#: Multinode-family controllers: no control and the paper's system.
MULTINODE_CONTROLLERS: Tuple[str, ...] = ("null", "surgeguard")

#: Multinode-family scenarios (distinct names — the keys must not collide
#: with the base matrix's ``family/controller/steady`` cells).
MULTINODE_SCENARIOS: Tuple[str, ...] = ("multinode-steady", "multinode-spike")


def _multinode_cell_config(workload_key: str, controller: str, scenario: str) -> ExperimentConfig:
    # The only cells on a multi-node fabric without jitter.
    cfg = ExperimentConfig(
        workload=workload_key,
        controller_factory=spec(controller),
        spike_magnitude=None,
        n_nodes=4,
        network=NetworkConfig(jitter=0.0),
        **_BASE,
    )
    if scenario == "multinode-steady":
        return cfg
    if scenario == "multinode-spike":
        return replace(cfg, **_SPIKE)
    raise ValueError(f"unknown multinode scenario {scenario!r}")


def multinode_matrix(
    *,
    workloads: Optional[List[str]] = None,
    controllers: Optional[List[str]] = None,
    scenarios: Optional[List[str]] = None,
) -> List[Scenario]:
    """The multi-node cells: every workload family × {null, surgeguard}
    × {steady, spike} on a 4-node, jitter-free fabric."""
    families = list(WORKLOADS) if workloads is None else workloads
    ctrls = list(MULTINODE_CONTROLLERS) if controllers is None else controllers
    shapes = list(MULTINODE_SCENARIOS) if scenarios is None else scenarios
    cells = []
    for family in families:
        try:
            workload_key = WORKLOADS[family]
        except KeyError:
            raise KeyError(
                f"unknown workload family {family!r}; known: {sorted(WORKLOADS)}"
            ) from None
        for controller in ctrls:
            if controller not in MULTINODE_CONTROLLERS:
                raise KeyError(
                    f"unknown multinode controller {controller!r}; "
                    f"known: {list(MULTINODE_CONTROLLERS)}"
                )
            for scenario in shapes:
                if scenario not in MULTINODE_SCENARIOS:
                    raise KeyError(
                        f"unknown multinode scenario {scenario!r}; "
                        f"known: {list(MULTINODE_SCENARIOS)}"
                    )
                cells.append(
                    Scenario(
                        workload_family=family,
                        workload_key=workload_key,
                        controller=controller,
                        scenario=scenario,
                        config=_multinode_cell_config(workload_key, controller, scenario),
                    )
                )
    return cells


def fault_matrix(
    *,
    controllers: Optional[List[str]] = None,
    scenarios: Optional[List[str]] = None,
) -> List[Scenario]:
    """The fault-injection cells (chain family only — the crash target
    is a mid-chain service, and one family keeps the matrix cheap)."""
    ctrls = list(FAULT_CONTROLLERS) if controllers is None else controllers
    shapes = list(FAULT_SCENARIOS) if scenarios is None else scenarios
    cells = []
    for controller in ctrls:
        if controller not in FAULT_CONTROLLERS:
            raise KeyError(
                f"unknown fault controller {controller!r}; "
                f"known: {list(FAULT_CONTROLLERS)}"
            )
        for scenario in shapes:
            if scenario not in FAULT_SCENARIOS:
                raise KeyError(
                    f"unknown fault scenario {scenario!r}; "
                    f"known: {list(FAULT_SCENARIOS)}"
                )
            cells.append(
                Scenario(
                    workload_family="chain",
                    workload_key=WORKLOADS["chain"],
                    controller=controller,
                    scenario=scenario,
                    config=_fault_cell_config(WORKLOADS["chain"], controller, scenario),
                )
            )
    return cells


def scenario_matrix(
    *,
    workloads: Optional[List[str]] = None,
    controllers: Optional[List[str]] = None,
    scenarios: Optional[List[str]] = None,
) -> List[Scenario]:
    """Build the (optionally filtered) scenario list in stable order."""
    families = list(WORKLOADS) if workloads is None else workloads
    ctrls = list(CONTROLLERS) if controllers is None else controllers
    shapes = list(SCENARIOS) if scenarios is None else scenarios
    cells = []
    for family in families:
        try:
            workload_key = WORKLOADS[family]
        except KeyError:
            raise KeyError(
                f"unknown workload family {family!r}; known: {sorted(WORKLOADS)}"
            ) from None
        for controller in ctrls:
            for scenario in shapes:
                if scenario not in SCENARIOS:
                    raise KeyError(
                        f"unknown scenario {scenario!r}; known: {list(SCENARIOS)}"
                    )
                cells.append(
                    Scenario(
                        workload_family=family,
                        workload_key=workload_key,
                        controller=controller,
                        scenario=scenario,
                        config=_cell_config(workload_key, controller, scenario),
                    )
                )
    return cells
