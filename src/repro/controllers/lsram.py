"""LSRAM — lightweight SLO resource allocation by gradient descent
(Hu et al., arXiv:2411.11493), reproduced as a ``repro.controllers``
plugin.

LSRAM keeps a *lightweight* per-service latency-vs-resource model —
here the processor-sharing approximation ``L_i(c) ≈ a_i / c`` with the
pressure coefficient ``a_i`` estimated online from each window's
(cores, latency) observation and exponentially smoothed — and re-solves
the cluster-wide SLO allocation every decision cycle by **projected
gradient descent**:

    minimize   Σ_i  max(0, a_i/c_i − SLO_i)²/SLO_i²  +  λ·Σ_i c_i
    subject to Σ_i c_i ≤ B   (per-node core budget),
               c_i ≥ max(MIN_CORES, demand_i · DEMAND_MARGIN)

The hinge term charges only SLO *violations* (normalized, so services
with different SLOs are commensurable); the λ term is the energy
pressure that walks over-provisioned services back down; the projection
step keeps every iterate feasible.  The warm-started solve from the
current allocation converges in a few dozen iterations — the "fast
scaling under highly dynamic load" pitch of the paper.

The allocation floor is the crucial stabilizer.  ``demand_i`` is the
service's *measured* core consumption (busy-core delta per decision
interval), probed multiplicatively upward while the service runs
saturated — demand above the current allocation is unobservable, so a
saturated service's floor grows by ``PROBE_GROWTH`` per cycle until its
usage falls back under the saturation threshold.  Floors keep both
failure modes of a pure latency solve out:

* the energy term can never walk an allocation below what the service
  is actually consuming (early drafts bled every satisfied service by
  ~λ·lr·iters cores per cycle and met each surge from the global
  floor);
* under scarcity the projection reclaims only *idle* slack — in this
  simulator per-container ``execTime`` includes downstream round
  trips, so during a bottleneck every upstream ancestor also looks
  SLO-violating, and a latency-only solve steals from the one truly
  saturated container to feed its blocked ancestors (the
  dependence-blindness SurgeGuard §III attacks).  Usage floors make
  that theft impossible: the hinge gradient only steers the surplus.

Fidelity caveats vs the source paper:

* LSRAM's full pipeline includes a workload predictor feeding the
  allocator; this reproduction solves from *measured* windows only (the
  gradient-descent SLO allocator is the reproduced contribution);
* the paper allocates container CPU quotas across a Kubernetes cluster;
  here the budget ``B`` is each simulated node's core budget and the
  solve runs per node (shared-nothing, same enforcement every other
  controller faces);
* SLOs are the harness's profiled 2×-average ``expected_exec_time``
  targets — identical limits to every baseline, per the source paper's
  own per-service SLO formulation.

The solver is a pure module-level function (:func:`solve_allocation`)
so the property suite can pin feasibility (budget + floors respected)
and self-improvement (the solution's objective never exceeds the
projected starting point's) on synthetic models.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.controllers.base import Controller, set_cores

__all__ = [
    "LsramController",
    "lower_bounds",
    "objective",
    "project",
    "solve_allocation",
]


#: Decision (re-solve) interval.
INTERVAL = 0.25
#: EWMA decay factor for the per-service pressure coefficient ``a_i``
#: and demand estimate when the observation *falls* (1.0 = trust only
#: the latest window).  Rising observations are adopted instantly — the
#: processor-sharing model underestimates queueing blow-up, so the
#: allocator must never lag a congestion onset behind an average.
SMOOTHING = 0.4
#: SLO headroom: the solver targets ``SLO_MARGIN × SLO`` so the
#: model-mismatch around saturation (a/c is far too optimistic near
#: ρ→1) is absorbed as allocated slack instead of tail latency.
SLO_MARGIN = 0.7
#: Gradient-descent step size.
LR = 0.3
#: Gradient-descent iterations per solve (warm-started, so few).
ITERATIONS = 40
#: Energy pressure λ: marginal cost of one allocated core in the
#: objective, pulling satisfied services back toward their floors.
ENERGY_WEIGHT = 0.02
#: Allocation floor per container.
MIN_CORES = 0.5
#: Floor headroom over measured demand (see module docstring).
DEMAND_MARGIN = 1.5
#: usage/cores above this ⇒ the service is *saturated* and its true
#: demand is unobservable; probe upward instead of trusting usage.
SAT_THRESHOLD = 0.85
#: Multiplicative demand probe applied to a saturated allocation.
PROBE_GROWTH = 1.6
#: Actuation quantum: allocations move only in multiples of this (and
#: only when the solve moved a container at least one quantum).
QUANTUM = 0.25


def objective(
    cores: Sequence[float],
    pressure: Sequence[float],
    slo: Sequence[float],
    energy_weight: float,
) -> float:
    """LSRAM's allocation objective (see module docstring)."""
    total = 0.0
    for c, a, s in zip(cores, pressure, slo):
        v = max(0.0, a / c - s) / s
        total += v * v + energy_weight * c
    return total


def lower_bounds(demand: Sequence[float], budget: float) -> List[float]:
    """Per-service allocation floors: measured demand plus margin,
    shrunk proportionally (above ``MIN_CORES``) if the raw floors
    exceed the budget — the projection must always have a feasible set
    to land in, and on a modeled-infeasible node proportional best
    effort is the least-bad answer.
    """
    lo = [max(MIN_CORES, d * DEMAND_MARGIN) for d in demand]
    excess = sum(lo) - budget
    if excess <= 0:
        return lo
    slack = [x - MIN_CORES for x in lo]
    total = sum(slack)
    if total <= 0:
        return lo
    shrink = min(1.0, excess / total)
    return [x - s * shrink for x, s in zip(lo, slack)]


def project(
    cores: Sequence[float], budget: float, lower: Sequence[float]
) -> List[float]:
    """Projection onto ``{c_i >= lower_i, Σc <= budget}``.

    Floors first, then removes any budget excess proportionally to each
    service's slack above its floor (services at the floor give nothing
    back).  When ``budget < Σ lower`` the floors win — the node was
    infeasible to begin with, and the floors are the least-bad answer.
    """
    c = [max(x, lo) for x, lo in zip(cores, lower)]
    excess = sum(c) - budget
    if excess <= 0:
        return c
    slack = [x - lo for x, lo in zip(c, lower)]
    total = sum(slack)
    if total <= 0:
        return c
    shrink = min(1.0, excess / total)
    return [x - s * shrink for x, s in zip(c, slack)]


def solve_allocation(
    current: Sequence[float],
    pressure: Sequence[float],
    slo: Sequence[float],
    budget: float,
    lower: Optional[Sequence[float]] = None,
) -> List[float]:
    """Projected gradient descent from ``current``; returns a feasible
    allocation whose objective is no worse than ``project(current)``'s.

    ``lower`` holds the per-service floors (``MIN_CORES`` everywhere
    when omitted); callers must pass floors that fit the budget (see
    :func:`lower_bounds`) for the budget constraint to be satisfiable.
    Deterministic: fixed iteration count, no randomness, pure floats.
    """
    n = len(current)
    assert len(pressure) == n and len(slo) == n
    lo = [MIN_CORES] * n if lower is None else list(lower)
    assert len(lo) == n
    c = project(current, budget, lo)
    best = list(c)
    best_f = objective(best, pressure, slo, ENERGY_WEIGHT)
    for _ in range(ITERATIONS):
        grad = []
        for ci, a, s in zip(c, pressure, slo):
            v = max(0.0, a / ci - s) / s
            # d/dc [ max(0, a/c − s)²/s² ] = −2·v·a / (s·c²)
            g = -2.0 * v * a / (s * ci * ci) + ENERGY_WEIGHT
            grad.append(g)
        c = project(
            [ci - LR * g for ci, g in zip(c, grad)],
            budget,
            lo,
        )
        f = objective(c, pressure, slo, ENERGY_WEIGHT)
        if f < best_f:
            best_f = f
            best = list(c)
    return best


class LsramController(Controller):
    """Per-cycle gradient-descent SLO allocation under the node budget."""

    name = "lsram"

    def __init__(self):
        super().__init__()
        #: Smoothed pressure coefficient a_i per container; absent until
        #: the container's first non-empty window (cold services hold
        #: their current allocation and are charged to the budget as-is).
        self._pressure: Dict[str, float] = {}
        #: Smoothed demand estimate (cores actually consumed) per
        #: container — the allocation floor input.
        self._demand: Dict[str, float] = {}
        #: Last seen busy-core integral per container (usage deltas).
        self._last_busy: Dict[str, float] = {}

    def loops(self):
        return [(INTERVAL, self, "_decide")]

    def _on_start(self) -> None:
        assert self.cluster is not None
        self._pressure = {}
        self._demand = {}
        self._last_busy = {}
        for name, c in self.cluster.containers.items():
            c.sync()
            self._last_busy[name] = c.busy_core_seconds

    # ------------------------------------------------------------- modeling
    def _fold(self, store: Dict[str, float], name: str, observed: float) -> None:
        """EWMA with instant upward adoption (see ``SMOOTHING``)."""
        prev = store.get(name)
        if prev is None or observed > prev:
            store[name] = observed
        else:
            store[name] = (1 - SMOOTHING) * prev + SMOOTHING * observed

    def _observe(self) -> None:
        """Fold this cycle's runtime windows into the smoothed model."""
        assert self.cluster is not None
        for name, runtime in self.cluster.runtimes.items():
            container = self.cluster.containers[name]
            container.sync()
            prev_busy = self._last_busy.get(name, container.busy_core_seconds)
            self._last_busy[name] = container.busy_core_seconds
            usage = (container.busy_core_seconds - prev_busy) / INTERVAL
            cores = container.cores
            if usage >= SAT_THRESHOLD * cores:
                # Saturated: true demand is above the ceiling and
                # unobservable — probe upward multiplicatively.
                demand = cores * PROBE_GROWTH
                self._demand[name] = max(self._demand.get(name, 0.0), demand)
            else:
                self._fold(self._demand, name, usage)
            window = runtime.collect()
            if window.count == 0:
                continue
            self._fold(self._pressure, name, window.avg_exec_time * cores)

    # ------------------------------------------------------------- decision
    def _decide(self) -> None:
        assert self.cluster is not None and self.targets is not None
        self.stats.decision_cycles += 1
        self._observe()
        for node in self.cluster.nodes:
            modeled: List[Tuple[str, float, float, float, float]] = []
            reserved = 0.0
            for name, container in node.containers.items():
                if container.decommissioned:
                    continue
                a = self._pressure.get(name)
                if a is None:
                    reserved += container.cores
                    continue
                slo = SLO_MARGIN * self.targets.expected_exec_time[name]
                demand = self._demand.get(name, 0.0)
                modeled.append((name, container.cores, a, slo, demand))
            if not modeled:
                continue
            budget = node.cores - reserved
            lo = lower_bounds([m[4] for m in modeled], budget)
            solution = solve_allocation(
                [m[1] for m in modeled],
                [m[2] for m in modeled],
                [m[3] for m in modeled],
                budget,
                lower=lo,
            )
            self._actuate(modeled, solution)

    def _actuate(
        self,
        modeled: List[Tuple[str, float, float, float, float]],
        solution: List[float],
    ) -> None:
        """Apply the solve, quantized; releases first so the node budget
        always has room for the grants of the same cycle."""
        assert self.cluster is not None
        moves: List[Tuple[str, float, float]] = []
        for (name, cores, _a, _s, _d), target in zip(modeled, solution):
            quantized = max(
                round(target / QUANTUM) * QUANTUM, MIN_CORES
            )
            if quantized < cores:
                # Releases are rate-limited to one quantum per cycle:
                # grants must land instantly (surge reaction is the
                # whole point) but reclaim may stroll — a symmetric
                # actuator walks the whole cluster to its floors within
                # a few cycles and meets every surge from scratch.
                quantized = max(quantized, cores - QUANTUM)
            if abs(quantized - cores) >= QUANTUM - 1e-9:
                moves.append((name, cores, quantized))
        for name, cores, new in sorted(
            moves, key=lambda m: m[2] - m[1]
        ):  # releases (negative delta) before grants
            if new > cores:
                node = self.cluster.node_of(name)
                if node.free_cores + 1e-9 < new - cores:
                    new = cores + node.free_cores
                    if new - cores < QUANTUM - 1e-9:
                        continue
            set_cores(self.cluster, self.stats, name, new)
