"""Per-container QoS targets — the artifact's config-file contents.

The paper sets two parameters per container (§IV "SurgeGuard
Parameters"): ``expectedExecMetric`` and ``expectedTimeFromStart``,
obtained by profiling the application at low load for 1–2 minutes and
taking **2× the measured averages** (the methodology of Dirigent and
Nightcore).  The baselines use the analogous per-container latency
limit on raw execTime ("we set the same per-container QoS limits for
all three controllers").

:meth:`TargetConfig.from_windows` implements that profiling recipe from
one low-load run's collected runtime windows; the experiment harness
drives it automatically before each measured run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Mapping

from repro.cluster.loadbalancer import service_of_name
from repro.cluster.runtime import RuntimeWindow

__all__ = ["TargetConfig"]


class _ReplicaFallback(dict):
    """Per-container target dict that resolves replica endpoint names.

    Stateless replicas share their service's profile, so a lookup for
    ``chain2@3`` falls back to the ``chain2`` entry (and caches it, so
    the dict stays C-speed after first touch).  Only ``d[key]`` falls
    back; ``dict.get`` never consults ``__missing__``.
    """

    def __missing__(self, key):
        service = service_of_name(key)
        if service != key and service in self:
            value = self[key] = self[service]
            return value
        raise KeyError(key)


@dataclass(frozen=True)
class TargetConfig:
    """Per-container targets plus the end-to-end QoS limit."""

    #: expectedExecMetric per container (seconds).
    expected_exec_metric: Dict[str, float]
    #: Expected raw execTime per container (baseline controllers' limit).
    expected_exec_time: Dict[str, float]
    #: expectedTimeFromStart per container (seconds) — FirstResponder's
    #: per-packet progress target at request arrival.
    expected_time_from_start: Dict[str, float]
    #: End-to-end QoS target (the wrk2 ``-qos`` value).
    qos_target: float

    def __post_init__(self) -> None:
        if self.qos_target <= 0:
            raise ValueError("qos_target must be positive")
        for name, d in (
            ("expected_exec_metric", self.expected_exec_metric),
            ("expected_exec_time", self.expected_exec_time),
            ("expected_time_from_start", self.expected_time_from_start),
        ):
            for k, v in d.items():
                if v <= 0:
                    raise ValueError(f"{name}[{k!r}] must be positive, got {v!r}")

    def with_replica_fallback(self) -> "TargetConfig":
        """A copy whose per-container dicts resolve replica endpoint
        names (``svc@k``) to the service's profiled targets.

        The copy is fresh per call — fallback lookups cache into it, and
        the profile cache's shared instance must never be mutated.
        """
        return dataclasses.replace(
            self,
            expected_exec_metric=_ReplicaFallback(self.expected_exec_metric),
            expected_exec_time=_ReplicaFallback(self.expected_exec_time),
            expected_time_from_start=_ReplicaFallback(self.expected_time_from_start),
        )

    @classmethod
    def from_windows(
        cls,
        windows: Mapping[str, RuntimeWindow],
        *,
        multiplier: float = 2.0,
        tfs_multiplier: float = 4.0,
        qos_target: float,
    ) -> "TargetConfig":
        """Build targets from one low-load profiling pass.

        ``multiplier`` is the paper's 2× slack factor; the artifact notes
        it can be changed for tighter or looser bounds.
        ``tfs_multiplier`` applies to the per-packet progress target used
        by FirstResponder; it is looser because per-request
        time-from-start has far higher tail dispersion than windowed
        execMetric averages — a tight bound makes the fast path fire on
        ordinary steady-state tails (exactly the noise §IV-A's hold
        window exists to damp).
        """
        if multiplier <= 0 or tfs_multiplier <= 0:
            raise ValueError("multipliers must be positive")
        exec_metric: Dict[str, float] = {}
        exec_time: Dict[str, float] = {}
        tfs: Dict[str, float] = {}
        for name, w in windows.items():
            if w.count == 0:
                raise ValueError(f"profiling window for {name!r} saw no requests")
            exec_metric[name] = multiplier * w.avg_exec_metric
            exec_time[name] = multiplier * w.avg_exec_time
            tfs[name] = tfs_multiplier * w.avg_time_from_start
        return cls(
            expected_exec_metric=exec_metric,
            expected_exec_time=exec_time,
            expected_time_from_start=tfs,
            qos_target=qos_target,
        )
