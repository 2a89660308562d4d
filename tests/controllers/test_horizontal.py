"""Tests for the §VII horizontal-autoscaler interaction.

The autoscaler actuates *replica counts* behind the load-balancer tier:
scale-out launches a real replica that warms for ``launch_delay`` before
receiving traffic, scale-in drains and reaps the highest-index replica.
"""

import pytest

from repro.cluster.loadbalancer import DRAINING, READY
from repro.controllers import horizontal
from repro.controllers.horizontal import (
    HorizontalAutoscaler,
    HpaParams,
    HybridController,
)
from repro.experiments.harness import run_experiment
from tests.controllers.conftest import mini_config


class _ClusterProbe:
    """Capture end-state replica counts via the harness probe hook."""

    def __init__(self):
        self.ready_counts = {}
        self.total_counts = {}

    def __call__(self, sim, cluster):
        for svc, rset in cluster.replica_sets.items():
            self.ready_counts[svc] = sum(
                1 for r in rset.replicas if r.state == READY
            )
            self.total_counts[svc] = len(rset.replicas)


class TestParams:
    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            HpaParams(interval=0.0)
        with pytest.raises(ValueError):
            HpaParams(max_replicas=0)
        with pytest.raises(ValueError):
            HpaParams(scale_in_patience=-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["interval", "launch_delay"])
    def test_non_finite_timing_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            HpaParams(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            # ``streak >= nan`` is never true: scale-in would never fire.
            ("scale_in_patience", float("nan")),
            ("scale_in_patience", 0),
            ("scale_in_patience", 1.5),
            # ``len(ready) < 2.5`` lets a third replica launch.
            ("max_replicas", 2.5),
            ("max_replicas", 0),
        ],
    )
    def test_bad_count_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            HpaParams(**{field: value})

    def test_runs_on_a_default_config(self):
        """Every cluster is a replica set, so HPA needs no setup."""
        res = run_experiment(mini_config(lambda: HorizontalAutoscaler()))
        # One decision per 2 s interval over the 6.5 s run.
        assert res.controller_stats.decision_cycles == 3


class TestHorizontalAlone:
    def test_scales_out_replicas_under_sustained_load(self):
        probe = _ClusterProbe()
        cfg = mini_config(
            lambda: HorizontalAutoscaler(HpaParams(interval=0.5, launch_delay=1.0)),
            spike_magnitude=2.5,
            spike_len=4.0,
            duration=7.0,
        )
        res = run_experiment(cfg, probe=probe)
        assert res.controller_stats.upscale_core_actions > 0
        assert any(n > 1 for n in probe.total_counts.values())

    def test_launch_delay_defers_capacity(self):
        """With a launch delay longer than the surge, the replica lands
        too late to help during it — the §VII gap SurgeGuard bridges."""
        slow = run_experiment(
            mini_config(
                lambda: HorizontalAutoscaler(
                    HpaParams(interval=0.5, launch_delay=5.0)
                ),
                spike_len=1.5,
            )
        )
        fast = run_experiment(
            mini_config(
                lambda: HorizontalAutoscaler(
                    HpaParams(interval=0.5, launch_delay=0.25)
                ),
            )
        )
        assert fast.violation_volume <= slow.violation_volume

    def test_scales_in_when_idle(self):
        probe = _ClusterProbe()
        cfg = mini_config(
            lambda: HorizontalAutoscaler(
                HpaParams(interval=0.25, scale_in_patience=2, launch_delay=0.5)
            ),
            replicas=2,  # start above min_replicas so scale-in has room
            spike_magnitude=None,
            base_rate=100.0,  # almost idle on the initial allocation
            duration=4.0,
        )
        res = run_experiment(cfg, probe=probe)
        assert res.controller_stats.downscale_core_actions > 0
        assert all(n == 1 for n in probe.ready_counts.values())


class _FakeContainer:
    def __init__(self, busy: float, cores: float = 1.0):
        self.busy_core_seconds = busy
        self.cores = cores

    def sync(self):
        pass


class _FakeReplica:
    def __init__(self, name: str, busy: float, state: str = READY):
        self.name = name
        self.state = state
        self.container = _FakeContainer(busy)


class _FakeReplicaSet:
    def __init__(self, *replicas):
        self.replicas = list(replicas)


class _FakeCluster:
    """Just enough replica-set surface for ``_decide``."""

    def __init__(self, rset):
        self.replica_sets = {"svc": rset}
        self.scale_out_calls = []
        self.scale_in_calls = []

    def reap_draining(self):
        return 0

    def scale_out(self, service, ready_delay=0.0):
        self.scale_out_calls.append(service)
        return None  # pretend max capacity: no new replica materializes

    def scale_in(self, service):
        self.scale_in_calls.append(service)
        return None


def _wired(cluster, params=None) -> HorizontalAutoscaler:
    hpa = HorizontalAutoscaler(params or HpaParams())
    hpa.sim = object()  # _decide only checks presence
    hpa.cluster = cluster
    hpa._low_streak = {"svc": 0}
    return hpa


class TestBaselineAccounting:
    """Regression tests for the busy-baseline lifecycle bug: stale
    baselines surviving drain/reap used to corrupt the utilization
    signal.  (Busy integrals never rewind: see
    ``tests/cluster/test_container.py``.)"""

    def test_stale_baseline_evicted_while_not_ready(self):
        """A replica that leaves the READY set loses its baseline, so a
        later revival starts at first sight instead of being charged
        its whole drain-time work in one interval."""
        draining = _FakeReplica("svc@1", busy=0.0, state=DRAINING)
        steady = _FakeReplica("svc@0", busy=0.0)
        cluster = _FakeCluster(_FakeReplicaSet(steady, draining))
        hpa = _wired(cluster, HpaParams(interval=1.0))
        hpa._last_busy = {"svc@0": 0.0, "svc@1": 0.0}

        # Drain period: the draining replica keeps burning cores.
        draining.container.busy_core_seconds = 10.0
        hpa._decide()
        assert "svc@1" not in hpa._last_busy

        # Revival: back to READY with the integral far beyond the old
        # baseline.  First sight re-baselines, so utilization stays low
        # and no spurious scale-out fires.
        draining.state = READY
        draining.container.busy_core_seconds = 10.5
        hpa._decide()
        assert cluster.scale_out_calls == []

    def test_stale_baseline_would_have_inflated_utilization(self):
        """Counterfactual for the test above: with the stale baseline
        left in place, the revival's first read crosses the scale-out
        threshold on drain-time work alone."""
        revived = _FakeReplica("svc@1", busy=10.5)
        steady = _FakeReplica("svc@0", busy=0.0)
        hpa = HorizontalAutoscaler(HpaParams(interval=1.0))
        hpa._last_busy = {"svc@0": 0.0, "svc@1": 0.0}  # stale baseline
        util = hpa._utilization([steady, revived])
        assert util > horizontal.TARGET_UTILIZATION

    def test_revive_after_drain_end_to_end(self):
        """Scale-in under idle load, then a late surge that revives the
        reaped replica: the run completes with both actions recorded."""
        probe = _ClusterProbe()
        cfg = mini_config(
            lambda: HorizontalAutoscaler(
                HpaParams(
                    interval=0.25, scale_in_patience=2, launch_delay=0.25
                )
            ),
            replicas=2,
            base_rate=100.0,  # idle: scale-in fires early
            spike_magnitude=18.0,  # late surge over the idle base rate
            spike_len=2.5,
            spike_period=100.0,
            spike_offset=3.5,
            duration=7.0,
        )
        res = run_experiment(cfg, probe=probe)
        assert res.controller_stats.downscale_core_actions > 0
        assert res.controller_stats.upscale_core_actions > 0
        # The surge ends before the run does, so the revived replicas
        # are draining again by probe time — visible in the totals.
        assert any(n > 1 for n in probe.total_counts.values())


class TestHybrid:
    def test_hybrid_bridges_launch_gap(self):
        """HPA alone eats the surge while replicas launch; the hybrid's
        SurgeGuard units hold QoS in the meantime."""
        hpa = HpaParams(interval=0.5, launch_delay=2.0)
        alone = run_experiment(
            mini_config(lambda: HorizontalAutoscaler(hpa), spike_len=1.5)
        )
        hybrid = run_experiment(
            mini_config(lambda: HybridController(hpa), spike_len=1.5)
        )
        assert hybrid.violation_volume < alone.violation_volume

    def test_hybrid_counts_both_units_actions(self):
        res = run_experiment(
            mini_config(
                lambda: HybridController(HpaParams(interval=0.5, launch_delay=1.0))
            )
        )
        assert res.controller_stats.decision_cycles > 0

    def test_hybrid_reports_its_fast_path(self):
        """The result's fast-path counters are the SurgeGuard half's
        FirstResponder totals, which the hybrid keeps one level down."""
        built = []

        def factory():
            built.append(HybridController(HpaParams(interval=0.5, launch_delay=1.0)))
            return built[-1]

        res = run_experiment(mini_config(factory))
        (hybrid,) = built
        responders = hybrid.firstresponders
        assert res.fast_path_packets > 0
        assert res.fast_path_packets == sum(fr.packets_inspected for fr in responders)
        assert res.fast_path_violations == sum(
            fr.violations_detected for fr in responders
        )
