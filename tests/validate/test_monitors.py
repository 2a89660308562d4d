"""Unit tests for the runtime invariant monitors.

Two kinds of evidence: healthy runs must come back clean with a
non-trivial check count, and *planted* corruption of each guarded
invariant must be detected.  Plus the load-bearing meta-property: an
armed run is observation-only — results are bit-identical to an
unarmed one.
"""

from types import SimpleNamespace

import pytest

from repro.cluster.packet import REQUEST, RpcPacket
from repro.controllers.targets import TargetConfig
from repro.core import SurgeGuardConfig, SurgeGuardController
from repro.core.firstresponder import FirstResponder
from repro.exec.specs import spec
from repro.experiments.harness import ExperimentConfig, run_experiment
from repro.validate.monitors import (
    CoreFeasibilityMonitor,
    EscalatorSanityMonitor,
    FrequencyBoundsMonitor,
    MonitorSet,
    RequestConservationMonitor,
    TraceCausalityMonitor,
)
from repro.workload.arrivals import RateSchedule
from repro.workload.generator import OpenLoopClient
from tests.conftest import drive_cluster, make_chain_app


def surgeguard_targets(app):
    names = app.service_names
    return TargetConfig(
        expected_exec_metric={n: 2e-3 for n in names},
        expected_exec_time={n: 2e-3 for n in names},
        expected_time_from_start={n: 5e-3 for n in names},
        qos_target=20e-3,
    )


class TestHealthyRunsAreClean:
    def test_monitor_set_on_null_run(self, sim, small_cluster):
        monitors = MonitorSet()
        monitors.arm(sim, small_cluster)
        client = drive_cluster(sim, small_cluster)
        for m in monitors.monitors:  # armed before the client existed
            m.client = client
        monitors.finalize()
        assert monitors.ok, [str(v) for v in monitors.all_violations]
        assert monitors.total_checks > 0
        by_name = monitors.by_monitor()
        assert set(by_name) == {
            "request-conservation",
            "core-feasibility",
            "frequency-bounds",
            "trace-causality",
            "escalator-sanity",
            "fault-resilience",
            "replica-conservation",
        }

    def test_monitor_set_on_surgeguard_run(self, sim, make_cluster, small_app):
        cluster = make_cluster(small_app)
        controller = SurgeGuardController()
        controller.attach(sim, cluster, surgeguard_targets(small_app))
        monitors = MonitorSet()
        monitors.arm(sim, cluster, controller=controller)
        drive_cluster(sim, cluster, controller=controller)
        controller.stop()
        monitors.finalize()
        assert monitors.ok, [str(v) for v in monitors.all_violations]
        # The escalator monitor actually saw windows on this run.
        esc = next(
            m for m in monitors.monitors if isinstance(m, EscalatorSanityMonitor)
        )
        assert esc.checks > 0

    def test_hybrid_run_checks_its_escalators(self, sim, make_cluster, small_app):
        """The hybrid exposes its SurgeGuard half, so the Escalator
        sanity checks run on it too."""
        cluster = make_cluster(small_app)
        controller = spec("hybrid")()
        controller.attach(sim, cluster, surgeguard_targets(small_app))
        esc = EscalatorSanityMonitor()
        monitors = MonitorSet([esc, FrequencyBoundsMonitor()])
        monitors.arm(sim, cluster, controller=controller)
        drive_cluster(sim, cluster, controller=controller)
        controller.stop()
        monitors.finalize()
        assert monitors.ok, [str(v) for v in monitors.all_violations]
        assert esc.checks > 0

    def test_disarm_restores_cluster_methods(self, sim, small_cluster):
        monitors = MonitorSet()
        monitors.arm(sim, small_cluster)
        assert "set_cores" in vars(small_cluster)
        assert "set_frequency" in vars(small_cluster)
        assert small_cluster.network._observers
        monitors.finalize()
        assert "set_cores" not in vars(small_cluster)
        assert "set_frequency" not in vars(small_cluster)
        assert not small_cluster.network._observers


class TestMonitorsAreObservationOnly:
    def test_armed_run_bit_identical_to_unarmed(self):
        cfg = ExperimentConfig(
            workload="chain",
            controller_factory=spec("surgeguard"),
            spike_magnitude=1.75,
            spike_len=0.5,
            spike_period=2.0,
            duration=1.5,
            warmup=0.5,
            profile_duration=1.0,
            drain=0.5,
            seed=5,
        )
        counters = []

        def probe(sim, cluster):
            counters.append(
                (sim.events_fired, cluster.network.packets_delivered)
            )

        plain = run_experiment(cfg, probe=probe)
        monitors = MonitorSet()
        armed = run_experiment(cfg, monitors=monitors, probe=probe)
        assert monitors.ok
        assert armed.summary.violation_volume == plain.summary.violation_volume
        assert armed.summary.p98 == plain.summary.p98
        assert armed.summary.count == plain.summary.count
        assert counters[0] == counters[1]


class TestCoreFeasibility:
    def test_detects_budget_overflow_planted_behind_api(self, sim, small_cluster):
        m = CoreFeasibilityMonitor()
        m.arm(sim, small_cluster)
        # Corrupt state *past* the API (the API itself raises on this).
        small_cluster.containers["s0"]._cores = 1e6
        m.finalize()
        assert not m.ok
        assert "exceeds budget" in m.violations[0].message

    def test_detects_non_positive_allocation(self, sim, small_cluster):
        m = CoreFeasibilityMonitor()
        m.arm(sim, small_cluster)
        small_cluster.containers["s1"]._cores = -0.5
        m.finalize()
        assert any("non-positive" in v.message for v in m.violations)

    def test_legitimate_reallocation_is_clean(self, sim, small_cluster):
        m = CoreFeasibilityMonitor()
        m.arm(sim, small_cluster)
        small_cluster.set_cores("s0", 3.0)
        small_cluster.set_cores("s0", 1.0)
        m.finalize()
        assert m.ok
        assert m.checks >= 4  # arm sweep + 2 calls + final sweep


class TestFrequencyBounds:
    def test_detects_out_of_range_frequency(self, sim, small_cluster):
        m = FrequencyBoundsMonitor()
        m.arm(sim, small_cluster)
        small_cluster.containers["s0"]._freq = 9.9e9  # corrupt past the clamp
        m.finalize()
        assert not m.ok
        assert "outside" in m.violations[0].message

    def test_detects_stuck_firstresponder_boost(self, sim, make_cluster, small_app):
        cluster = make_cluster(small_app)
        targets = surgeguard_targets(small_app)
        fr = FirstResponder(
            sim, cluster.node_views[0], SurgeGuardConfig(), targets
        )
        fr.install()
        controller = SimpleNamespace(firstresponders=[fr])
        m = FrequencyBoundsMonitor()
        m.arm(sim, cluster, controller=controller)
        # A hopelessly late packet triggers a boost to f_max...
        fr.on_packet(
            RpcPacket(request_id=0, kind=REQUEST, src="client", dst="s0",
                      start_time=-1.0)
        )
        sim.run()
        c0 = cluster.containers["s0"]
        assert c0.frequency == c0.dvfs.f_max
        # ...and with no Escalator to decay it, it is stuck long past the
        # hold window + grace.
        sim.schedule(1e3, lambda: None)
        sim.run()
        m.finalize()
        assert any("never reverted" in v.message for v in m.violations)

    def test_boost_followed_by_decay_is_clean(self, sim, make_cluster, small_app):
        cluster = make_cluster(small_app)
        targets = surgeguard_targets(small_app)
        fr = FirstResponder(sim, cluster.node_views[0], SurgeGuardConfig(), targets)
        fr.install()
        controller = SimpleNamespace(firstresponders=[fr])
        m = FrequencyBoundsMonitor()
        m.arm(sim, cluster, controller=controller)
        fr.on_packet(
            RpcPacket(request_id=0, kind=REQUEST, src="client", dst="s0",
                      start_time=-1.0)
        )
        sim.run()
        # An Escalator-like decay brings the boosted containers back down.
        for name in cluster.containers:
            c = cluster.containers[name]
            cluster.set_frequency(name, c.dvfs.step_down(c.frequency))
        sim.schedule(1e3, lambda: None)
        sim.run()
        m.finalize()
        assert m.ok, [str(v) for v in m.violations]


class TestRequestConservation:
    def test_lost_request_detected_on_drained_sim(self, sim, make_cluster):
        # Slow stages (~20 ms each) so the requests outlive the window.
        cluster = make_cluster(make_chain_app(work=5e7))
        m = RequestConservationMonitor()
        client = OpenLoopClient(sim, cluster, RateSchedule(100.0), duration=0.02)
        m.arm(sim, cluster, client=client)
        client.begin()
        # Let the requests get injected, then drop all in-flight events —
        # the simulation is "fully drained" yet requests never completed.
        sim.run(until=0.021)
        assert client.stats.sent > 0
        assert client.stats.outstanding > 0
        sim.drain()
        m.finalize()
        assert any("lost" in v.message for v in m.violations)

    def test_complete_run_is_clean(self, sim, small_cluster):
        m = RequestConservationMonitor()
        client = OpenLoopClient(
            sim, small_cluster, RateSchedule(200.0), duration=0.1
        )
        m.arm(sim, small_cluster, client=client)
        client.begin()
        sim.run(until=1.0)
        m.finalize()
        assert m.ok, [str(v) for v in m.violations]
        assert client.stats.outstanding == 0
        assert m.client_responses_seen == client.stats.completed


class TestTraceCausality:
    def test_healthy_run_has_checks_and_no_violations(self, sim, small_cluster):
        m = TraceCausalityMonitor(max_requests=50)
        m.arm(sim, small_cluster)
        drive_cluster(sim, small_cluster, rate=200.0, duration=0.2)
        m.finalize()
        assert m.checks > 0
        assert m.ok, [str(v) for v in m.violations]

    def test_tampered_span_detected(self, sim, small_cluster):
        m = TraceCausalityMonitor(max_requests=50)
        m.arm(sim, small_cluster)
        drive_cluster(sim, small_cluster, rate=200.0, duration=0.1)
        store = m._tracer.store
        assert store.has_request(0)
        # Span views are lazy copies; tamper with the backing column.
        store.t_complete[0] = store.t_receive[0] - 1.0  # time travel
        m.finalize()
        assert not m.ok


class TestEscalatorSanity:
    def test_bad_window_detected(self, sim, make_cluster, small_app):
        cluster = make_cluster(small_app)
        controller = SurgeGuardController()
        controller.attach(sim, cluster, surgeguard_targets(small_app))
        m = EscalatorSanityMonitor()
        m.arm(sim, cluster, controller=controller)
        bad = SimpleNamespace(
            count=3,
            avg_exec_time=1e-3,
            avg_exec_metric=2e-3,  # metric > time: impossible
            avg_conn_wait=0.0,
            queue_buildup=0.5,  # < 1: impossible
        )
        m._on_window("s0", bad)
        assert len(m.violations) == 2

    def test_window_hook_attached_and_released(self, sim, make_cluster, small_app):
        cluster = make_cluster(small_app)
        controller = SurgeGuardController()
        controller.attach(sim, cluster, surgeguard_targets(small_app))
        m = EscalatorSanityMonitor()
        m.arm(sim, cluster, controller=controller)
        assert all(e.window_hook == m._on_window for e in controller.escalators)
        m.finalize()
        m.disarm()
        assert all(e.window_hook is None for e in controller.escalators)

    def test_noop_without_escalators(self, sim, small_cluster):
        m = EscalatorSanityMonitor()
        m.arm(sim, small_cluster, controller=None)
        m.finalize()
        m.disarm()
        assert m.ok


class TestMonitorSetLifecycle:
    def test_double_arm_rejected(self, sim, small_cluster):
        monitors = MonitorSet()
        monitors.arm(sim, small_cluster)
        with pytest.raises(RuntimeError):
            monitors.arm(sim, small_cluster)
        monitors.finalize()

    def test_finalize_before_arm_rejected(self):
        with pytest.raises(RuntimeError):
            MonitorSet().finalize()
