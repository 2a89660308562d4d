"""Escalator frequency normalization (the shFreq synchronization).

Regression tests for the boost-masquerades-as-headroom bug: a container
running fast because FirstResponder boosted it must not be judged
"comfortable" by Escalator, or its cores get stripped mid-boost and the
system limit-cycles when the boost decays.
"""

import pytest

from repro.controllers.targets import TargetConfig
from repro.core import SurgeGuardConfig
from repro.core.config import DOWNSCALE_PATIENCE
from repro.core.escalator import Escalator
from tests.conftest import make_chain_app


@pytest.fixture
def setup(sim, make_cluster):
    app = make_chain_app(1, work=1.6e6, pool=None, cores=2.0)
    cluster = make_cluster(app, cores_per_node=8)
    targets = TargetConfig(
        expected_exec_metric={"s0": 4e-3},
        expected_exec_time={"s0": 4e-3},
        expected_time_from_start={"s0": 4e-3},
        qos_target=10e-3,
    )
    esc = Escalator(sim, cluster.node_views[0], SurgeGuardConfig(), targets)
    return cluster, esc


def _feed_busy(sim, cluster, duration):
    """Keep s0's cores saturated for `duration` (so busy ≈ cores)."""
    end = sim.now + duration
    c = cluster.containers["s0"]

    def resubmit():
        if sim.now < end:
            for _ in range(4 - c.active_jobs):
                c.submit(0.4e6, resubmit)

    for _ in range(4):
        c.submit(0.4e6, resubmit)
    sim.run(until=end)


def _fast_windows(sim, cluster, esc, boost=False, decay=False):
    """Run the ``DOWNSCALE_PATIENCE`` decision cycles a core reclaim
    needs, each over a saturated window that reports a 1.7 ms execution.
    ``boost`` runs each window at f_max; ``decay`` drops back to f_min
    an instant before each decision."""
    dvfs = cluster.config.dvfs
    for _ in range(DOWNSCALE_PATIENCE):
        if boost:
            cluster.set_frequency("s0", dvfs.f_max)
        _feed_busy(sim, cluster, 0.2)
        cluster.runtimes["s0"].on_complete(exec_time=1.7e-3, conn_wait=0.0)
        if decay:
            cluster.set_frequency("s0", dvfs.f_min)
        esc.decide()


class TestFrequencyNormalization:
    def test_boosted_fast_window_not_comfortable(self, sim, setup):
        """At f_max, observed 1.7 ms looks comfortable against the 4 ms
        envelope — but normalized to f_min it is 2.55 ms > 0.5×4 ms, so
        no core may be reclaimed."""
        cluster, esc = setup
        cores_before = cluster.containers["s0"].cores
        _fast_windows(sim, cluster, esc, boost=True)
        assert cluster.containers["s0"].cores == cores_before

    def test_same_window_at_base_freq_is_comfortable(self, sim, setup):
        """The identical observation at the base frequency *is* genuine
        headroom and is reclaimed once it has lasted the patience."""
        cluster, esc = setup
        cores_before = cluster.containers["s0"].cores
        _fast_windows(sim, cluster, esc)
        assert cluster.containers["s0"].cores < cores_before

    def test_normalization_uses_window_mean_not_instant(self, sim, setup):
        """A boost that decays just before decide() must still be
        normalized away: the window ran fast even though the instant
        frequency is back at the floor."""
        cluster, esc = setup
        cores_before = cluster.containers["s0"].cores
        _fast_windows(sim, cluster, esc, boost=True, decay=True)
        assert cluster.containers["s0"].cores == cores_before
