"""The container integrals behind the harness's idle-subtracted energy.

``run_experiment`` charges ``static_w`` per allocated core-second and
``dyn_w_at_fmax`` per ``(f/f_max)³``-weighted busy core-second; these
tests pin the two integrals it reads.
"""

import pytest

from repro.cluster.container import Container


class TestEnergy:
    def test_idle_allocated_core_burns_static_only(self, sim, dvfs):
        c = Container(sim, "c", dvfs, cores=2.0)
        sim.schedule(10.0, lambda: None)
        sim.run()
        c.sync()
        assert c.alloc_core_seconds == pytest.approx(2.0 * 10.0)
        assert c.busy_weighted_seconds == 0.0

    def test_busy_core_adds_dynamic(self, sim, dvfs):
        c = Container(sim, "c", dvfs, cores=1.0, frequency=dvfs.f_max)
        c.submit(dvfs.f_max * 2.0, lambda: None)  # 2s busy at f_max
        sim.run()
        c.sync()
        assert c.alloc_core_seconds == pytest.approx(1.0 * 2.0)
        assert c.busy_weighted_seconds == pytest.approx(1.0 * 2.0)

    def test_dynamic_scales_quadratically_with_frequency_for_fixed_work(self):
        # Same *work* at half frequency takes 2x time but the f³ weight
        # is 1/8: dynamic energy ratio = (f/f_max)² = 1/4.
        from repro.cluster.frequency import DvfsModel

        wide = DvfsModel(f_min=1.0e9, f_max=2.0e9, step=0.5e9)

        def weighted_busy_at(f):
            from repro.sim.engine import Simulator

            s = Simulator()
            c = Container(s, "c", wide, cores=1.0, frequency=f)
            c.submit(wide.f_max, lambda: None)
            s.run()
            c.sync()
            return c.busy_weighted_seconds

        ratio = weighted_busy_at(wide.f_max / 2) / weighted_busy_at(wide.f_max)
        assert ratio == pytest.approx(0.25)
