"""Unit tests for rate schedules and spike injection."""

import math

import pytest

from repro.workload.arrivals import RateSchedule, Spike


class TestRateAt:
    def test_base_rate_outside_spikes(self):
        s = RateSchedule(100.0, [Spike(1.0, 2.0, 500.0)])
        assert s.rate_at(0.5) == 100.0
        assert s.rate_at(2.5) == 100.0

    def test_spike_rate_inside_window(self):
        s = RateSchedule(100.0, [Spike(1.0, 2.0, 500.0)])
        assert s.rate_at(1.0) == 500.0
        assert s.rate_at(1.999) == 500.0
        assert s.rate_at(2.0) == 100.0  # end-exclusive

    def test_overlapping_spikes_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            RateSchedule(1.0, [Spike(0.0, 2.0, 5.0), Spike(1.0, 3.0, 5.0)])

    def test_empty_spike_rejected(self):
        with pytest.raises(ValueError):
            Spike(1.0, 1.0, 5.0)

    def test_negative_base_rejected(self):
        with pytest.raises(ValueError):
            RateSchedule(-1.0)


class TestBuilders:
    def test_periodic_spike_count(self):
        s = RateSchedule.periodic(
            100.0, magnitude=1.75, spike_len=2.0, period=10.0, first=5.0, until=30.0
        )
        assert len(s.spikes) == 3
        assert s.spikes[0].start == 5.0
        assert s.spikes[0].rate == pytest.approx(175.0)

    def test_periodic_clips_at_until(self):
        s = RateSchedule.periodic(
            100.0, magnitude=2.0, spike_len=5.0, period=10.0, first=8.0, until=10.0
        )
        assert s.spikes[0].end == 10.0

    def test_single(self):
        s = RateSchedule.single(100.0, magnitude=20.0, start=1.0, length=1e-4)
        assert s.rate_at(1.00005) == pytest.approx(2000.0)

    def test_spike_len_exceeding_period_rejected(self):
        with pytest.raises(ValueError):
            RateSchedule.periodic(
                1.0, magnitude=2.0, spike_len=11.0, period=10.0, first=0.0, until=20.0
            )


class TestAdvance:
    def test_constant_rate_inverse(self):
        s = RateSchedule(100.0)
        assert s.advance(0.0, 1.0) == pytest.approx(0.01)
        assert s.advance(5.0, 50.0) == pytest.approx(5.5)

    def test_advance_across_spike_boundary(self):
        # 10/s until t=1, then 1000/s: 15 units from t=0 means 10 units in
        # the first second + 5 units at 1000/s = 1.005.
        s = RateSchedule(10.0, [Spike(1.0, 2.0, 1000.0)])
        assert s.advance(0.0, 15.0) == pytest.approx(1.005)

    def test_advance_through_whole_spike(self):
        # Spike contributes 1000×0.1 = 100 units; ask for 150 from t=0 at
        # base 100/s: 50 before the spike (0.5s) ... spike starts at 1.0.
        s = RateSchedule(100.0, [Spike(1.0, 1.1, 1000.0)])
        # 100 units by t=1.0, +100 in the spike by 1.1, remaining 50 at
        # base: t = 1.1 + 0.5.
        assert s.advance(0.0, 250.0) == pytest.approx(1.6)

    def test_zero_rate_never_reaches(self):
        s = RateSchedule(0.0)
        assert s.advance(0.0, 1.0) == math.inf

    def test_zero_base_with_spike_work_exhausted(self):
        # 10 units of work exist inside the spike; any target beyond that
        # hits the zero-rate-forever tail and must return inf.
        s = RateSchedule(0.0, [Spike(1.0, 2.0, 10.0)])
        assert s.advance(0.0, 5.0) == pytest.approx(1.5)
        assert s.advance(0.0, 10.0) == pytest.approx(2.0)
        assert s.advance(0.0, 10.5) == math.inf
        assert s.advance(2.5, 1.0) == math.inf

    def test_zero_units_is_now(self):
        s = RateSchedule(100.0)
        assert s.advance(3.0, 0.0) == pytest.approx(3.0)

    def test_zero_units_is_now_even_at_zero_rate(self):
        # Regression: advance(t, 0) inside a zero-rate segment returned
        # inf (the "never reaches" branch) instead of the identity t.
        assert RateSchedule(0.0).advance(3.0, 0.0) == 3.0
        s = RateSchedule(0.0, [Spike(1.0, 2.0, 50.0)])
        assert s.advance(0.25, 0.0) == 0.25  # before the spike, rate 0
        assert s.advance(2.5, 0.0) == 2.5  # after the spike, rate 0 forever

    def test_negative_units_rejected(self):
        with pytest.raises(ValueError):
            RateSchedule(1.0).advance(0.0, -1.0)

    def test_advance_consistent_with_mean_rate(self):
        s = RateSchedule.periodic(
            100.0, magnitude=3.0, spike_len=1.0, period=4.0, first=1.0, until=20.0
        )
        t0, t1 = 0.0, 20.0
        total_units = s.mean_rate(t0, t1) * (t1 - t0)
        assert s.advance(t0, total_units) == pytest.approx(t1)


class TestNonFiniteRejected:
    """inf/NaN must fail at construction, naming the offending field:
    an infinite rate would fire every arrival at t=0 forever, a NaN one
    silently injects nothing, and a NaN spike edge breaks the bisect
    table."""

    @pytest.mark.parametrize("base", [math.inf, -math.inf, math.nan])
    def test_base_rate(self, base):
        with pytest.raises(ValueError, match="base_rate"):
            RateSchedule(base)

    @pytest.mark.parametrize(
        "field, args",
        [
            ("start", (math.nan, 1.0, 5.0)),
            ("start", (-math.inf, 1.0, 5.0)),
            ("end", (0.0, math.nan, 5.0)),
            ("end", (0.0, math.inf, 5.0)),
            ("rate", (0.0, 1.0, math.nan)),
            ("rate", (0.0, 1.0, math.inf)),
        ],
    )
    def test_spike_fields(self, field, args):
        with pytest.raises(ValueError, match=f"spike {field}"):
            Spike(*args)

    def test_infinite_periodic_magnitude(self):
        with pytest.raises(ValueError, match="spike rate"):
            RateSchedule.periodic(
                10.0, magnitude=math.inf, spike_len=1.0, period=2.0,
                first=0.0, until=4.0,
            )


class TestMeanRate:
    def test_mean_over_mixed_interval(self):
        s = RateSchedule(100.0, [Spike(1.0, 2.0, 300.0)])
        assert s.mean_rate(0.0, 3.0) == pytest.approx((100 + 300 + 100) / 3)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            RateSchedule(1.0).mean_rate(1.0, 1.0)
