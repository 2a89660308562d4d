"""Piecewise-constant request-rate schedules with spike injection.

A :class:`RateSchedule` is a base rate plus a list of :class:`Spike`
windows during which the rate is overridden (the paper's instantaneous
surge model: "the *instantaneous* request rate during a surge is much
higher" — modeled as a rectangular rate pulse, which is also exactly
what the modified wrk2 generates).

The schedule supports exact inversion of the cumulative arrival count
(:meth:`RateSchedule.advance`), which the open-loop client uses to place
arrivals precisely even when a 100 µs spike multiplies the rate 20×.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Sequence

__all__ = ["RateSchedule", "Spike"]


@dataclass(frozen=True)
class Spike:
    """One rectangular rate override: rate = ``rate`` during [start, end)."""

    start: float
    end: float
    rate: float

    def __post_init__(self) -> None:
        for name in ("start", "end", "rate"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"spike {name} must be finite, got {value!r}")
        if self.end <= self.start:
            raise ValueError(f"empty spike window [{self.start}, {self.end})")
        if self.rate < 0:
            raise ValueError("spike rate must be non-negative")


class RateSchedule:
    """Base rate plus non-overlapping spike overrides.

    Parameters
    ----------
    base_rate:
        Steady-state request rate (the wrk2 ``-rate`` knob).
    spikes:
        Override windows, non-overlapping (checked).  During a spike the
        rate *is* the spike rate (not additive), matching the paper's
        "request rate during the surge is set to 1.25×/1.5×/1.75× of the
        base request rate".
    """

    def __init__(self, base_rate: float, spikes: Sequence[Spike] = ()):
        if not math.isfinite(base_rate):
            raise ValueError(f"base_rate must be finite, got {base_rate!r}")
        if base_rate < 0:
            raise ValueError("base_rate must be non-negative")
        self.base_rate = float(base_rate)
        self.spikes: List[Spike] = sorted(spikes, key=lambda s: s.start)
        for a, b in zip(self.spikes, self.spikes[1:]):
            if b.start < a.end:
                raise ValueError(f"overlapping spikes: {a} and {b}")
        # Static segment table: contiguous half-open segments covering
        # (-inf, inf), segment i = [_seg_ends[i-1], _seg_ends[i]) at rate
        # _seg_rates[i].  Built once so every query is a bisect plus a
        # short walk instead of an O(#spikes) list rebuild per call — the
        # open-loop client calls `advance` once per arrival, which made
        # the old rebuild quadratic over a run with periodic spikes.
        ends: List[float] = []
        rates: List[float] = []
        prev_end = -math.inf
        for s in self.spikes:
            if s.start > prev_end:
                ends.append(s.start)
                rates.append(self.base_rate)
            ends.append(s.end)
            rates.append(s.rate)
            prev_end = s.end
        ends.append(math.inf)
        rates.append(self.base_rate)
        self._seg_ends = ends
        self._seg_rates = rates

    # ------------------------------------------------------------- builders
    @classmethod
    def periodic(
        cls,
        base_rate: float,
        *,
        magnitude: float,
        spike_len: float,
        period: float,
        first: float,
        until: float,
    ) -> "RateSchedule":
        """Spikes of ``magnitude × base_rate`` every ``period`` seconds.

        This is the §VI-B configuration ("injecting 2 s long request rate
        surges every 10 s ... surge rate 1.25×/1.5×/1.75× of base").
        """
        if magnitude < 0 or spike_len <= 0 or period <= 0:
            raise ValueError("invalid periodic spike parameters")
        if spike_len > period:
            raise ValueError("spike_len must not exceed period")
        spikes = []
        t = first
        while t < until:
            spikes.append(Spike(t, min(t + spike_len, until), magnitude * base_rate))
            t += period
        return cls(base_rate, spikes)

    @classmethod
    def single(
        cls, base_rate: float, *, magnitude: float, start: float, length: float
    ) -> "RateSchedule":
        """One spike of ``magnitude × base_rate`` (Fig. 10 / Fig. 14 shape)."""
        return cls(base_rate, [Spike(start, start + length, magnitude * base_rate)])

    # --------------------------------------------------------------- queries
    def rate_at(self, t: float) -> float:
        """Instantaneous rate at time ``t``."""
        i = bisect_right(self._seg_ends, t)
        if i >= len(self._seg_rates):  # t == inf
            return self.base_rate
        return self._seg_rates[i]

    def advance(self, t: float, units: float) -> float:
        """Earliest ``t' ≥ t`` with ``∫_t^{t'} rate(u) du = units``.

        Returns ``inf`` if the integral never reaches ``units`` (zero
        rate forever).  This inverts the cumulative arrival function for
        both deterministic pacing (``units = 1``) and Poisson thinning
        (``units ~ Exp(1)``).
        """
        if units < 0:
            raise ValueError("units must be non-negative")
        if units == 0:
            # ∫_t^t rate du == 0 already: the identity, even when the
            # segment containing t has zero rate (skipping ahead to the
            # next nonzero segment would invent a time jump for nothing).
            return t
        ends = self._seg_ends
        rates = self._seg_rates
        remaining = units
        cur = t
        i = bisect_right(ends, t)
        while True:
            seg_end = ends[i]
            rate = rates[i]
            if rate > 0:
                dt_needed = remaining / rate
                if cur + dt_needed <= seg_end:
                    return cur + dt_needed
                remaining -= (seg_end - cur) * rate
            if seg_end == math.inf:
                return math.inf
            cur = seg_end
            i += 1

    def mean_rate(self, t0: float, t1: float) -> float:
        """Average rate over [t0, t1] (for expected-request-count checks)."""
        if t1 <= t0:
            raise ValueError("empty interval")
        ends = self._seg_ends
        rates = self._seg_rates
        total = 0.0
        cur = t0
        i = bisect_right(ends, t0)
        while True:
            end = min(ends[i], t1)
            if end > cur:
                total += (end - cur) * rates[i]
                cur = end
            if cur >= t1:
                break
            i += 1
        return total / (t1 - t0)
