"""DVFS model: discrete frequency levels, transition cost, and power constants.

The paper's testbed uses the Linux ``userspace`` frequency governor with
initial core frequencies of 1.6 GHz; FirstResponder's worker thread
raises frequencies by writing MSRs (2.1 µs per write, §VI-D).  Because
cores are partitioned between containers, per-core frequency control is
equivalent to per-container frequency control, which is how the model
exposes it.

The dynamic-power curve follows the classic CMOS scaling argument
``P_dyn ∝ C·f·V²`` with ``V`` roughly linear in ``f`` over the DVFS
range, i.e. ``P_dyn ∝ f³``; static power is a flat per-core floor.  The
absolute constants are calibrated loosely to a Cascade Lake core (a few
watts per core) — only *relative* energy matters for the reproduction.
Each container keeps the integrals (allocated core-seconds and the
``(f/f_max)³``-weighted busy core-seconds), and the experiment harness
turns their measurement-window deltas into joules with
``static_w`` and ``dyn_w_at_fmax``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["DvfsModel"]


@dataclass(frozen=True)
class DvfsModel:
    """Discrete DVFS levels plus a per-core power model.

    Attributes
    ----------
    f_min, f_max:
        Frequency range in Hz.  Paper initial frequency is 1.6 GHz; the
        ceiling is set to 2.4 GHz — a 1.5× headroom, about what a fully
        loaded 2-socket Cascade Lake sustains all-core.  The ratio is
        what matters: it must sit *below* the large surge magnitudes
        (1.75×) so frequency alone cannot absorb a long surge and core
        reallocation stays load-bearing, as on the testbed.
    step:
        Granularity of controller frequency changes (Hz).
    static_w:
        Power attributable to an *allocated* core regardless of load
        (leakage, uncore/LLC/package share), watts.  On Cascade Lake
        this fixed share dominates the marginal DVFS swing, which is
        why the paper's energy results track core counts first.
    dyn_w_at_fmax:
        Dynamic power of one fully-busy core at ``f_max``, watts.
    msr_write_latency:
        Modeled cost of one frequency update (FirstResponder worker
        thread's MSR write; 2.1 µs in the paper).
    """

    f_min: float = 1.6e9
    f_max: float = 2.4e9
    step: float = 0.2e9
    static_w: float = 2.0
    dyn_w_at_fmax: float = 1.5
    msr_write_latency: float = 2.1e-6

    def __post_init__(self) -> None:
        if self.f_min <= 0 or self.f_max < self.f_min:
            raise ValueError(f"invalid DVFS range [{self.f_min}, {self.f_max}]")
        if self.step <= 0:
            raise ValueError("step must be positive")

    def clamp(self, f: float) -> float:
        """Snap ``f`` to the nearest representable level inside the range."""
        f = min(max(f, self.f_min), self.f_max)
        k = round((f - self.f_min) / self.step)
        return min(self.f_min + k * self.step, self.f_max)

    def step_up(self, f: float) -> float:
        """One level above ``f`` (saturating at ``f_max``)."""
        return self.clamp(f + self.step)

    def step_down(self, f: float) -> float:
        """One level below ``f`` (saturating at ``f_min``)."""
        return self.clamp(f - self.step)

    @property
    def levels(self) -> Tuple[float, ...]:
        """All representable frequency levels, ascending."""
        n = int(round((self.f_max - self.f_min) / self.step)) + 1
        return tuple(self.clamp(self.f_min + i * self.step) for i in range(n))
