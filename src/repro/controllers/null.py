"""Static allocation: the no-controller baseline.

Used to measure the raw impact of a surge (Fig. 4's "no mitigation"
region, substrate tests, and the profiling pass, which must run with
allocations frozen at their initial values).
"""

from __future__ import annotations

from repro.controllers.base import Controller

__all__ = ["NullController"]


class NullController(Controller):
    """Does nothing; allocations stay at their initial values."""

    name = "static"
