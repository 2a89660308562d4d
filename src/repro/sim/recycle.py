"""Process-wide switches for the allocation-recycling layer.

Both free lists introduced for the hot paths — the engine's
:class:`~repro.sim.engine.EventHandle` pool and the network's
:class:`~repro.cluster.packet.PacketPool` — read these flags **at
construction time** (never at import time), so a test can flip the
environment, build a fresh simulator/cluster, and get the other mode
without reloading modules:

* ``REPRO_POOL`` — master switch, default on.  Set to ``0`` to disable
  all recycling; every hot-path object is then freshly allocated, which
  is the reference behavior the bit-identity suite compares against.
* ``REPRO_POOL_DEBUG`` — default off.  When on, released packets are
  *poisoned* (fields overwritten with sentinels that make any later use
  raise or propagate NaN) so a use-after-release surfaces at the point
  of use instead of as silent state corruption.  Event handles need no
  poison mode: a fired handle is only recycled when the interpreter
  refcount proves nothing else holds it — not user code, and not the
  ``(time, seq, handle)`` heap entry, which the run loop unpacks and
  lets die before the check (see ``Simulator.run``) — so a handle
  use-after-release cannot be constructed.

See DESIGN.md §8 ("Allocation discipline") for the release-point rules.
"""

from __future__ import annotations

import os

__all__ = ["pool_enabled", "pool_debug"]

_FALSY = ("0", "false", "no", "off", "")


def _flag(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in _FALSY


def pool_enabled() -> bool:
    """Master recycling switch (``REPRO_POOL``, default on)."""
    return _flag("REPRO_POOL", True)


def pool_debug() -> bool:
    """Poison-released-objects mode (``REPRO_POOL_DEBUG``, default off)."""
    return _flag("REPRO_POOL_DEBUG", False)
