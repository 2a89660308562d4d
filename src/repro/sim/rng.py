"""Named, independently-seeded random streams.

Every stochastic component (arrival process, per-service work draws,
network jitter, ...) pulls its own :class:`numpy.random.Generator` from a
shared :class:`RngRegistry`.  Streams are derived with
``numpy.random.SeedSequence.spawn``-style keying so that

* two runs with the same root seed are bit-identical, and
* adding a new consumer does not perturb the draws of existing ones
  (each stream is keyed by its *name*, not by creation order).

This is what makes the artifact's 17-repetition / trim-outliers protocol
meaningful in simulation: repetition *i* simply uses root seed
``base_seed + i``.

Hot-path consumers (network jitter, per-phase work) read their draws
through :func:`block_draws`: a numpy Generator yields the same values
whether asked for one at a time or ``n`` at a time, so a consumer that
owns its stream can pre-draw a block and stay bit-identical to scalar
draws while paying numpy's call overhead once per block.
"""

from __future__ import annotations

import itertools
import zlib
from typing import Callable, Dict, Iterator

import numpy as np

__all__ = ["BLOCK", "RngRegistry", "block_draws"]

#: Draws per refill of a :func:`block_draws` iterator.
BLOCK = 256


def block_draws(draw: Callable[[int], np.ndarray], block: int = BLOCK) -> Iterator[float]:
    """Endless iterator over ``draw(block)`` values, refilled a block at a time.

    ``draw`` is a Generator method such as ``rng.random`` or
    ``rng.standard_normal``.  The first block is drawn on the first
    ``next()``, so an iterator that is never read consumes nothing.
    Bit-identical to calling ``draw()`` once per value only while nothing
    else reads the same generator between refills: with ``block=1`` the
    draws interleave with other readers exactly as scalar calls would.
    ``tolist()`` keeps the exact float64 values as Python floats, and
    ``chain`` hands them out without entering Python code between refills.
    """
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block!r}")
    blocks = (draw(block).tolist() for _ in itertools.repeat(None))
    return itertools.chain.from_iterable(blocks)


def _stable_key(name: str) -> int:
    """Map a stream name to a stable 32-bit integer (CRC32 of the UTF-8 bytes)."""
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


class RngRegistry:
    """Factory for named, reproducible random generators.

    Parameters
    ----------
    seed:
        Root seed for the whole simulation run.

    Examples
    --------
    >>> r1, r2 = RngRegistry(7), RngRegistry(7)
    >>> bool((r1.stream("arrivals").random(4) == r2.stream("arrivals").random(4)).all())
    True
    """

    def __init__(self, seed: int = 0):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator
        instance (so draws advance its state), while distinct names get
        statistically independent streams.
        """
        gen = self._streams.get(name)
        if gen is None:
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(_stable_key(name),))
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def fork(self, salt: int) -> "RngRegistry":
        """A registry whose streams are independent of this one (used for reps)."""
        return RngRegistry(self.seed * 1_000_003 + salt)

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngRegistry(seed={self.seed}, streams={sorted(self._streams)})"
