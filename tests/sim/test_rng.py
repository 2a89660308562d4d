"""Unit tests for named RNG streams."""

import numpy as np
import pytest

from repro.sim.rng import BLOCK, RngRegistry, block_draws


class TestReproducibility:
    def test_same_seed_same_stream(self):
        a = RngRegistry(7).stream("arrivals").random(16)
        b = RngRegistry(7).stream("arrivals").random(16)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        a = RngRegistry(7).stream("arrivals").random(16)
        b = RngRegistry(8).stream("arrivals").random(16)
        assert not np.array_equal(a, b)

    def test_different_names_independent(self):
        r = RngRegistry(7)
        a = r.stream("a").random(16)
        b = r.stream("b").random(16)
        assert not np.array_equal(a, b)

    def test_stream_keyed_by_name_not_creation_order(self):
        r1 = RngRegistry(7)
        r1.stream("x")  # extra consumer created first
        a = r1.stream("arrivals").random(8)
        r2 = RngRegistry(7)
        b = r2.stream("arrivals").random(8)  # no extra consumer
        assert np.array_equal(a, b)

    def test_repeated_lookup_returns_same_generator(self):
        r = RngRegistry(1)
        g1 = r.stream("s")
        g1.random(4)
        g2 = r.stream("s")
        assert g1 is g2


class TestApi:
    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngRegistry("seed")  # type: ignore[arg-type]

    def test_contains(self):
        r = RngRegistry(1)
        assert "s" not in r
        r.stream("s")
        assert "s" in r

    def test_fork_independent(self):
        r = RngRegistry(3)
        f = r.fork(1)
        a = r.stream("s").random(8)
        b = f.stream("s").random(8)
        assert not np.array_equal(a, b)

    def test_fork_deterministic(self):
        a = RngRegistry(3).fork(5).stream("s").random(8)
        b = RngRegistry(3).fork(5).stream("s").random(8)
        assert np.array_equal(a, b)


class TestBlockDraws:
    @pytest.mark.parametrize("block", [1, 5, BLOCK])
    def test_equals_scalar_draws_across_refills(self, block):
        it = block_draws(np.random.default_rng(9).random, block)
        ref = np.random.default_rng(9)
        n = 2 * block + 3
        assert [next(it) for _ in range(n)] == [float(ref.random()) for _ in range(n)]

    def test_nothing_drawn_before_first_read(self):
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        block_draws(rng.standard_normal)
        assert rng.bit_generator.state == before

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError, match="block"):
            block_draws(np.random.default_rng(0).random, 0)
