import random

import numpy as np
import pytest

from rbmsumm import rng as rng_module
from rbmsumm.rng import Xorshift64Star

from oracles import ScalarXorshift64Star


class TestReferenceStream:
    def test_seed_42_raw_outputs(self):
        rng = Xorshift64Star(42)
        assert [rng.next_uint64() for _ in range(3)] == [
            3580622183945639842,
            10378725325292465923,
            8967075514996744559,
        ]

    def test_seed_0_raw_outputs(self):
        rng = Xorshift64Star(0)
        assert [rng.next_uint64() for _ in range(3)] == [
            8916199331640804048,
            16032783972208265725,
            12954103179475586193,
        ]

    def test_same_seed_same_stream(self):
        a = Xorshift64Star(123)
        b = Xorshift64Star(123)
        assert [a.random() for _ in range(50)] == [b.random() for _ in range(50)]

    def test_different_seeds_differ(self):
        a = Xorshift64Star(1)
        b = Xorshift64Star(2)
        assert [a.next_uint64() for _ in range(4)] != [
            b.next_uint64() for _ in range(4)
        ]


class TestDistributions:
    def test_uniform_range_and_mean(self):
        rng = Xorshift64Star(7)
        xs = [rng.random() for _ in range(20000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        assert abs(sum(xs) / len(xs) - 0.5) < 0.01

    def test_normal_moments(self):
        rng = Xorshift64Star(11)
        xs = np.array([rng.normal() for _ in range(20000)])
        assert abs(xs.mean()) < 0.03
        assert abs(xs.std() - 1.0) < 0.03

    def test_normal_array_matches_scalar_order(self):
        a = Xorshift64Star(5)
        b = Xorshift64Star(5)
        arr = a.normal_array((3, 4), std=0.25)
        flat = [b.normal(0.0, 0.25) for _ in range(12)]
        np.testing.assert_array_equal(arr.reshape(-1), np.array(flat))

    def test_bernoulli_extremes_and_mean(self):
        rng = Xorshift64Star(3)
        zeros = rng.bernoulli_array(np.zeros(100))
        ones = rng.bernoulli_array(np.ones(100))
        assert not zeros.any()
        assert ones.all()
        samples = rng.bernoulli_array(np.full(20000, 0.25))
        assert abs(samples.mean() - 0.25) < 0.01


SEEDS = (0, 42, 2**64 - 1)
STEPS, CHUNK = rng_module._STEPS, rng_module._CHUNK
# at and around every lane and chunk boundary
SIZES = sorted(
    {0, 1, 2}
    | {b + d for b in (STEPS, 2 * STEPS, CHUNK // 2, CHUNK, 2 * CHUNK, 3 * CHUNK) for d in (-1, 0, 1)}
)


class TestBlockStream:
    """The numpy block stream against the scalar definition, bit for bit."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_consecutive_blocks_and_end_states(self, seed):
        oracle = ScalarXorshift64Star(seed)
        state = oracle.state
        for _ in range(2):
            raw, state = rng_module._block(state)
            assert raw.dtype == np.uint64
            assert raw.tolist() == [oracle.next_uint64() for _ in range(CHUNK)]
            assert state == oracle.state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_buffer_hands_out_the_stream_in_order(self, seed):
        for n in SIZES:
            oracle = ScalarXorshift64Star(seed)
            rng = Xorshift64Star(seed)
            assert rng._take(n).tolist() == [oracle.next_uint64() for _ in range(n)], n
            assert rng.next_uint64() == oracle.next_uint64(), n

    @pytest.mark.parametrize("seed", SEEDS)
    def test_interleaved_draws_match(self, seed):
        picker = random.Random(seed)
        oracle = ScalarXorshift64Star(seed)
        rng = Xorshift64Star(seed)
        drawn = 0
        while drawn < 3 * CHUNK:
            kind = picker.choice(("uint64", "random", "normal", "bernoulli", "big"))
            if kind == "uint64":
                assert rng.next_uint64() == oracle.next_uint64()
                drawn += 1
            elif kind == "random":
                assert rng.random() == oracle.random()
                drawn += 1
            elif kind == "normal":
                assert rng.normal(0.5, 2.0) == oracle.normal(0.5, 2.0)
                drawn += 1
            else:
                rows = picker.randrange(1, 5)
                cols = picker.randrange(0, 40) if kind == "bernoulli" else CHUNK // 3
                p = np.array([[picker.random() for _ in range(cols)] for _ in range(rows)])
                np.testing.assert_array_equal(rng.bernoulli_array(p), oracle.bernoulli_array(p))
                drawn += p.size
        assert rng.next_uint64() == oracle.next_uint64()
