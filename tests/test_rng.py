import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmsumm import rng as rng_module
from rbmsumm.rng import Xorshift64Star

from oracles import ScalarXorshift64Star


def next_uniform(rng: Xorshift64Star) -> float:
    return float(rng._take(1)[0])


def documented_stream(seed: int) -> list[int]:
    """The first raw outputs of ``seed`` as the module docstring gives them."""
    lines = re.findall(r"^ *seed (\d+) +-> (.+)$", rng_module.__doc__, re.MULTILINE)
    assert [n for n, _ in lines] == ["42", "0"]
    return [int(x) for x in dict(lines)[str(seed)].split(", ")]


def check_documented_stream(seed: int) -> None:
    """The block's raw outputs, the oracle's and the generator's
    uniforms all follow the docstring's stream."""
    expected = documented_stream(seed)
    state = rng_module._splitmix64(seed)
    assert rng_module._block(state)[0][:3].tolist() == expected
    oracle = ScalarXorshift64Star(seed)
    assert oracle.state == state
    assert [oracle.next_uint64() for _ in range(3)] == expected
    uniforms = [(x >> 11) * 2.0**-53 for x in expected]
    assert Xorshift64Star(seed)._take(3).tolist() == uniforms


class TestReferenceStream:
    def test_seed_42_raw_outputs(self):
        check_documented_stream(42)

    def test_seed_0_raw_outputs(self):
        check_documented_stream(0)

    def test_same_seed_same_stream(self):
        a = Xorshift64Star(123)
        b = Xorshift64Star(123)
        assert a._take(50).tolist() == b._take(50).tolist()

    def test_different_seeds_differ(self):
        a = Xorshift64Star(1)
        b = Xorshift64Star(2)
        assert a._take(4).tolist() != b._take(4).tolist()


class TestDistributions:
    def test_uniform_range_and_mean(self):
        rng = Xorshift64Star(7)
        xs = rng._take(20000)
        assert ((0.0 <= xs) & (xs < 1.0)).all()
        assert abs(xs.mean() - 0.5) < 0.01

    def test_normal_moments(self):
        xs = Xorshift64Star(11).normal_array((20000,))
        assert abs(xs.mean()) < 0.03
        assert abs(xs.std() - 1.0) < 0.03

    def test_normal_array_matches_scalar_order(self):
        arr = Xorshift64Star(5).normal_array((3, 4), std=0.25)
        oracle = ScalarXorshift64Star(5)
        flat = [oracle.normal(0.0, 0.25) for _ in range(12)]
        np.testing.assert_array_equal(arr.reshape(-1), np.array(flat))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.lists(
            st.tuples(
                st.sampled_from([(9, 9), (3, 4), (7,), (1,), (0, 9), (5, 1), ()]),
                st.sampled_from([1.0, 0.01, 0.25, 3.0]),
                st.booleans(),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_normal_array_is_bit_equal_to_scalar_draws(self, seed, calls):
        """Back-to-back arrays, odd-sized ones included, with and without
        a uniform drawn before them."""
        rng, oracle = Xorshift64Star(seed), ScalarXorshift64Star(seed)
        for shape, std, uniform_first in calls:
            if uniform_first:
                assert next_uniform(rng) == oracle.random()
            arr = rng.normal_array(shape, std=std)
            assert arr.shape == shape
            assert arr.tobytes() == oracle.normal_array(shape, std=std).tobytes()
        assert next_uniform(rng) == oracle.random()

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
            assert rng._take(n).tolist() == [oracle.random() for _ in range(n)], n
            assert next_uniform(rng) == oracle.random(), n

    @pytest.mark.parametrize("seed", SEEDS)
    def test_interleaved_draws_match(self, seed):
        picker = random.Random(seed)
        oracle = ScalarXorshift64Star(seed)
        rng = Xorshift64Star(seed)
        drawn = 0
        while drawn < 3 * CHUNK:
            kind = picker.choice(("uniform", "uniforms", "normal", "bernoulli", "big"))
            if kind == "uniform":
                assert next_uniform(rng) == oracle.random()
                drawn += 1
            elif kind == "uniforms":  # up to a little over a block
                n = picker.randrange(0, CHUNK + 40)
                assert rng._take(n).tolist() == [oracle.random() for _ in range(n)]
                drawn += n
            elif kind == "normal":  # one value of a pair, the other dropped
                arr = rng.normal_array((1,), std=2.0)
                assert arr.tobytes() == oracle.normal_array((1,), std=2.0).tobytes()
                drawn += 2
            else:
                rows = picker.randrange(1, 5)
                cols = picker.randrange(0, 40) if kind == "bernoulli" else CHUNK // 3
                p = np.array([[picker.random() for _ in range(cols)] for _ in range(rows)])
                np.testing.assert_array_equal(rng.bernoulli_array(p), oracle.bernoulli_array(p))
                drawn += p.size
        assert next_uniform(rng) == oracle.random()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("before", (0, 1, CHUNK - 36))
    def test_bernoulli_draw_that_ends_at_the_block_end(self, seed, before):
        # the last draw that slices the current block, whose end is
        # exactly _CHUNK, then draws that start in the next block
        oracle = ScalarXorshift64Star(seed)
        rng = Xorshift64Star(seed)
        assert rng._take(before).tolist() == [oracle.random() for _ in range(before)]
        picker = random.Random(seed)
        for shape in ((CHUNK - before,), (4, 9), (1, 1)):
            p = np.array([picker.random() for _ in range(math.prod(shape))]).reshape(shape)
            drawn = rng.bernoulli_array(p)
            assert drawn.shape == shape
            np.testing.assert_array_equal(drawn, oracle.bernoulli_array(p))
        assert next_uniform(rng) == oracle.random()


class TestFirstBlockCache:
    def test_cached_block_rejects_writes(self):
        rng = Xorshift64Star(42)
        with pytest.raises(ValueError):
            rng._take(3)[0] = 0.5
        rng._take(CHUNK)  # into the second block, which no cache holds
        with pytest.raises(ValueError):
            rng._take(3)[0] = 0.5

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cached_uniforms_are_read_only_top_53_bits(self, seed):
        oracle = ScalarXorshift64Star(seed)
        uniforms, end = rng_module._first_block(oracle.state)
        raw, raw_end = rng_module._block(oracle.state)
        assert uniforms.dtype == np.float64
        assert uniforms.tobytes() == ((raw >> np.uint64(11)) * 2.0**-53).tobytes()
        assert uniforms.tolist() == [oracle.random() for _ in range(CHUNK)]
        assert end == raw_end == oracle.state
        with pytest.raises(ValueError):
            uniforms[0] = 0.5

    def test_cache_holds_at_most_four_blocks(self):
        assert rng_module._first_block.cache_info().maxsize == 4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_interleaved_generators_of_one_seed_each_give_the_stream(self, seed):
        rngs = [Xorshift64Star(seed), Xorshift64Star(seed)]
        oracles = [ScalarXorshift64Star(seed), ScalarXorshift64Star(seed)]
        # both generators cross the first block's end, one after the other
        for sizes in ((CHUNK - 3, 5), (2, CHUNK - 1), (7, 7), (CHUNK, 1)):
            for rng, oracle, n in zip(rngs, oracles, sizes):
                assert rng._take(n).tolist() == [oracle.random() for _ in range(n)]
        for rng, oracle in zip(rngs, oracles):
            assert next_uniform(rng) == oracle.random()
