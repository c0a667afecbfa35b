import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmsumm import rng as rng_module
from rbmsumm.rbm import _sigmoid
from rbmsumm.rng import Xorshift64Star

from oracles import ScalarXorshift64Star, oracle_bit_matrix_times


# the one seed whose splitmix64 output is 0
ZERO_STATE_SEED = 7046029254386353131


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
    assert rng_module._block(rng_module._lanes(state))[0][:3].tolist() == expected
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

    def test_the_seed_that_seeds_a_zero_state_still_draws(self):
        # the one seed whose splitmix64 output is 0; xorshift maps state 0
        # to itself, so without the guard its stream would be all zeros
        seed = ZERO_STATE_SEED
        assert rng_module._splitmix64(seed) == 0
        oracle = ScalarXorshift64Star(seed)
        uniforms = Xorshift64Star(seed)._take(2 * rng_module._CHUNK)
        assert uniforms[:3].tolist() == [oracle.random() for _ in range(3)]
        assert (uniforms != 0.0).all()

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

    @pytest.mark.parametrize(
        "logits",
        ([0.5, -1.0, 3.0], np.array([[1, -2], [0, 5]]), np.zeros((0, 9)), np.zeros((2, 3, 4))),
        ids=["list", "int-array", "size-0", "3-d"],
    )
    def test_bernoulli_returns_a_fresh_writable_float64_array(self, logits):
        rng = Xorshift64Star(42)
        first, second = rng.bernoulli_array(logits), rng.bernoulli_array(logits)
        for drawn in (first, second):
            assert drawn.dtype == np.float64
            assert drawn.shape == np.shape(logits)
            assert not np.shares_memory(drawn, rng._block)
            drawn[...] = 0.5  # writable
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, logits)

    def test_bernoulli_extremes_and_mean(self):
        rng = Xorshift64Star(3)
        zeros = rng.bernoulli_array(np.full(100, -np.inf))
        ones = rng.bernoulli_array(np.full(100, np.inf))
        assert not zeros.any()
        assert ones.all()
        samples = rng.bernoulli_array(np.full(20000, math.log(0.25 / 0.75)))
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

    @pytest.mark.parametrize("seed", SEEDS + (ZERO_STATE_SEED,))
    def test_consecutive_blocks_and_end_states(self, seed):
        """Four blocks in a row, the first from lanes reached by doubling
        and each next one from the lanes its block carried: lane ``i``
        starts at the oracle's state ``i * _STEPS`` steps into its block."""
        oracle = ScalarXorshift64Star(seed)
        lanes = rng_module._lanes(oracle.state)
        for _ in range(4):
            starts, raw = [], []
            for i in range(CHUNK):
                if i % STEPS == 0:
                    starts.append(oracle.state)
                raw.append(oracle.next_uint64())
            assert lanes.dtype == np.uint64
            assert lanes.tolist() == starts
            block, lanes = rng_module._block(lanes)
            assert block.dtype == np.uint64
            assert block.tolist() == raw
        assert int(lanes[0]) == oracle.state

    def test_the_byte_table_jump_is_the_chunk_matrix(self):
        """Every kept power of the chain: the doubling rounds' jumps
        ``T^(_STEPS * 2^j)``, then the block carry's ``T^_CHUNK``.  A
        table's entry for one set bit is a column of its power: the
        state that many steps after that bit alone; and ``_times`` is
        that matrix times every state."""
        powers = [STEPS << j for j in range(len(rng_module._LANE_JUMPS))] + [CHUNK]
        assert powers[-2] * 2 == CHUNK
        edges = [0, 1, 2**63, 2**64 - 1] + [1 << j for j in range(64)]
        drawn = np.random.default_rng(0).integers(0, 2**64, size=1000, dtype=np.uint64)
        states = np.concatenate((np.array(edges, dtype=np.uint64), drawn))
        for power, tables in zip(powers, [*rng_module._LANE_JUMPS, rng_module._CHUNK_TABLES]):
            columns = tables[:, 1 << np.arange(8)].reshape(64)
            for j in (0, 7, 8, 31, 56, 63):
                oracle = ScalarXorshift64Star(0)
                oracle.state = 1 << j
                for _ in range(power):
                    oracle.next_uint64()
                assert int(columns[j]) == oracle.state, (power, j)
            expected = [oracle_bit_matrix_times(columns, int(x)) for x in states]
            assert rng_module._times(tables, states).tolist() == expected, power

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
                x = np.array([[picker.gauss(0.0, 4.0) for _ in range(cols)] for _ in range(rows)])
                np.testing.assert_array_equal(rng.bernoulli_array(x), oracle.bernoulli_array(x))
                drawn += x.size
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
            x = np.array([picker.gauss(0.0, 4.0) for _ in range(math.prod(shape))]).reshape(shape)
            drawn = rng.bernoulli_array(x)
            assert drawn.shape == shape
            np.testing.assert_array_equal(drawn, oracle.bernoulli_array(x))
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
        (uniforms, logits), after = rng_module._first_block(oracle.state)
        raw, raw_after = rng_module._block(rng_module._lanes(oracle.state))
        assert uniforms.dtype == logits.dtype == np.float64
        assert uniforms.tobytes() == ((raw >> np.uint64(11)) * 2.0**-53).tobytes()
        assert uniforms.tolist() == [oracle.random() for _ in range(CHUNK)]
        with np.errstate(divide="ignore"):
            assert logits.tobytes() == (np.log(uniforms) - np.log1p(-uniforms)).tobytes()
        assert after.tolist() == raw_after.tolist()
        assert int(after[0]) == oracle.state
        for row in (uniforms, logits, after):
            with pytest.raises(ValueError):
                row[0] = 0

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


def generator_over(uniforms) -> Xorshift64Star:
    """A generator whose current block starts with ``uniforms``, each a
    multiple of 2^-53 in [0, 1), and goes on with zeros; its logits are
    computed as every block's are."""
    rng = Xorshift64Star(0)  # outside the patch, which must not reach the cache
    raw = np.zeros(CHUNK, dtype=np.uint64)
    raw[: len(uniforms)] = [int(u * 2.0**53) << 11 for u in uniforms]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng_module, "_block", lambda lanes: (raw, lanes))
        rng._block, _ = rng_module._uniform_block(rng._lanes)
    assert rng._take(len(uniforms)).tolist() == list(uniforms)
    rng._pos = 0
    return rng


def sigmoid_draws(u: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``u < sigmoid(x)``, as draws were made from probabilities, and
    where ``u`` is more than a few ulps from ``sigmoid(x)``.  An error
    of an ulp in a logit near ``x`` moves the threshold in ``u`` by
    about ``|x|`` ulps, so the margin grows with ``|x|``."""
    p = _sigmoid(x.copy(), np.empty(x.shape, dtype=bool), np.empty(x.shape))
    margin = 4.0 * np.spacing(np.maximum(u, p)) * (1.0 + np.abs(x))
    return u < p, np.abs(u - p) > margin


GRID = st.integers(0, 2**53 - 1).map(lambda k: k * 2.0**-53)


class TestLogitDraws:
    """A draw compares the logit of its uniform with its argument; that
    is the event u < sigmoid(x) wherever rounding cannot tell them apart."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                GRID | st.sampled_from([0.0, 0.5 - 2.0**-53, 0.5, 1.0 - 2.0**-53]),
                st.booleans(),
                st.floats(-800.0, 800.0) | st.floats(-1e-9, 1e-9),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_agrees_with_the_sigmoid_draw_beyond_a_few_ulps(self, entries):
        """Each ``x`` is drawn on its own, or as the uniform's logit plus
        a small offset."""
        u = np.array([entry[0] for entry in entries])
        rng = generator_over(u)
        logits = rng._block[1, : u.size]
        x = np.array([lg + v if near else v for lg, (_, near, v) in zip(logits, entries)])
        drawn = rng.bernoulli_array(x)
        expected, far = sigmoid_draws(u, x)
        np.testing.assert_array_equal(drawn[far], expected[far])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_agrees_on_a_block_of_independent_logits(self, seed):
        x = np.random.default_rng(seed % 2**32).normal(scale=8.0, size=CHUNK)
        drawn = Xorshift64Star(seed).bernoulli_array(x)
        expected, far = sigmoid_draws(Xorshift64Star(seed)._take(CHUNK), x)
        assert far.all()
        np.testing.assert_array_equal(drawn, expected)

    def test_a_zero_uniform_draws_one_for_every_finite_logit(self):
        x = np.array([-1e308, -800.0, -40.0, 0.0, 40.0, 1e308])
        assert generator_over([0.0] * x.size).bernoulli_array(x).tolist() == [1.0] * x.size

    def test_infinite_and_nan_logits(self):
        u = [0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53]
        for x, bit in ((np.inf, 1.0), (-np.inf, 0.0), (np.nan, 0.0)):
            assert generator_over(u).bernoulli_array(np.full(4, x)).tolist() == [bit] * 4

    def test_a_zero_logit_draws_u_below_one_half(self):
        u = [0.0, 2.0**-53, 0.5 - 2.0**-53, 0.5, 0.5 + 2.0**-53, 1.0 - 2.0**-53]
        drawn = generator_over(u).bernoulli_array(np.zeros(len(u)))
        assert drawn.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
        for seed in SEEDS:  # and over whole blocks of the stream
            rng, uniforms = Xorshift64Star(seed), Xorshift64Star(seed)._take(2 * CHUNK)
            assert rng.bernoulli_array(np.zeros(2 * CHUNK)).tolist() == (uniforms < 0.5).tolist()
