import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rbmsumm.rbm as rbm_module
from rbmsumm import DimensionMismatch, NonFiniteParameter
from rbmsumm.features import SentenceFeatureMatrix
from rbmsumm.rbm import (
    MAX_CHAINS,
    ChainState,
    _phase_statistics,
    _sigmoid,
    Rbm,
    TrainConfig,
    enhance,
    gibbs_step,
    hidden_probabilities,
    init_rbm,
    pcd_update,
    reconstruction_cross_entropy,
    stack_enhance,
    train,
    train_with_history,
    visible_probabilities,
)
from rbmsumm.rng import Xorshift64Star

from oracles import (
    exact_log_likelihood_gradient,
    exact_model_negative_statistics,
    four_mask_sigmoid,
)


def zero_rbm(n_visible=9, n_hidden=9):
    return Rbm(
        weights=np.zeros((n_hidden, n_visible)),
        visible_bias=np.zeros(n_visible),
        hidden_bias=np.zeros(n_hidden),
    )


def random_rbm(n_visible, n_hidden, seed, scale=1.0):
    rng = Xorshift64Star(seed)
    return Rbm(
        weights=rng.normal_array((n_hidden, n_visible), std=scale),
        visible_bias=rng.normal_array((n_visible,), std=scale),
        hidden_bias=rng.normal_array((n_hidden,), std=scale),
    )


def normalized_matrix(values):
    return SentenceFeatureMatrix(values=np.asarray(values, dtype=float), normalized=True)


class TestInit:
    def test_same_seed_identical(self):
        a, b = init_rbm(9, 9, seed=5), init_rbm(9, 9, seed=5)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_different_seeds_differ(self):
        assert not np.array_equal(init_rbm(9, 9, 1).weights, init_rbm(9, 9, 2).weights)

    def test_biases_exactly_zero(self):
        rbm = init_rbm(9, 9, seed=3)
        assert not rbm.visible_bias.any()
        assert not rbm.hidden_bias.any()

    def test_weight_scale(self):
        rbm = init_rbm(50, 50, seed=4)
        assert abs(rbm.weights.std() - 0.01) < 0.002

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            init_rbm(0, 9, 1)


class TestActivations:
    def test_zero_parameters_give_half(self):
        rbm = zero_rbm()
        v = np.linspace(0, 1, 9)
        np.testing.assert_allclose(hidden_probabilities(rbm, v), np.full(9, 0.5))
        np.testing.assert_allclose(visible_probabilities(rbm, np.zeros(9)), np.full(9, 0.5))

    def test_zero_input_leaves_bias_term(self):
        rbm = Rbm(
            weights=np.zeros((2, 3)),
            visible_bias=np.zeros(3),
            hidden_bias=np.array([0.3, -1.2]),
        )
        expected = 1.0 / (1.0 + np.exp(-np.array([0.3, -1.2])))
        np.testing.assert_allclose(hidden_probabilities(rbm, np.zeros(3)), expected)

    def test_single_unit_known_sigmoids(self):
        rbm = Rbm(
            weights=np.array([[1.0]]),
            visible_bias=np.array([-1.0]),
            hidden_bias=np.array([0.0]),
        )
        # pre-activation 1.0 on the hidden side
        assert hidden_probabilities(rbm, np.array([1.0]))[0] == pytest.approx(
            0.7310585786300049, abs=1e-12
        )
        # pre-activation -1.0 on the visible side
        assert visible_probabilities(rbm, np.array([0.0]))[0] == pytest.approx(
            0.2689414213699951, abs=1e-12
        )

    def test_transpose_symmetry(self):
        rbm = random_rbm(4, 4, seed=9)
        sym = Rbm(
            weights=(rbm.weights + rbm.weights.T) / 2,
            visible_bias=np.zeros(4),
            hidden_bias=np.zeros(4),
        )
        x = np.array([0.2, 0.8, 0.5, 0.1])
        np.testing.assert_allclose(
            hidden_probabilities(sym, x), visible_probabilities(sym, x), atol=1e-14
        )

    def test_sigmoid_bit_equal_to_four_mask_form(self):
        edges = [0.0, 1e-300, 36.0, 709.0, 745.0, 1e308, np.inf]
        cases = [
            np.array(edges + [-x for x in edges]),
            np.random.default_rng(3).normal(scale=40.0, size=(7, 9)),
        ]
        for x in cases:
            assert _sigmoid(x).tobytes() == four_mask_sigmoid(x).tobytes()

    def test_dimension_mismatch(self):
        rbm = zero_rbm(9, 9)
        with pytest.raises(DimensionMismatch):
            hidden_probabilities(rbm, np.zeros(5))
        with pytest.raises(DimensionMismatch):
            visible_probabilities(rbm, np.zeros(4))

    def test_batch_rows_match_vector_calls(self):
        rbm = random_rbm(5, 3, seed=11)
        batch = Xorshift64Star(2).normal_array((6, 5))
        rows = hidden_probabilities(rbm, batch)
        for i in range(6):
            np.testing.assert_allclose(rows[i], hidden_probabilities(rbm, batch[i]))


class TestGibbsStep:
    def test_zero_parameter_outputs_are_fair_bits(self):
        rbm = zero_rbm(4, 4)
        rng = Xorshift64Star(77)
        v = np.zeros(4)
        total = 0.0
        steps = 10000
        for _ in range(steps):
            v = gibbs_step(rbm, v, rng)
            total += v.sum()
        mean = total / (steps * 4)
        assert abs(mean - 0.5) < 0.02

    def test_saturated_biases_force_ones(self):
        rbm = Rbm(
            weights=np.zeros((3, 3)),
            visible_bias=np.full(3, 50.0),
            hidden_bias=np.full(3, 50.0),
        )
        v = gibbs_step(rbm, np.zeros(3), Xorshift64Star(1))
        assert (v == 1.0).all()

    def test_fixed_seed_identical_trajectory(self):
        rbm = random_rbm(6, 5, seed=13, scale=0.5)
        a = Xorshift64Star(99)
        b = Xorshift64Star(99)
        va = vb = np.zeros(6)
        for _ in range(20):
            va = gibbs_step(rbm, va, a)
            vb = gibbs_step(rbm, vb, b)
            np.testing.assert_array_equal(va, vb)

    def test_outputs_are_binary(self):
        rbm = random_rbm(6, 6, seed=21)
        v = gibbs_step(rbm, np.full(6, 0.5), Xorshift64Star(5))
        assert set(np.unique(v)) <= {0.0, 1.0}


class TestPcdUpdate:
    def test_zero_learning_rate_advances_chains_only(self):
        rbm = random_rbm(4, 4, seed=31, scale=0.2)
        chains = ChainState(visible_states=np.zeros((3, 4)))
        config = TrainConfig(learning_rate=0.0, seed=1)
        batch = np.full((2, 4), 0.7)
        updated, new_chains = pcd_update(rbm, batch, chains, config, Xorshift64Star(8))
        np.testing.assert_array_equal(updated.weights, rbm.weights)
        np.testing.assert_array_equal(updated.visible_bias, rbm.visible_bias)
        np.testing.assert_array_equal(updated.hidden_bias, rbm.hidden_bias)
        assert not np.array_equal(new_chains.visible_states, chains.visible_states)

    def test_dimension_mismatch(self):
        rbm = zero_rbm(9, 9)
        chains = ChainState(visible_states=np.zeros((4, 9)))
        with pytest.raises(DimensionMismatch):
            pcd_update(rbm, np.zeros((2, 5)), chains, TrainConfig(), Xorshift64Star(1))

    def test_zero_batch_pushes_visible_bias_down(self):
        # saturated positive visible bias keeps the advanced chains at
        # all-ones, so the data term (zero) minus the chain term must be
        # strictly negative for every visible unit
        rbm = Rbm(
            weights=np.zeros((3, 3)),
            visible_bias=np.full(3, 10.0),
            hidden_bias=np.zeros(3),
        )
        chains = ChainState(visible_states=np.ones((4, 3)))
        updated, _ = pcd_update(
            rbm, np.zeros((2, 3)), chains, TrainConfig(seed=2), Xorshift64Star(3)
        )
        assert (updated.visible_bias < rbm.visible_bias).all()

    def test_chains_not_reset_to_data(self):
        rbm = Rbm(
            weights=np.zeros((3, 3)),
            visible_bias=np.full(3, 50.0),  # chains saturate at ones
            hidden_bias=np.zeros(3),
        )
        chains = ChainState(visible_states=np.ones((2, 3)))
        batch = np.zeros((2, 3))
        _, new_chains = pcd_update(
            rbm, batch, chains, TrainConfig(seed=4), Xorshift64Star(6)
        )
        assert (new_chains.visible_states == 1.0).all()


@st.composite
def _phase_inputs(draw):
    shape = (draw(st.integers(1, 39)), draw(st.integers(1, 11)))
    magnitude = draw(st.sampled_from([1e-300, 1e-5, 1.0, 1e5, 1e300]))
    elements = draw(st.sampled_from([
        st.sampled_from([0.0, 1.0]),
        st.floats(-magnitude, magnitude, allow_nan=False),
    ]))
    return draw(arrays(np.float64, shape, elements=elements)), draw(st.integers(1, 11))


@settings(max_examples=200, deadline=None)
@given(_phase_inputs(), st.integers(0, 2**64 - 1))
def test_phase_statistics_means_are_bit_equal_to_ndarray_mean(inputs, seed):
    visible, n_hidden = inputs
    rbm = init_rbm(visible.shape[1], n_hidden, seed)
    _, vb, hb = _phase_statistics(rbm, visible)
    assert vb.tobytes() == visible.mean(axis=0).tobytes()
    assert hb.tobytes() == hidden_probabilities(rbm, visible).mean(axis=0).tobytes()


class TestGradientOracle:
    @pytest.mark.parametrize(
        "n_visible,n_hidden,seed",
        [(2, 2, 17), (3, 2, 23), (2, 3, 29), (3, 3, 37)],
    )
    def test_expected_update_equals_analytic_gradient(self, n_visible, n_hidden, seed):
        rbm = random_rbm(n_visible, n_hidden, seed=seed)
        rng = Xorshift64Star(seed + 1)
        data = (rng.normal_array((5, n_visible)) > 0).astype(float)

        pos_w, pos_vb, pos_hb = _phase_statistics(rbm, data)
        neg_w, neg_vb, neg_hb = exact_model_negative_statistics(
            rbm.weights, rbm.visible_bias, rbm.hidden_bias
        )
        grad_w, grad_vb, grad_hb = exact_log_likelihood_gradient(
            rbm.weights, rbm.visible_bias, rbm.hidden_bias, data
        )
        np.testing.assert_allclose(pos_w - neg_w, grad_w, atol=1e-10)
        np.testing.assert_allclose(pos_vb - neg_vb, grad_vb, atol=1e-10)
        np.testing.assert_allclose(pos_hb - neg_hb, grad_hb, atol=1e-10)

    def test_chain_statistics_converge_to_exact_expectation(self):
        # long-run PCD chain averages approach the enumerated model
        # expectation, tying the sampled negative phase to the oracle
        rbm = random_rbm(2, 2, seed=41, scale=0.8)
        neg_w_exact, neg_vb_exact, _ = exact_model_negative_statistics(
            rbm.weights, rbm.visible_bias, rbm.hidden_bias
        )
        rng = Xorshift64Star(55)
        states = np.zeros((10, 2))
        acc_w = np.zeros_like(rbm.weights)
        acc_vb = np.zeros_like(rbm.visible_bias)
        draws = 4000
        for _ in range(draws):
            states = gibbs_step(rbm, states, rng)
            w, vb, _ = _phase_statistics(rbm, states)
            acc_w += w
            acc_vb += vb
        np.testing.assert_allclose(acc_w / draws, neg_w_exact, atol=0.02)
        np.testing.assert_allclose(acc_vb / draws, neg_vb_exact, atol=0.02)


class TestTrain:
    def test_zero_epochs_returns_initialization(self):
        matrix = normalized_matrix(np.full((6, 9), 0.5))
        config = TrainConfig(epochs=0, seed=8)
        trained = train(matrix, config)
        reference = init_rbm(9, 9, seed=8)
        np.testing.assert_array_equal(trained.weights, reference.weights)
        np.testing.assert_array_equal(trained.visible_bias, reference.visible_bias)

    def test_deterministic_given_seed(self, article_doc):
        from rbmsumm import build_feature_matrix, normalize_columns

        norm = normalize_columns(build_feature_matrix(article_doc))
        a = train(norm, TrainConfig(seed=42))
        b = train(norm, TrainConfig(seed=42))
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.visible_bias, b.visible_bias)
        np.testing.assert_array_equal(a.hidden_bias, b.hidden_bias)

    def test_seed_changes_parameters(self, article_doc):
        from rbmsumm import build_feature_matrix, normalize_columns

        norm = normalize_columns(build_feature_matrix(article_doc))
        a = train(norm, TrainConfig(seed=1))
        b = train(norm, TrainConfig(seed=2))
        assert not np.array_equal(a.weights, b.weights)

    def test_all_ones_matrix_reconstruction_above_half(self):
        matrix = normalized_matrix(np.ones((8, 9)))
        rbm = train(matrix, TrainConfig(seed=42))
        recon = visible_probabilities(rbm, hidden_probabilities(rbm, np.ones((8, 9))))
        assert recon.mean() > 0.5

    def test_cross_entropy_final_not_above_first(self, article_doc):
        from rbmsumm import build_feature_matrix, normalize_columns

        norm = normalize_columns(build_feature_matrix(article_doc))
        _, history = train_with_history(norm, TrainConfig(seed=42))
        assert len(history) == 5
        assert history[-1] <= history[0]

    def test_history_only_computed_on_request(self, article_doc, monkeypatch):
        from rbmsumm import build_feature_matrix, normalize_columns

        norm = normalize_columns(build_feature_matrix(article_doc))
        calls = []
        original = rbm_module.reconstruction_cross_entropy

        def counting(rbm, rows):
            calls.append(1)
            return original(rbm, rows)

        monkeypatch.setattr(rbm_module, "reconstruction_cross_entropy", counting)
        plain = train(norm, TrainConfig(seed=42))
        stack_enhance(norm, TrainConfig(seed=42), layers=2)
        assert calls == []
        traced, history = train_with_history(norm, TrainConfig(seed=42))
        assert len(calls) == len(history) == 5
        np.testing.assert_array_equal(plain.weights, traced.weights)

    def test_extreme_learning_rate_history_is_finite(self, article_doc):
        from rbmsumm import build_feature_matrix, normalize_columns

        norm = normalize_columns(build_feature_matrix(article_doc))
        _, history = train_with_history(norm, TrainConfig(learning_rate=1000, seed=42))
        assert all(np.isfinite(history))

    def test_overflowing_parameter_raises_typed_error(self, article_doc):
        from rbmsumm import build_feature_matrix, normalize_columns

        norm = normalize_columns(build_feature_matrix(article_doc))
        config = TrainConfig(learning_rate=1.79e308, epochs=1, batch_size=1, n_chains=1, seed=1)
        with pytest.raises(NonFiniteParameter) as info:
            train(norm, config)
        assert isinstance(info.value, ArithmeticError)

    def test_parameters_stay_finite(self, article_doc):
        from rbmsumm import build_feature_matrix, normalize_columns

        norm = normalize_columns(build_feature_matrix(article_doc))
        rbm = train(norm, TrainConfig(seed=11, epochs=50))
        assert np.isfinite(rbm.weights).all()
        assert np.isfinite(rbm.visible_bias).all()
        assert np.isfinite(rbm.hidden_bias).all()

    def test_requires_normalized_matrix(self):
        raw = SentenceFeatureMatrix(values=np.ones((4, 9)), normalized=False)
        with pytest.raises(ValueError):
            train(raw, TrainConfig())

    def test_partial_final_batch_trained(self):
        # 6 rows with batch_size 4 leaves a final batch of 2; the run
        # must consume it without error and still learn
        matrix = normalized_matrix(np.tile(np.linspace(0, 1, 9), (6, 1)))
        rbm = train(matrix, TrainConfig(seed=3))
        assert np.isfinite(rbm.weights).all()

    def test_chain_states_persist_across_updates(self, article_doc, monkeypatch):
        from rbmsumm import build_feature_matrix, normalize_columns

        norm = normalize_columns(build_feature_matrix(article_doc))
        seen = []
        real_update = rbm_module.pcd_update

        def recording_update(rbm, batch, chains, config, rng):
            out_rbm, out_chains = real_update(rbm, batch, chains, config, rng)
            seen.append((chains.visible_states.copy(), out_chains.visible_states.copy()))
            return out_rbm, out_chains

        monkeypatch.setattr(rbm_module, "pcd_update", recording_update)
        train(norm, TrainConfig(seed=42))
        assert len(seen) == 10  # 5 epochs x 2 batches of a 6-row matrix
        for (prev_in, prev_out), (next_in, _) in zip(seen, seen[1:]):
            np.testing.assert_array_equal(prev_out, next_in)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        for rate in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                TrainConfig(learning_rate=rate)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(n_chains=0)
        with pytest.raises(ValueError, match="n_chains"):
            TrainConfig(n_chains=MAX_CHAINS + 1)
        assert TrainConfig(n_chains=MAX_CHAINS).n_chains == MAX_CHAINS


@st.composite
def _training_runs(draw):
    n = draw(st.integers(1, 40))
    rows = draw(arrays(np.float64, (n, 9), elements=st.floats(0.0, 1.0)))
    config = TrainConfig(
        learning_rate=draw(st.floats(0.0, sys.float_info.max)),
        epochs=draw(st.integers(1, 3)),
        batch_size=draw(st.integers(1, n + 2)),
        n_chains=draw(st.integers(1, 6)),
        gibbs_steps_per_update=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    return normalized_matrix(rows), config


@settings(max_examples=150, deadline=None)
@given(_training_runs())
def test_training_stays_finite_or_raises_typed_error(run):
    """Over the whole legal range of TrainConfig, with every warning an
    error, training either gives finite parameters or raises
    NonFiniteParameter."""
    matrix, config = run
    try:
        rbm = train(matrix, config)
    except NonFiniteParameter:
        return
    for parameter in (rbm.weights, rbm.visible_bias, rbm.hidden_bias):
        assert np.isfinite(parameter).all()
    probabilities = enhance(matrix, rbm).values
    assert ((probabilities >= 0.0) & (probabilities <= 1.0)).all()


class TestEnhance:
    def test_zero_rbm_gives_half_everywhere(self):
        matrix = normalized_matrix(Xorshift64Star(1).normal_array((5, 9)))
        out = enhance(matrix, zero_rbm())
        np.testing.assert_allclose(out.values, np.full((5, 9), 0.5))

    def test_identical_rows_identical_outputs(self):
        matrix = normalized_matrix(np.tile(np.linspace(0, 1, 9), (4, 1)))
        rbm = random_rbm(9, 9, seed=6)
        out = enhance(matrix, rbm)
        for row in out.values[1:]:
            np.testing.assert_array_equal(row, out.values[0])

    def test_matches_direct_sigmoid_recomputation(self, article_doc):
        from rbmsumm import build_feature_matrix, normalize_columns

        norm = normalize_columns(build_feature_matrix(article_doc))
        rbm = train(norm, TrainConfig(seed=42))
        out = enhance(norm, rbm)
        for i, row in enumerate(norm.values):
            expected = 1.0 / (1.0 + np.exp(-(rbm.weights @ row + rbm.hidden_bias)))
            np.testing.assert_allclose(out.values[i], expected, atol=1e-12)

    def test_outputs_strictly_inside_unit_interval(self, article_doc):
        from rbmsumm import build_feature_matrix, normalize_columns

        norm = normalize_columns(build_feature_matrix(article_doc))
        out = enhance(norm, train(norm, TrainConfig(seed=42)))
        assert (out.values > 0.0).all() and (out.values < 1.0).all()

    def test_dimension_mismatch(self):
        matrix = normalized_matrix(np.ones((3, 5)))
        with pytest.raises(DimensionMismatch):
            enhance(matrix, zero_rbm(9, 9))


class TestStackEnhance:
    def test_one_layer_equals_train_plus_enhance(self, article_doc):
        from rbmsumm import build_feature_matrix, normalize_columns

        norm = normalize_columns(build_feature_matrix(article_doc))
        config = TrainConfig(seed=42)
        stacked = stack_enhance(norm, config, layers=1)
        direct = enhance(norm, train(norm, config))
        np.testing.assert_array_equal(stacked.values, direct.values)

    def test_two_layers_differ_from_one(self, article_doc):
        from rbmsumm import build_feature_matrix, normalize_columns

        norm = normalize_columns(build_feature_matrix(article_doc))
        config = TrainConfig(seed=42)
        one = stack_enhance(norm, config, layers=1)
        two = stack_enhance(norm, config, layers=2)
        assert not np.array_equal(one.values, two.values)

    def test_two_layers_deterministic(self, article_doc):
        from rbmsumm import build_feature_matrix, normalize_columns

        norm = normalize_columns(build_feature_matrix(article_doc))
        config = TrainConfig(seed=42)
        a = stack_enhance(norm, config, layers=2)
        b = stack_enhance(norm, config, layers=2)
        np.testing.assert_array_equal(a.values, b.values)

    def test_zero_parameter_layers_compose_to_half(self):
        matrix = normalized_matrix(Xorshift64Star(4).normal_array((4, 9)))
        first = enhance(matrix, zero_rbm())
        second = enhance(first, zero_rbm())
        np.testing.assert_allclose(second.values, np.full((4, 9), 0.5))

    def test_invalid_layer_count(self):
        matrix = normalized_matrix(np.ones((2, 9)))
        with pytest.raises(ValueError):
            stack_enhance(matrix, TrainConfig(), layers=3)


class TestReconstructionCrossEntropy:
    def test_zero_rbm_on_uniform_rows(self):
        # reconstruction is 0.5 everywhere: CE = -9 * log(0.5) per row
        value = reconstruction_cross_entropy(zero_rbm(), np.full((3, 9), 0.5))
        assert value == pytest.approx(9 * np.log(2.0), abs=1e-12)

    def test_matches_probability_form(self):
        rbm = random_rbm(4, 3, seed=5, scale=2.0)
        rows = np.random.default_rng(6).random((7, 4))
        recon = visible_probabilities(rbm, hidden_probabilities(rbm, rows))
        expected = -(rows * np.log(recon) + (1 - rows) * np.log(1 - recon)).sum(axis=1)
        assert reconstruction_cross_entropy(rbm, rows) == pytest.approx(
            float(expected.mean()), rel=1e-12
        )

    def test_saturated_reconstruction_stays_finite(self):
        # visible logits of +-1000 give sigmoids of exactly 1 and 0
        rbm = Rbm(
            weights=np.zeros((2, 2)),
            visible_bias=np.array([1000.0, -1000.0]),
            hidden_bias=np.zeros(2),
        )
        rows = np.array([[0.0, 1.0], [0.5, 0.5]])
        value = reconstruction_cross_entropy(rbm, rows)
        assert value == pytest.approx((2000.0 + 1000.0) / 2)
