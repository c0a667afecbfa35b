"""Bernoulli restricted Boltzmann machine trained per document.

The model is trained with persistent contrastive divergence: the
negative-phase Gibbs chains carry over from update to update instead of
restarting at the data.  Real-valued inputs in [0, 1] are treated as
Bernoulli probabilities.  Every routine is deterministic given the
seed; the RNG is consumed in a fixed order (weights row-major, then
chain initialization, then per update: hidden samples before visible
samples, row-major).

Training runs one fused update per batch (``_Pcd.update``): the three
parameters are views into one flat buffer, and every intermediate
lands in an array made once per machine, so an update allocates only
the samples that its draws return.  Its products go through
``np.dot(..., out=)``, the same BLAS call as ``@`` with less overhead.
A Gibbs half-step hands its pre-activations to ``bernoulli_array``,
which compares them with its uniforms' logits, so only the phase
statistics compute a sigmoid.  The update computes the same values and
draws the same uniforms in the same order as the reference Gibbs step
and phase statistics in ``tests/oracles.py``, so its weights are
bit-equal to a loop of those.
Finiteness is checked once per epoch: adding a step never makes a
non-finite float finite, so a parameter that breaks mid-epoch still
fails the check, with the same history as a check after every update.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .errors import DimensionMismatch, NonFiniteParameter
from .features import N_FEATURES, SentenceFeatureMatrix
from .rng import Xorshift64Star

# one hidden unit per feature, so an enhanced matrix keeps its input's shape
N_HIDDEN = N_FEATURES
WEIGHT_INIT_STD = 0.01
# a 65 536 x 9 float64 chain array is 4.7 MB; epochs and Gibbs steps per
# update share the bound, so that training always ends
MAX_CHAINS = 2**16
# one machine, or two stacked
Layers = Literal[1, 2]


@dataclass(frozen=True)
class Rbm:
    weights: np.ndarray  # (n_hidden, n_visible)
    visible_bias: np.ndarray  # (n_visible,)
    hidden_bias: np.ndarray  # (n_hidden,)

    @property
    def n_visible(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 5
    batch_size: int = 4
    n_chains: int = 4
    gibbs_steps_per_update: int = 1
    seed: int = 42

    def __post_init__(self):
        # a zero learning rate is allowed: updates become no-ops while
        # the chains still advance; NaN fails both comparisons
        if not 0 <= self.learning_rate <= sys.float_info.max:
            raise ValueError("learning_rate must be finite and >= 0")
        if not 0 <= self.epochs <= MAX_CHAINS:
            raise ValueError(f"epochs must be in [0, {MAX_CHAINS}]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 1 <= self.n_chains <= MAX_CHAINS:
            raise ValueError(f"n_chains must be in [1, {MAX_CHAINS}]")
        if not 1 <= self.gibbs_steps_per_update <= MAX_CHAINS:
            raise ValueError(f"gibbs_steps_per_update must be in [1, {MAX_CHAINS}]")


def _sigmoid(x: np.ndarray, nonnegative: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Logistic function of ``x``, in place, with ``nonnegative`` (bool)
    and ``denominator`` as scratch arrays of its shape; exp only ever
    sees a value <= 0, so it never overflows.  Returns ``x``."""
    np.greater_equal(x, 0.0, out=nonnegative)
    np.exp(np.copysign(x, -1.0, out=x), out=x)  # exp(-|x|)
    np.add(x, 1.0, out=denominator)
    np.copyto(x, 1.0, where=nonnegative)  # 1/d there, e/d elsewhere
    np.divide(x, denominator, out=x)
    return x


def hidden_probabilities(rbm: Rbm, v: np.ndarray) -> np.ndarray:
    """sigmoid(hidden_bias + W v); accepts a vector or a row matrix."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != rbm.n_visible:
        raise DimensionMismatch(
            f"expected {rbm.n_visible} visible values, got {v.shape[-1]}"
        )
    x = v @ rbm.weights.T + rbm.hidden_bias
    return _sigmoid(x, np.empty(x.shape, dtype=bool), np.empty_like(x))


def _split(flat: np.ndarray, n_hidden: int, n_visible: int):
    """Weights, hidden bias and visible bias: views into ``flat``, in
    that order."""
    hw = n_hidden * n_visible
    return (
        flat[:hw].reshape(n_hidden, n_visible),
        flat[hw : hw + n_hidden],
        flat[hw + n_hidden :],
    )


class _Pcd:
    """One machine under persistent-CD training: its parameters are
    views into one flat buffer, and each update writes into scratch
    arrays made once."""

    def __init__(self, rbm: Rbm, n_chains: int, max_batch: int):
        n_hidden, n_visible = rbm.weights.shape
        self.params = np.concatenate(
            (rbm.weights.ravel(), rbm.hidden_bias, rbm.visible_bias), dtype=np.float64
        )
        self.weights, self.hidden_bias, self.visible_bias = _split(
            self.params, n_hidden, n_visible
        )
        self._weights_t = self.weights.T
        # the positive and the negative phase statistics, laid out as params
        self._positive = np.empty_like(self.params)
        self._negative = np.empty_like(self.params)
        self._positive_parts = _split(self._positive, n_hidden, n_visible)
        self._negative_parts = _split(self._negative, n_hidden, n_visible)
        # the hidden pre-activations of a batch's rows, then of the chains,
        # with _sigmoid's scratch; then the chains' in each Gibbs half-step
        shape = (max_batch + n_chains, n_hidden)
        self._hidden = np.empty(shape), np.empty(shape, dtype=bool), np.empty(shape)
        self._gibbs_hidden = np.empty((n_chains, n_hidden))
        self._gibbs_visible = np.empty((n_chains, n_visible))

    def rbm(self) -> Rbm:
        return Rbm(self.weights, self.visible_bias, self.hidden_bias)

    def update(
        self,
        batch: np.ndarray,
        batch_sum: np.ndarray,
        states: np.ndarray,
        config: TrainConfig,
        rng: Xorshift64Star,
    ) -> np.ndarray:
        """One persistent-CD parameter update; returns the chains' new
        visible states.  ``batch_sum`` is ``batch.sum(axis=0)``.

        The chains advance by ``gibbs_steps_per_update`` full Gibbs
        steps from ``states`` (never from the data), then each
        parameter moves by learning_rate times the difference between
        the data statistics and the chain statistics.  The caller checks
        the parameters with ``check_finite``.
        """
        weights, weights_t = self.weights, self._weights_t
        hidden_bias, visible_bias = self.hidden_bias, self.visible_bias
        hidden, visible = self._gibbs_hidden, self._gibbs_visible
        for _ in range(config.gibbs_steps_per_update):
            np.dot(states, weights_t, out=hidden)
            np.add(hidden, hidden_bias, out=hidden)
            h = rng.bernoulli_array(hidden)
            np.dot(h, weights, out=visible)
            np.add(visible, visible_bias, out=visible)
            states = rng.bernoulli_array(visible)

        n, n_chains = batch.shape[0], states.shape[0]
        values, nonnegative, denominator = self._hidden
        probabilities = values[: n + n_chains]
        data, chains = probabilities[:n], probabilities[n:]
        np.dot(batch, weights_t, out=data)
        np.dot(states, weights_t, out=chains)
        np.add(probabilities, hidden_bias, out=probabilities)
        _sigmoid(probabilities, nonnegative[: n + n_chains], denominator[: n + n_chains])

        positive, negative = self._positive, self._negative
        pos_w, pos_hb, pos_vb = self._positive_parts
        np.dot(data.T, batch, out=pos_w)
        np.add.reduce(data, axis=0, out=pos_hb)
        pos_vb[...] = batch_sum
        np.divide(positive, n, out=positive)
        neg_w, neg_hb, neg_vb = self._negative_parts
        np.dot(chains.T, states, out=neg_w)
        np.add.reduce(chains, axis=0, out=neg_hb)
        np.add.reduce(states, axis=0, out=neg_vb)
        np.divide(negative, n_chains, out=negative)

        np.subtract(positive, negative, out=positive)
        np.multiply(positive, config.learning_rate, out=positive)
        np.add(self.params, positive, out=self.params)
        return states

    def check_finite(self) -> None:
        if not np.isfinite(self.params).all():
            raise NonFiniteParameter(
                "non-finite RBM parameter after update; lower the learning_rate"
            )


def reconstruction_cross_entropy(rbm: Rbm, rows: np.ndarray) -> float:
    """Mean-field reconstruction cross-entropy, averaged over rows.

    Computed from the visible logits z: -log sigmoid(z) = logaddexp(0, -z)
    and -log(1 - sigmoid(z)) = logaddexp(0, z), which stay finite where
    the sigmoid saturates to exactly 0 or 1.  A row value of exactly 0
    or 1 drops the other term, which an infinite logit makes infinite.
    """
    rows = np.asarray(rows, dtype=np.float64)
    logits = hidden_probabilities(rbm, rows) @ rbm.weights + rbm.visible_bias
    ce = np.multiply(
        rows, np.logaddexp(0.0, -logits), out=np.zeros_like(logits), where=rows != 0.0
    )
    ce += np.multiply(
        1.0 - rows, np.logaddexp(0.0, logits), out=np.zeros_like(logits), where=rows != 1.0
    )
    return float(ce.sum(axis=1).mean())


def _train_rows(
    rows: np.ndarray,
    config: TrainConfig,
    history: list[float] | None = None,
) -> Rbm:
    """Train a fresh RBM on ``rows``, from small zero-mean Gaussian
    weights and zero biases.

    When ``history`` is given, the reconstruction cross-entropy after
    each epoch is appended to it.
    """
    n_rows, n_visible = rows.shape
    if not (n_rows and n_visible):
        raise ValueError(f"cannot train on a {n_rows} x {n_visible} matrix")
    rng = Xorshift64Star(config.seed)
    weights = rng.normal_array((N_HIDDEN, n_visible), std=WEIGHT_INIT_STD)
    rbm = Rbm(weights, np.zeros(n_visible), np.zeros(N_HIDDEN))
    pcd = _Pcd(rbm, config.n_chains, min(config.batch_size, n_rows))
    states = rng.bernoulli_array(np.zeros((config.n_chains, n_visible)))  # p = 0.5
    batches = []
    for start in range(0, n_rows, config.batch_size):
        batch = rows[start : start + config.batch_size]
        batches.append((batch, batch.sum(axis=0)))
    # a logit that overflows to +-inf saturates the sigmoid as any past
    # +-40 does; a parameter that overflows raises NonFiniteParameter at
    # the end of its epoch, and the updates after it, which compute on
    # infinities and NaNs, may not warn
    with np.errstate(over="ignore"):
        for _ in range(config.epochs):
            with np.errstate(invalid="ignore"):
                for batch, batch_sum in batches:
                    states = pcd.update(batch, batch_sum, states, config, rng)
            pcd.check_finite()
            if history is not None:
                history.append(reconstruction_cross_entropy(pcd.rbm(), rows))
    return pcd.rbm()


def train(
    matrix: SentenceFeatureMatrix,
    config: TrainConfig | None = None,
    *,
    history: list[float] | None = None,
) -> Rbm:
    """Train a fresh RBM on one document's normalized feature matrix, or
    on a machine's output for it.  When ``history`` is given, the mean
    reconstruction cross-entropy after each epoch is appended to it."""
    if not matrix.normalized:
        raise ValueError("train expects a normalized feature matrix")
    rows = np.asarray(matrix.values, dtype=np.float64)
    return _train_rows(rows, config or TrainConfig(), history)


def enhance(matrix: SentenceFeatureMatrix, rbm: Rbm) -> SentenceFeatureMatrix:
    """Deterministic pass through the hidden layer, row by row."""
    values = np.asarray(matrix.values, dtype=np.float64)
    with np.errstate(over="ignore"):  # saturating logits, as in _train_rows
        probabilities = hidden_probabilities(rbm, values)
    return SentenceFeatureMatrix(values=probabilities, normalized=matrix.normalized)


def stack_enhance(
    matrix: SentenceFeatureMatrix,
    config: TrainConfig | None = None,
    layers: Layers = 1,
) -> SentenceFeatureMatrix:
    """Enhance through one trained RBM, or through two stacked ones.

    With two layers, the first layer's output becomes both training
    data and input for a second machine of the same shape, trained with
    the same configuration.  Given that output, one layer here is the
    second machine alone.
    """
    if layers not in get_args(Layers):
        raise ValueError("layers must be 1 or 2")
    config = config or TrainConfig()
    enhanced = enhance(matrix, train(matrix, config))
    if layers == 2:
        enhanced = enhance(enhanced, train(enhanced, config))
    return enhanced
