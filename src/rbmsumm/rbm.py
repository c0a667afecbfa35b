"""Bernoulli restricted Boltzmann machine trained per document.

The model is trained with persistent contrastive divergence: the
negative-phase Gibbs chains carry over from update to update instead of
restarting at the data.  Real-valued inputs in [0, 1] are treated as
Bernoulli probabilities.  Every routine is deterministic given the
seed; the RNG is consumed in a fixed order (weights row-major, then
chain initialization, then per update: hidden samples before visible
samples, row-major).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteParameter
from .features import SentenceFeatureMatrix
from .rng import Xorshift64Star

WEIGHT_INIT_STD = 0.01
# a 65 536 x 9 float64 chain array is 4.7 MB
MAX_CHAINS = 2**16


@dataclass(frozen=True)
class Rbm:
    weights: np.ndarray  # (n_hidden, n_visible)
    visible_bias: np.ndarray  # (n_visible,)
    hidden_bias: np.ndarray  # (n_hidden,)

    @property
    def n_visible(self) -> int:
        return self.weights.shape[1]

    @property
    def n_hidden(self) -> int:
        return self.weights.shape[0]


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
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 1 <= self.n_chains <= MAX_CHAINS:
            raise ValueError(f"n_chains must be in [1, {MAX_CHAINS}]")
        if self.gibbs_steps_per_update < 1:
            raise ValueError("gibbs_steps_per_update must be >= 1")


@dataclass
class ChainState:
    """Visible states of the persistent Gibbs chains."""

    visible_states: np.ndarray  # (n_chains, n_visible)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function; exp only ever sees a value <= 0, so it never
    overflows."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _init_from_rng(n_visible: int, n_hidden: int, rng: Xorshift64Star) -> Rbm:
    weights = rng.normal_array((n_hidden, n_visible), std=WEIGHT_INIT_STD)
    return Rbm(
        weights=weights,
        visible_bias=np.zeros(n_visible),
        hidden_bias=np.zeros(n_hidden),
    )


def init_rbm(n_visible: int = 9, n_hidden: int = 9, seed: int = 42) -> Rbm:
    """Small zero-mean Gaussian weights, zero biases, seeded."""
    if n_visible < 1 or n_hidden < 1:
        raise ValueError("unit counts must be >= 1")
    return _init_from_rng(n_visible, n_hidden, Xorshift64Star(seed))


def hidden_probabilities(rbm: Rbm, v: np.ndarray) -> np.ndarray:
    """sigmoid(hidden_bias + W v); accepts a vector or a row matrix."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != rbm.n_visible:
        raise DimensionMismatch(
            f"expected {rbm.n_visible} visible values, got {v.shape[-1]}"
        )
    return _sigmoid(v @ rbm.weights.T + rbm.hidden_bias)


def visible_probabilities(rbm: Rbm, h: np.ndarray) -> np.ndarray:
    """sigmoid(visible_bias + W^T h); accepts a vector or a row matrix."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape[-1] != rbm.n_hidden:
        raise DimensionMismatch(
            f"expected {rbm.n_hidden} hidden values, got {h.shape[-1]}"
        )
    return _sigmoid(h @ rbm.weights + rbm.visible_bias)


def gibbs_step(rbm: Rbm, v: np.ndarray, rng: Xorshift64Star) -> np.ndarray:
    """One alternating Bernoulli sample: v -> h -> v'."""
    h = rng.bernoulli_array(hidden_probabilities(rbm, v))
    return rng.bernoulli_array(visible_probabilities(rbm, h))


def _phase_statistics(rbm: Rbm, visible: np.ndarray):
    """Sufficient statistics of one phase, using hidden probabilities.

    The positive phase passes the data batch; the negative phase passes
    the chains' visible states.
    """
    hp = hidden_probabilities(rbm, visible)
    n = visible.shape[0]
    # x.sum(axis=0) / n is what x.mean(axis=0) computes, without its
    # fixed cost per call
    return hp.T @ visible / n, visible.sum(axis=0) / n, hp.sum(axis=0) / n


def _check_finite(rbm: Rbm) -> None:
    if not (
        np.isfinite(rbm.weights).all()
        and np.isfinite(rbm.visible_bias).all()
        and np.isfinite(rbm.hidden_bias).all()
    ):
        raise NonFiniteParameter("non-finite RBM parameter after update; lower the learning_rate")


def pcd_update(
    rbm: Rbm,
    batch: np.ndarray,
    chains: ChainState,
    config: TrainConfig,
    rng: Xorshift64Star,
) -> tuple[Rbm, ChainState]:
    """One persistent-CD parameter update.

    The chains advance by ``gibbs_steps_per_update`` full Gibbs steps
    from their previous states (never from the data), then the update
    moves each parameter by learning_rate times the difference between
    the data statistics and the chain statistics.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != rbm.n_visible:
        raise DimensionMismatch(
            f"batch width {batch.shape[-1]} != n_visible {rbm.n_visible}"
        )
    states = chains.visible_states
    for _ in range(config.gibbs_steps_per_update):
        states = gibbs_step(rbm, states, rng)

    pos_w, pos_vb, pos_hb = _phase_statistics(rbm, batch)
    neg_w, neg_vb, neg_hb = _phase_statistics(rbm, states)
    lr = config.learning_rate
    updated = Rbm(
        weights=rbm.weights + lr * (pos_w - neg_w),
        visible_bias=rbm.visible_bias + lr * (pos_vb - neg_vb),
        hidden_bias=rbm.hidden_bias + lr * (pos_hb - neg_hb),
    )
    _check_finite(updated)
    return updated, ChainState(visible_states=states)


def reconstruction_cross_entropy(rbm: Rbm, rows: np.ndarray) -> float:
    """Mean-field reconstruction cross-entropy, averaged over rows.

    Computed from the visible logits z: -log sigmoid(z) = logaddexp(0, -z)
    and -log(1 - sigmoid(z)) = logaddexp(0, z), which stay finite where
    the sigmoid saturates to exactly 0 or 1.
    """
    rows = np.asarray(rows, dtype=np.float64)
    logits = hidden_probabilities(rbm, rows) @ rbm.weights + rbm.visible_bias
    ce = rows * np.logaddexp(0.0, -logits) + (1.0 - rows) * np.logaddexp(0.0, logits)
    return float(ce.sum(axis=1).mean())


def _train_rows(
    rows: np.ndarray,
    config: TrainConfig,
    n_hidden: int,
    history: list[float] | None = None,
) -> Rbm:
    """Train a fresh RBM on ``rows``.

    When ``history`` is given, the reconstruction cross-entropy after
    each epoch is appended to it.
    """
    rng = Xorshift64Star(config.seed)
    rbm = _init_from_rng(rows.shape[1], n_hidden, rng)
    chains = ChainState(
        visible_states=rng.bernoulli_array(
            np.full((config.n_chains, rows.shape[1]), 0.5)
        )
    )
    # a logit that overflows to +-inf saturates the sigmoid as any past
    # +-40 does; a parameter that overflows fails ``_check_finite``
    with np.errstate(over="ignore"):
        for _ in range(config.epochs):
            for start in range(0, rows.shape[0], config.batch_size):
                batch = rows[start : start + config.batch_size]
                rbm, chains = pcd_update(rbm, batch, chains, config, rng)
            if history is not None:
                history.append(reconstruction_cross_entropy(rbm, rows))
    return rbm


def _require_normalized(matrix: SentenceFeatureMatrix) -> np.ndarray:
    if not matrix.normalized:
        raise ValueError("train expects a normalized feature matrix")
    return np.asarray(matrix.values, dtype=np.float64)


def train_with_history(
    matrix: SentenceFeatureMatrix,
    config: TrainConfig | None = None,
    n_hidden: int = 9,
) -> tuple[Rbm, list[float]]:
    """Train and report per-epoch mean reconstruction cross-entropy."""
    history: list[float] = []
    rows = _require_normalized(matrix)
    rbm = _train_rows(rows, config or TrainConfig(), n_hidden, history)
    return rbm, history


def train(
    matrix: SentenceFeatureMatrix,
    config: TrainConfig | None = None,
    n_hidden: int = 9,
) -> Rbm:
    """Train a fresh RBM on one document's normalized feature matrix, or
    on a machine's output for it."""
    return _train_rows(_require_normalized(matrix), config or TrainConfig(), n_hidden)


def enhance(matrix: SentenceFeatureMatrix, rbm: Rbm) -> SentenceFeatureMatrix:
    """Deterministic pass through the hidden layer, row by row."""
    values = np.asarray(matrix.values, dtype=np.float64)
    with np.errstate(over="ignore"):  # saturating logits, as in _train_rows
        probabilities = hidden_probabilities(rbm, values)
    return SentenceFeatureMatrix(values=probabilities, normalized=matrix.normalized)


def stack_enhance(
    matrix: SentenceFeatureMatrix,
    config: TrainConfig | None = None,
    layers: int = 1,
) -> SentenceFeatureMatrix:
    """Enhance through one trained RBM, or through two stacked ones.

    With two layers, the first layer's output becomes both training
    data and input for a second machine of the same shape, trained with
    the same configuration.  Given that output, one layer here is the
    second machine alone.
    """
    if layers not in (1, 2):
        raise ValueError("layers must be 1 or 2")
    config = config or TrainConfig()
    enhanced = enhance(matrix, train(matrix, config))
    if layers == 2:
        enhanced = enhance(enhanced, train(enhanced, config))
    return enhanced
