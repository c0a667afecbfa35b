"""Bernoulli restricted Boltzmann machine trained per document.

The model is trained with persistent contrastive divergence: the
negative-phase Gibbs chains carry over from update to update instead of
restarting at the data.  Real-valued inputs in [0, 1] are treated as
Bernoulli probabilities.  Every routine is deterministic given the
seed; the RNG is consumed in a fixed order (weights row-major, then
chain initialization, then per update: hidden samples before visible
samples, row-major).

Training runs one fused update per batch (``_Pcd.update``).  The
parameters are one (V+1) x (H+1) matrix, the biases in its last row
and column, and each row that meets it ends in a 1, so a bias rides in
its product.  The chain rows and the batch rows are stacked: each
Gibbs half-step is one product, both phases' hidden probabilities Y
are one product, and the step of W and both biases is one signed
product ``X^T (Y * s)`` of the stacked rows X, with the learning rate
folded into the row scale s.  The sigmoid runs in place on the
contiguous logits, and one product by s writes them into the cells of
a scaled Y whose ones column already holds s, since 1.0 * s == s.
Every intermediate lands in an array made once per machine or batch
size, so an update allocates only the samples that its draws return.
Its products go through ``np.dot(..., out=)``, the same BLAS call as
``@`` with less overhead.  A Gibbs half-step hands its pre-activations
to ``bernoulli_array``, which compares them with its uniforms' logits,
so only the phase statistics compute a sigmoid.  The update computes
the same values and draws the same uniforms in the same order as the
fused reference update in ``tests/oracles.py``, so its weights are
bit-equal to a loop of those.  Against the unfused reference, with
separate products, bias adds and divides, its sums run in another
order, so the parameters differ in their last bits.
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
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be in [0, 2**64)")


def _sigmoid(x: np.ndarray, nonnegative: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Logistic function of ``x``, in place, with ``nonnegative`` (bool)
    and ``denominator`` as scratch arrays of its shape; exp only ever
    sees a value <= 0, so it never overflows.  Returns ``x``."""
    np.greater_equal(x, 0.0, out=nonnegative)
    np.exp(np.copysign(x, -1.0, out=x), out=x)  # exp(-|x|)
    np.add(x, 1.0, out=denominator)
    np.copyto(x, 1.0, where=nonnegative)  # 1/d there, e/d elsewhere
    return np.divide(x, denominator, out=x)


def hidden_probabilities(rbm: Rbm, v: np.ndarray) -> np.ndarray:
    """sigmoid(hidden_bias + W v); accepts a vector or a row matrix."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != rbm.n_visible:
        raise DimensionMismatch(
            f"expected {rbm.n_visible} visible values, got {v.shape[-1]}"
        )
    x = v @ rbm.weights.T + rbm.hidden_bias
    return _sigmoid(x, np.empty(x.shape, dtype=bool), np.empty_like(x))


class _Pcd:
    """One machine under persistent-CD training, with its chains.

    The parameters are one (V+1) x (H+1) matrix: ``W^T`` on top, the
    hidden bias in row V and the visible bias in column H, so that a row
    ending in 1 meets each bias in its product.  The corner ``[V, H]``
    is spare: no product, check or copy reads it.  Each update writes
    into scratch arrays made once per machine or per batch size.
    """

    def __init__(self, rbm: Rbm, states: np.ndarray, config: TrainConfig, max_batch: int):
        n_hidden, n_visible = rbm.weights.shape
        n_chains = states.shape[0]
        self.params = params = np.zeros((n_visible + 1, n_hidden + 1))
        params[:n_visible, :n_hidden] = rbm.weights.T
        params[n_visible, :n_hidden] = rbm.hidden_bias
        params[:n_visible, n_hidden] = rbm.visible_bias
        # [v, 1] times the first gives hidden logits, [h, 1] times the
        # second visible ones
        self._to_hidden, self._to_visible = params[:, :n_hidden], params[:n_visible].T
        self._config = config
        # [chains; batch] and the chains' hidden sample, each row ending in
        # 1, with views of the samples' cells; the chains' logits in each
        # Gibbs half-step
        self._rows = np.ones((n_chains + max_batch, n_visible + 1))
        self._chains = self._rows[:n_chains]
        self._chain_states = self._chains[:, :n_visible]
        self._chain_states[...] = states
        self._chain_hidden = np.ones((n_chains, n_hidden + 1))
        self._hidden_sample = self._chain_hidden[:, :n_hidden]
        self._gibbs_hidden = np.empty((n_chains, n_hidden))
        self._gibbs_visible = np.empty((n_chains, n_visible))
        # the stacked rows' hidden logits, with _sigmoid's scratch; the
        # sigmoid turns them into probabilities in place
        shape = (n_chains + max_batch, n_hidden)
        self._logits = np.empty(shape), np.empty(shape, dtype=bool), np.empty(shape)
        self._step = np.empty_like(params)
        self._views: dict[int, tuple] = {}

    def rbm(self) -> Rbm:
        """Contiguous copies of the weights and the two biases."""
        n_visible, n_hidden = self._to_hidden.shape[0] - 1, self._to_hidden.shape[1]
        return Rbm(
            np.ascontiguousarray(self._to_visible[:n_hidden]),
            self.params[:n_visible, n_hidden].copy(),
            self.params[n_visible, :n_hidden].copy(),
        )

    def _batch_views(self, n: int) -> tuple:
        """The arrays that an update of an ``n``-row batch works in: the
        stacked rows X = [chains; batch] with their ones, X^T, X's batch
        cells, ``_sigmoid``'s arguments for X's hidden logits, the scaled
        Y = [P, 1] and its cells, and the step's row scale s, one column
        per cell: ``-lr/C`` on the C chain rows, ``+lr/n`` on the batch
        rows.  The scaled Y is this batch size's own, its ones column
        holding s, since 1.0 * s == s."""
        views = self._views.get(n)
        if views is None:
            n_chains, n_visible = self._gibbs_visible.shape
            lr, size = self._config.learning_rate, n_chains + n
            scale = np.concatenate((np.full(n_chains, -lr / n_chains), np.full(n, lr / n)))
            scaled = np.repeat(scale[:, None], self._gibbs_hidden.shape[1] + 1, axis=1)
            rows = self._rows[:size]
            views = self._views[n] = (
                rows,
                rows.T,
                rows[n_chains:, :n_visible],
                tuple(a[:size] for a in self._logits),
                scaled,
                scaled[:, :-1],
                scaled[:, :-1].copy(),
            )
        return views

    def update(self, batch: np.ndarray, rng: Xorshift64Star) -> np.ndarray:
        """One persistent-CD parameter update; returns the chains' new
        visible states.

        The chains advance by ``gibbs_steps_per_update`` full Gibbs
        steps from their last states (never from the data).  Then one
        product gives the hidden probabilities of the chains and the
        batch, and one signed product of those rows with them gives the
        step, learning_rate times the data statistics minus the chain
        statistics, of W and both biases at once.  The caller checks
        the parameters with ``check_finite``.
        """
        rows, rows_t, data, logits, scaled, scaled_cells, scale = self._batch_views(batch.shape[0])
        hidden, visible = self._gibbs_hidden, self._gibbs_visible
        for _ in range(self._config.gibbs_steps_per_update):
            np.dot(self._chains, self._to_hidden, out=hidden)
            np.copyto(self._hidden_sample, rng.bernoulli_array(hidden))
            np.dot(self._chain_hidden, self._to_visible, out=visible)
            states = rng.bernoulli_array(visible)
            np.copyto(self._chain_states, states)
        np.copyto(data, batch)
        np.dot(rows, self._to_hidden, out=logits[0])
        np.multiply(_sigmoid(*logits), scale, out=scaled_cells)
        np.dot(rows_t, scaled, out=self._step)
        np.add(self.params, self._step, out=self.params)
        return states

    def check_finite(self) -> None:
        # the spare corner is the last cell
        if not np.isfinite(self.params.reshape(-1)[:-1]).all():
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
    states = rng.bernoulli_array(np.zeros((config.n_chains, n_visible)))  # p = 0.5
    pcd = _Pcd(rbm, states, config, min(config.batch_size, n_rows))
    size = config.batch_size
    batches = [rows[start : start + size] for start in range(0, n_rows, size)]
    # a logit that overflows to +-inf saturates the sigmoid as any past
    # +-40 does; a parameter that overflows raises NonFiniteParameter at
    # the end of its epoch, and the updates after it, which compute on
    # infinities and NaNs, may not warn
    with np.errstate(over="ignore"):
        for _ in range(config.epochs):
            with np.errstate(invalid="ignore"):
                for batch in batches:
                    pcd.update(batch, rng)
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
