"""The nine per-sentence features and the sentence-feature matrix.

Feature order is fixed and is part of the on-disk dump format:
thematic, position, length, pos_in_para, proper_nouns, numerals,
named_entities, tf_isf, centroid_sim.

The matrix is built for the whole document at once, and every value
has the bits of a sentence-by-sentence computation.  Each feature is a
ratio, root or function of integer counts, and the counts are integer
sums over flat arrays: int64 where no tf-isf total can reach 2**63,
as in any document of fewer than about 1.66 million content tokens,
and Python ints past that.  Each count converts to a double exactly,
and the divisions, square roots and products that follow are
correctly rounded IEEE operations in numpy as in Python.  The two
library functions stay scalar: ``math.cos`` in ``f_position`` and
``math.log1p`` in ``f_tf_isf``, called once per sentence.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .document import ProcessedDocument
from .errors import DegenerateDocument

FEATURE_NAMES = (
    "thematic",
    "position",
    "length",
    "pos_in_para",
    "proper_nouns",
    "numerals",
    "named_entities",
    "tf_isf",
    "centroid_sim",
)

N_FEATURES = len(FEATURE_NAMES)
_INT64_LIMIT = 2**63  # tf-isf totals that could reach it are summed in Python ints


@dataclass(frozen=True)
class FeatureConfig:
    thematic_count: int = 10
    th_fraction: float = 0.2
    short_sentence_min_words: int = 3

    def __post_init__(self):
        if self.thematic_count < 1:
            raise ValueError("thematic_count must be >= 1")
        # below the smallest normal float, 1 / (2 * th_fraction * N) can
        # overflow and f_position would take the cosine of infinity
        if not sys.float_info.min <= self.th_fraction < 0.5:
            raise ValueError(f"th_fraction must be in [{sys.float_info.min}, 0.5)")
        if self.short_sentence_min_words < 1:
            raise ValueError("short_sentence_min_words must be >= 1")


@dataclass(frozen=True)
class SentenceFeatureMatrix:
    """One row per sentence: the nine features, or a machine's
    hidden-layer probabilities for them."""

    values: np.ndarray  # (N, 9) float64
    normalized: bool = False

    @property
    def n_sentences(self) -> int:
        return self.values.shape[0]


def thematic_words(counts: dict[str, int], config: FeatureConfig) -> frozenset[str]:
    """The most frequent stems in ``counts`` (stem -> document count);
    count ties favour the lexicographically smaller stem.

    Only stems counted at least as often as the ``thematic_count``-th
    largest count can be chosen, so only those are ranked.
    """
    if not counts:
        return frozenset()
    k = config.thematic_count
    floor = sorted(counts.values(), reverse=True)[:k][-1]
    top = sorted((-c, stem) for stem, c in counts.items() if c >= floor)
    return frozenset(stem for _, stem in top[:k])


def f_position(doc_indices: Iterable[int], n_sentences: int, config: FeatureConfig) -> list[float]:
    """1 at the document's first and last sentence, a cosine ramp between.

    With 1-based position p, low = th * N and high = 2 * th * N, middle
    sentences get cos((p - low) * (1/high - low)), evaluated in radians.
    """
    low = config.th_fraction * n_sentences
    high = 2.0 * config.th_fraction * n_sentences
    slope = (1.0 / high) - low
    last = n_sentences - 1
    return [
        1.0 if i == 0 or i == last else math.cos((i + 1 - low) * slope) for i in doc_indices
    ]


def f_tf_isf(total: int, n_tokens: int) -> float:
    """log(1 + total) per token, where ``total`` sums TF(stem) * OCC(stem)
    over the sentence's content tokens.

    TF counts the stem in this sentence and OCC counts it in all other
    sentences, so a distinct stem adds TF * TF * OCC; the +1 keeps the
    log finite when nothing overlaps.
    """
    return math.log1p(total) / n_tokens


def centroid_index(scores: list[float]) -> int:
    """Index of the highest tf-isf score; ties go to the earliest.

    ``scores`` are the sentences' ``f_tf_isf`` values, in document order;
    they are finite, and ``argmax`` takes the first maximum.
    """
    return int(np.argmax(scores))


def _flags(values: list[bool]) -> np.ndarray:
    return np.frombuffer(bytes(values), dtype=bool)


def _run_bounds(ordered: np.ndarray) -> np.ndarray:
    """The index where each run of equal values starts, then ``ordered.size``."""
    edges = np.ones(ordered.size + 1, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=edges[1:-1])
    return np.flatnonzero(edges)


def _stem_runs(
    sentence: np.ndarray, stem: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each distinct (sentence, stem) pair, in sentence order, and its
    count: one sort of ``sentence * width + stem`` puts equal pairs in runs."""
    key = sentence * width + stem
    key.sort(kind="stable")
    bounds = _run_bounds(key)
    group_sentence, group_stem = np.divmod(key[bounds[:-1]], width)
    return group_sentence, group_stem, bounds[1:] - bounds[:-1]


def build_feature_matrix(
    doc: ProcessedDocument, config: FeatureConfig | None = None
) -> SentenceFeatureMatrix:
    """All nine features of every sentence, one row each in
    ``FEATURE_NAMES`` order.

    One pass over the tokens gives flat arrays: each token's sentence,
    its stop-word, name and numeral flags, and each content token's stem
    id.  Every count, tf-isf total, dot product and squared norm is then
    an integer sum over the flags, the stem ids or ``_stem_runs``.
    """
    config = config or FeatureConfig()
    sentences = doc.sentences
    if not sentences:
        raise DegenerateDocument("document has no sentences")
    n = len(sentences)
    n_tokens = np.array([len(s.tokens) for s in sentences], dtype=np.int64)
    tokens = list(chain.from_iterable(s.tokens for s in sentences))
    token_sentence = np.repeat(np.arange(n), n_tokens)
    content = ~_flags([t.is_stopword for t in tokens])
    name = _flags([t.is_name for t in tokens])
    numeral = _flags([t.is_numeral for t in tokens])
    index: dict[str, int] = {}
    stem = np.array(
        [index.setdefault(t.stem, len(index)) for t in tokens if not t.is_stopword],
        dtype=np.int64,
    )
    width = max(len(index), 1)
    doc_counts = np.bincount(stem, minlength=width)
    thematic = np.zeros(width, dtype=bool)
    top = thematic_words(dict(zip(index, doc_counts.tolist())), config)
    thematic[[index[s] for s in top]] = True
    # the sums need none of these, and held to the end they would add to
    # the run's peak memory
    del tokens, index
    group_sentence, group_stem, tf = _stem_runs(token_sentence[content], stem, width)
    del stem
    starts = _run_bounds(group_sentence)[:-1]

    def per_sentence(values: np.ndarray) -> np.ndarray:
        out = np.zeros(n, dtype=values.dtype)
        out[group_sentence[starts]] = np.add.reduceat(values, starts)
        return out

    # with m a sentence's content tokens and c a stem's document count, a
    # total is at most m * m * (max c + m) <= 2 * T**3 for T content tokens
    # in the document, under 2**63 below about 1.66 million; else Python ints
    m = int(per_sentence(tf).max(initial=0))
    exact = np.int64 if m * m * (int(doc_counts.max()) + m) < _INT64_LIMIT else object
    counts = tf.astype(exact)
    elsewhere = doc_counts.astype(exact)[group_stem] - counts
    totals = per_sentence(counts * counts * elsewhere)
    del counts, elsewhere
    tf_isf = [f_tf_isf(total, size) for total, size in zip(totals.tolist(), n_tokens.tolist())]
    centroid = centroid_index(tf_isf)

    # dot products and squared norms are at most m * m, so doubles hold
    # them exactly below 2**26 content tokens in one sentence
    centroid_tf = np.zeros(width, dtype=np.int64)
    mine = group_sentence == centroid
    centroid_tf[group_stem[mine]] = tf[mine]
    dots = per_sentence(tf * centroid_tf[group_stem])
    squares = per_sentence(tf * tf)
    similarity = np.zeros(n)
    if squares[centroid]:
        norms = np.sqrt(squares) * math.sqrt(squares[centroid])
        # rounding can push a self-comparison a hair above 1
        np.minimum(np.divide(dots, norms, out=similarity, where=squares > 0), 1.0, out=similarity)

    # a name starts a run unless the token before it in its sentence is one
    run_start = name.copy()
    run_start[1:] &= ~(name[:-1] & (token_sentence[1:] == token_sentence[:-1]))

    values = np.empty((n, N_FEATURES))
    values[:, 0] = per_sentence(tf * thematic[group_stem]) / n_tokens
    values[:, 1] = f_position([s.doc_index for s in sentences], n, config)
    values[:, 2] = np.where(n_tokens < config.short_sentence_min_words, 0, n_tokens)
    values[:, 3] = [1.0 if s.is_para_first or s.is_para_last else 0.0 for s in sentences]
    values[:, 4] = np.bincount(token_sentence[name], minlength=n)
    values[:, 5] = np.bincount(token_sentence[numeral], minlength=n) / n_tokens
    values[:, 6] = np.bincount(token_sentence[run_start], minlength=n)
    values[:, 7] = tf_isf
    values[:, 8] = similarity
    return SentenceFeatureMatrix(values=values)


def normalize_columns(matrix: SentenceFeatureMatrix) -> SentenceFeatureMatrix:
    """Min-max scale each column to [0, 1]; constant columns become 0.5."""
    if matrix.normalized:
        raise ValueError("matrix is already normalized")
    values = matrix.values
    lo = values.min(axis=0)
    span = values.max(axis=0) - lo
    out = np.divide(values - lo, span, out=np.full_like(values, 0.5), where=span != 0)
    return SentenceFeatureMatrix(values=out, normalized=True)
