"""The nine per-sentence features and the sentence-feature matrix.

Feature order is fixed and is part of the on-disk dump format:
thematic, position, length, pos_in_para, proper_nouns, numerals,
named_entities, tf_isf, centroid_sim.
"""

from __future__ import annotations

import heapq
import math
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .document import PosTag, ProcessedDocument, Sentence

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


def thematic_words(doc: ProcessedDocument, config: FeatureConfig) -> frozenset[str]:
    """The most frequent non-stopword stems; count ties favour the
    lexicographically smaller stem."""
    top = heapq.nsmallest(
        config.thematic_count, doc.vocabulary.items(), key=lambda kv: (-kv[1], kv[0])
    )
    return frozenset(stem for stem, _ in top)


def f_thematic(counts: Counter, n_tokens: int, thematic: frozenset[str]) -> float:
    """Share of tokens carrying a thematic stem; ``counts`` are the
    sentence's content-stem counts, ``n_tokens`` its token count.

    Stop words count toward the denominator but never the numerator.
    """
    return sum(c for stem, c in counts.items() if stem in thematic) / n_tokens


def f_position(doc_index: int, n_sentences: int, config: FeatureConfig) -> float:
    """1 at the document's first and last sentence, a cosine ramp between.

    With 1-based position p, low = th * N and high = 2 * th * N, middle
    sentences get cos((p - low) * (1/high - low)), evaluated in radians.
    """
    if doc_index == 0 or doc_index == n_sentences - 1:
        return 1.0
    pos = doc_index + 1
    low = config.th_fraction * n_sentences
    high = 2.0 * config.th_fraction * n_sentences
    return math.cos((pos - low) * ((1.0 / high) - low))


def f_length(sentence: Sentence, config: FeatureConfig) -> float:
    """Token count, zeroed for sentences too short to carry information."""
    count = len(sentence.tokens)
    return 0.0 if count < config.short_sentence_min_words else float(count)


def f_pos_in_para(sentence: Sentence) -> float:
    return 1.0 if sentence.is_para_first or sentence.is_para_last else 0.0


def f_proper_nouns(sentence: Sentence) -> int:
    proper = PosTag.PROPER_NOUN  # an Enum member lookup costs more than a local
    return sum(1 for t in sentence.tokens if t.tag is proper)


def f_numerals(sentence: Sentence) -> float:
    return sum(1 for t in sentence.tokens if t.is_numeral) / len(sentence.tokens)


def f_named_entities(sentence: Sentence) -> int:
    """Number of maximal runs of proper-noun tokens."""
    proper = PosTag.PROPER_NOUN
    runs, previous = 0, False
    for token in sentence.tokens:
        name = token.tag is proper
        runs += name and not previous
        previous = name
    return runs


def f_tf_isf(counts: Counter, n_tokens: int, vocabulary: dict[str, int]) -> float:
    """log(1 + sum of in-sentence frequency x count elsewhere) per token.

    Each content token contributes TF(stem) * OCC(stem), where TF counts
    the stem in this sentence and OCC counts it in all other sentences,
    so a distinct stem contributes TF * TF * OCC; the +1 keeps the log
    finite when nothing overlaps.
    """
    total = sum(tf * tf * (vocabulary.get(stem, 0) - tf) for stem, tf in counts.items())
    return math.log1p(total) / n_tokens


def centroid_index(scores: list[float]) -> int:
    """Index of the highest tf-isf score; ties go to the earliest.

    ``scores`` are the sentences' ``f_tf_isf`` values, in document order.
    """
    best = 0
    for i, score in enumerate(scores):
        if score > scores[best]:
            best = i
    return best


def f_centroid_sim(counts: Counter, centroid: Counter, centroid_norm: float) -> float:
    """Cosine similarity of non-stopword stem count vectors;
    ``centroid_norm`` is the Euclidean norm of ``centroid``."""
    if not counts or not centroid:
        return 0.0
    # .get skips the Python-level Counter.__missing__ of an absent stem
    dot = sum(c * centroid.get(stem, 0) for stem, c in counts.items())
    norm = math.sqrt(sum(c * c for c in counts.values()))
    # rounding can push a self-comparison a hair above 1
    return min(1.0, dot / (norm * centroid_norm))


def build_feature_matrix(
    doc: ProcessedDocument, config: FeatureConfig | None = None
) -> SentenceFeatureMatrix:
    """All nine features of every sentence, one row each in
    ``FEATURE_NAMES`` order.

    Each sentence's content-stem counts are built once, and the
    centroid's counts and norm once per document.
    """
    config = config or FeatureConfig()
    thematic = thematic_words(doc, config)
    n = doc.n_sentences
    counts = [Counter(s.content_stems()) for s in doc.sentences]
    tf_isf = [f_tf_isf(c, len(s), doc.vocabulary) for s, c in zip(doc.sentences, counts)]
    centroid = counts[centroid_index(tf_isf)]
    centroid_norm = math.sqrt(sum(c * c for c in centroid.values()))
    values = np.empty((n, N_FEATURES))
    for i, (s, c) in enumerate(zip(doc.sentences, counts)):
        values[i] = (
            f_thematic(c, len(s), thematic),
            f_position(s.doc_index, n, config),
            f_length(s, config),
            f_pos_in_para(s),
            f_proper_nouns(s),
            f_numerals(s),
            f_named_entities(s),
            tf_isf[i],
            f_centroid_sim(c, centroid, centroid_norm),
        )
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
