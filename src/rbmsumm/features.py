"""The nine per-sentence features and the sentence-feature matrix.

Feature order is fixed and is part of the on-disk dump format:
thematic, position, length, pos_in_para, proper_nouns, numerals,
named_entities, tf_isf, centroid_sim.
"""

from __future__ import annotations

import math
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
        if not 0.0 < self.th_fraction < 0.5:
            raise ValueError("th_fraction must be in (0, 0.5)")
        if self.short_sentence_min_words < 1:
            raise ValueError("short_sentence_min_words must be >= 1")


@dataclass(frozen=True)
class FeatureVector:
    thematic: float
    position: float
    length: float
    pos_in_para: float
    proper_nouns: float
    numerals: float
    named_entities: float
    tf_isf: float
    centroid_sim: float

    def to_row(self) -> list[float]:
        return [getattr(self, name) for name in FEATURE_NAMES]


@dataclass(frozen=True)
class SentenceFeatureMatrix:
    values: np.ndarray  # (N, 9) float64
    normalized: bool = False

    @property
    def n_sentences(self) -> int:
        return self.values.shape[0]


def thematic_words(doc: ProcessedDocument, config: FeatureConfig) -> frozenset[str]:
    """The most frequent non-stopword stems; count ties favour the
    lexicographically smaller stem."""
    ranked = sorted(doc.vocabulary.items(), key=lambda kv: (-kv[1], kv[0]))
    return frozenset(stem for stem, _ in ranked[: config.thematic_count])


def f_thematic(sentence: Sentence, thematic: frozenset[str]) -> float:
    """Share of tokens carrying a thematic stem.

    Stop words count toward the denominator but never the numerator.
    """
    hits = sum(
        1 for t in sentence.tokens if not t.is_stopword and t.stem in thematic
    )
    return hits / len(sentence.tokens)


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
    return sum(1 for t in sentence.tokens if t.tag is PosTag.PROPER_NOUN)


def f_numerals(sentence: Sentence) -> float:
    return sum(1 for t in sentence.tokens if t.is_numeral) / len(sentence.tokens)


def f_named_entities(sentence: Sentence) -> int:
    """Number of maximal runs of proper-noun tokens."""
    proper = PosTag.PROPER_NOUN  # an Enum member lookup costs more than a local
    runs, previous = 0, False
    for token in sentence.tokens:
        name = token.tag is proper
        runs += name and not previous
        previous = name
    return runs


def _content_counts(sentence: Sentence) -> Counter:
    return Counter(sentence.content_stems())


def f_tf_isf(sentence: Sentence, doc: ProcessedDocument) -> float:
    """log(1 + sum of in-sentence frequency x count elsewhere) per token.

    Each content token contributes TF(stem) * OCC(stem), where TF counts
    the stem in this sentence and OCC counts it in all other sentences;
    the +1 keeps the log finite when nothing overlaps.
    """
    counts = _content_counts(sentence)
    total = 0.0
    for token in sentence.tokens:
        if token.is_stopword:
            continue
        tf = counts[token.stem]
        occ = doc.vocabulary.get(token.stem, 0) - tf
        total += tf * occ
    return math.log1p(total) / len(sentence.tokens)


def centroid_index(scores: list[float]) -> int:
    """Index of the highest tf-isf score; ties go to the earliest.

    ``scores`` are the sentences' ``f_tf_isf`` values, in document order.
    """
    best = 0
    for i, score in enumerate(scores):
        if score > scores[best]:
            best = i
    return best


def f_centroid_sim(sentence: Sentence, centroid: Sentence) -> float:
    """Cosine similarity of non-stopword stem count vectors."""
    a = _content_counts(sentence)
    b = _content_counts(centroid)
    if not a or not b:
        return 0.0
    dot = sum(count * b[stem] for stem, count in a.items())
    norm_a = math.sqrt(sum(c * c for c in a.values()))
    norm_b = math.sqrt(sum(c * c for c in b.values()))
    # rounding can push a self-comparison a hair above 1
    return min(1.0, dot / (norm_a * norm_b))


def feature_vectors(
    doc: ProcessedDocument, config: FeatureConfig | None = None
) -> list[FeatureVector]:
    """Compute all nine features for every sentence."""
    config = config or FeatureConfig()
    thematic = thematic_words(doc, config)
    tf_isf = [f_tf_isf(s, doc) for s in doc.sentences]
    centroid = doc.sentences[centroid_index(tf_isf)]
    n = doc.n_sentences
    return [
        FeatureVector(
            thematic=f_thematic(s, thematic),
            position=f_position(s.doc_index, n, config),
            length=f_length(s, config),
            pos_in_para=f_pos_in_para(s),
            proper_nouns=float(f_proper_nouns(s)),
            numerals=f_numerals(s),
            named_entities=float(f_named_entities(s)),
            tf_isf=score,
            centroid_sim=f_centroid_sim(s, centroid),
        )
        for s, score in zip(doc.sentences, tf_isf)
    ]


def build_feature_matrix(
    doc: ProcessedDocument, config: FeatureConfig | None = None
) -> SentenceFeatureMatrix:
    rows = [fv.to_row() for fv in feature_vectors(doc, config)]
    return SentenceFeatureMatrix(
        values=np.array(rows, dtype=np.float64), normalized=False
    )


def normalize_columns(matrix: SentenceFeatureMatrix) -> SentenceFeatureMatrix:
    """Min-max scale each column to [0, 1]; constant columns become 0.5."""
    if matrix.normalized:
        raise ValueError("matrix is already normalized")
    values = matrix.values
    lo = values.min(axis=0)
    hi = values.max(axis=0)
    span = hi - lo
    out = np.empty_like(values)
    for j in range(values.shape[1]):
        if span[j] == 0.0:
            out[:, j] = 0.5
        else:
            out[:, j] = (values[:, j] - lo[j]) / span[j]
    return SentenceFeatureMatrix(values=out, normalized=True)
