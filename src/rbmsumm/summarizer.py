"""Sentence scoring, ranking, selection and summary assembly.

Selection seeds with the top-ranked sentence, then repeatedly pulls the
candidate with the highest Jaccard stem overlap to the anchor sentence,
strictly from the top half of the ranking.  The anchor is the most
recently selected sentence by default ("latest") or always the seed
("first").  If the limit outruns the top half, remaining picks follow
rank order.  All ties break toward the better-ranked candidate.

Each top-half sentence's content stems are turned into a set once per
``select`` call.  With the "latest" anchor, a ``uint8`` incidence matrix
has one column per candidate and one row per stem that two or more
candidates hold, with a 1 where the candidate holds the stem; a stem
that one candidate holds adds to no overlap, so it gets no row.  A pick
sums the anchor's rows into each candidate's overlap ``k`` and scores
every candidate at once as ``k / (len(a) + len(b) - k)``.  ``k`` and the
denominator are small integers, exact in float64 in any order of
summing, so each score is one correctly rounded division of the same
two integers as ``jaccard``'s ``int / int``, and bit-equal to it.  A
picked candidate's size becomes infinite, so it scores ``k / inf = 0``
from then on, and ``argmax`` takes the first best score, the better
rank.  With the "first" anchor every score is fixed, so each is counted
once and one sort gives the order of the picks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .document import ProcessedDocument, RawDocument, Sentence
from .features import (
    FeatureConfig,
    SentenceFeatureMatrix,
    build_feature_matrix,
    normalize_columns,
)
from .preprocess import preprocess
from .rbm import Layers, TrainConfig, stack_enhance


@dataclass(frozen=True)
class RankedSentence:
    doc_index: int
    score: float


# the fraction of N that a summary keeps when no limit is set
DEFAULT_LIMIT_RATIO = 0.33
# the sentence that each Jaccard pick is compared against
Anchor = Literal["first", "latest"]


@dataclass(frozen=True)
class SummaryConfig:
    """Summary length: an absolute sentence count or a fraction of N."""

    limit_sentences: int | None = None
    limit_ratio: float | None = None

    def __post_init__(self):
        if self.limit_sentences is not None and self.limit_ratio is not None:
            raise ValueError("set either limit_sentences or limit_ratio, not both")
        if self.limit_sentences is not None and self.limit_sentences < 1:
            raise ValueError("limit_sentences must be >= 1")
        if self.limit_ratio is not None and not 0.0 < self.limit_ratio <= 1.0:
            raise ValueError("limit_ratio must be in (0, 1]")

    def effective_limit(self, n_sentences: int) -> int:
        if self.limit_sentences is not None:
            limit = self.limit_sentences
        else:
            ratio = self.limit_ratio if self.limit_ratio is not None else DEFAULT_LIMIT_RATIO
            limit = math.ceil(ratio * n_sentences)
        return max(1, min(limit, n_sentences))


@dataclass(frozen=True)
class Summary:
    selected: tuple[int, ...]  # doc indices, ascending
    text: str
    scores: tuple[RankedSentence, ...]  # full ranking, best first


def score_sentences(enhanced: SentenceFeatureMatrix) -> list[RankedSentence]:
    """Sum each enhanced row into a sentence score.

    One reduction over a C-ordered copy gives each row's sum the same
    bits as ``row.sum()``; over Fortran order it may not.
    """
    sums = np.ascontiguousarray(enhanced.values).sum(axis=1).tolist()
    return [RankedSentence(doc_index=i, score=score) for i, score in enumerate(sums)]


def rank(scores: list[RankedSentence]) -> list[RankedSentence]:
    """Descending score; equal scores keep document order."""
    return sorted(scores, key=lambda r: (-r.score, r.doc_index))


def jaccard(a: Sentence, b: Sentence) -> float:
    """Set overlap of non-stopword stems; empty-vs-empty counts as 0."""
    sa = set(a.content_stems())
    sb = set(b.content_stems())
    union = sa | sb
    if not union:
        return 0.0
    return len(sa & sb) / len(union)


def select(
    ranked: list[RankedSentence],
    doc: ProcessedDocument,
    config: SummaryConfig | None = None,
    anchor: Anchor = "latest",
) -> list[int]:
    """Pick sentence indices, in selection order.

    Candidates are the top half of ``ranked`` after the seed.  A live
    candidate that shares ``k`` stems with the anchor has the Jaccard
    score ``k / (len(a) + len(b) - k)``: the same ``int / int`` division
    as ``jaccard``, so scores are bit-equal to it.  The best score wins
    and ties go to the better rank.  When no live candidate shares a
    stem with the anchor, all score 0 and the best-ranked live one wins.
    """
    if anchor not in get_args(Anchor):
        raise ValueError("anchor must be 'latest' or 'first'")
    config = config or SummaryConfig()
    n = len(ranked)
    limit = config.effective_limit(n)
    half = math.ceil(n / 2)
    top = [r.doc_index for r in ranked[:half]]  # rank position -> doc index
    stems = [frozenset(doc.sentences[i].content_stems()) for i in top]
    if anchor == "first":
        # the anchor never changes, so neither does any score: a stable
        # sort by descending score keeps ties, and the candidates without
        # overlap after them, in rank order
        a = stems[0]

        def key(pos: int) -> float:
            k = len(a & stems[pos])
            return -(k / (len(a) + len(stems[pos]) - k)) if k else 0.0

        selected = [0] + sorted(range(1, half), key=key)[: limit - 1]
    else:
        # the incidence matrix: a stem gets a row once a second candidate
        # holds it.  Rows follow the sets' iteration order, which no score
        # depends on, since sums of 0s and 1s are exact in any order
        holder: dict[str, int] = {}  # stem -> the first position holding it
        row: dict[str, int] = {}  # shared stem -> its row
        rows_of: list[list[int]] = []  # rank position -> its shared rows
        for pos, s in enumerate(stems):
            rows_of.append([])
            for stem in s:
                first = holder.setdefault(stem, pos)
                if first != pos:
                    if stem not in row:
                        row[stem] = len(row)
                        rows_of[first].append(row[stem])
                    rows_of[pos].append(row[stem])
        held = np.zeros((len(row), half), np.uint8)
        held.put([r * half + pos for pos, rows in enumerate(rows_of) for r in rows], 1)
        sizes = np.array([len(s) for s in stems], np.float64)
        lengths = sizes.tolist()
        # a picked candidate's size is infinite, so it scores k / inf = 0
        sizes[0] = math.inf
        overlap, den = np.empty(half), np.empty(half)
        live = [True] * half
        first_live = 1
        selected = [0]  # rank positions
        while len(selected) < limit and first_live < half:
            pos = selected[-1]
            best = first_live
            rows = rows_of[pos]
            if rows:  # so len(a) >= 1, and every denominator too
                np.add.reduce(held.take(rows, 0), 0, np.float64, overlap)
                np.subtract(sizes, overlap, den)
                den += lengths[pos]
                np.divide(overlap, den, overlap)
                candidate = overlap.argmax()
                if overlap[candidate]:
                    best = int(candidate)
            selected.append(best)
            sizes[best] = math.inf
            live[best] = False
            while first_live < half and not live[first_live]:
                first_live += 1
    picks = [top[pos] for pos in selected]
    for r in ranked[half:]:
        if len(picks) >= limit:
            break
        picks.append(r.doc_index)
    return picks


def assemble(
    selected: list[int], doc: ProcessedDocument, ranked: list[RankedSentence]
) -> Summary:
    """Re-arrange picks into document order and join their text."""
    ordered = sorted(selected)
    text = " ".join(doc.sentences[i].original_text for i in ordered)
    return Summary(selected=tuple(ordered), text=text, scores=tuple(ranked))


@dataclass(frozen=True)
class PipelineResult:
    """Every intermediate stage of one summarization run."""

    doc: ProcessedDocument
    raw_matrix: SentenceFeatureMatrix
    normalized: SentenceFeatureMatrix
    enhanced: SentenceFeatureMatrix
    ranked: tuple[RankedSentence, ...]
    summary: Summary


def featurize(
    raw: RawDocument, feature_config: FeatureConfig | None = None, lexicons=None
) -> tuple[ProcessedDocument, SentenceFeatureMatrix, SentenceFeatureMatrix]:
    """Preprocess, then the raw and the column-normalized feature matrix."""
    doc = preprocess(raw, lexicons)
    raw_matrix = build_feature_matrix(doc, feature_config)
    return doc, raw_matrix, normalize_columns(raw_matrix)


def run_pipeline(
    raw: RawDocument,
    feature_config: FeatureConfig | None = None,
    train_config: TrainConfig | None = None,
    summary_config: SummaryConfig | None = None,
    layers: Layers = 1,
    anchor: Anchor = "latest",
    lexicons=None,
    *,
    base: PipelineResult | None = None,
) -> PipelineResult:
    """Summarize ``raw``, keeping every stage.  ``base``, this document's
    1-layer result from the same configs and lexicons, lets a 2-layer run
    train only its second machine, for the same bits as from scratch."""
    if base is None:
        doc, raw_matrix, normalized = featurize(raw, feature_config, lexicons)
        enhanced = stack_enhance(normalized, train_config, layers)
    elif layers != 2:
        raise ValueError("base is only for a 2-layer run")
    else:
        doc, raw_matrix, normalized = base.doc, base.raw_matrix, base.normalized
        enhanced = stack_enhance(base.enhanced, train_config, 1)
    ranked = rank(score_sentences(enhanced))
    picks = select(ranked, doc, summary_config, anchor)
    return PipelineResult(
        doc=doc,
        raw_matrix=raw_matrix,
        normalized=normalized,
        enhanced=enhanced,
        ranked=tuple(ranked),
        summary=assemble(picks, doc, ranked),
    )


def summarize(raw: RawDocument, **settings) -> Summary:
    """Full pipeline: preprocess, featurize, enhance, select, assemble.
    ``settings`` are ``run_pipeline``'s keyword arguments."""
    return run_pipeline(raw, **settings).summary
