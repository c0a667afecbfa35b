"""Sentence scoring, ranking, selection and summary assembly.

Selection seeds with the top-ranked sentence, then repeatedly pulls the
candidate with the highest Jaccard stem overlap to the anchor sentence,
strictly from the top half of the ranking.  The anchor is the most
recently selected sentence by default ("latest") or always the seed
("first").  If the limit outruns the top half, remaining picks follow
rank order.  All ties break toward the better-ranked candidate.

Each top-half sentence's content stems are turned into a set once per
``select`` call, and an inverted index maps every stem to the candidates
that contain it.  A pick counts overlaps only for the candidates that
share a stem with the anchor; every other candidate scores 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .document import ProcessedDocument, RawDocument, Sentence
from .features import (
    FeatureConfig,
    SentenceFeatureMatrix,
    build_feature_matrix,
    normalize_columns,
)
from .preprocess import preprocess
from .rbm import TrainConfig, stack_enhance


@dataclass(frozen=True)
class RankedSentence:
    doc_index: int
    score: float


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
            ratio = self.limit_ratio if self.limit_ratio is not None else 0.33
            limit = math.ceil(ratio * n_sentences)
        return max(1, min(limit, n_sentences))


@dataclass(frozen=True)
class Summary:
    selected: tuple[int, ...]  # doc indices, ascending
    text: str
    scores: tuple[RankedSentence, ...]  # full ranking, best first


def score_sentences(enhanced: SentenceFeatureMatrix) -> list[RankedSentence]:
    """Sum each enhanced row into a sentence score."""
    return [
        RankedSentence(doc_index=i, score=float(row.sum()))
        for i, row in enumerate(enhanced.values)
    ]


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
    anchor: str = "latest",
) -> list[int]:
    """Pick sentence indices, in selection order.

    Candidates are the top half of ``ranked`` after the seed.  For each
    pick, the inverted index yields ``k``, the number of stems a live
    candidate shares with the anchor, and its Jaccard score is
    ``k / (len(a) + len(b) - k)``: the same ``int / int`` division as
    ``jaccard``, so scores are bit-equal to it.  The best score wins and
    ties go to the better rank.  When no live candidate shares a stem
    with the anchor, all score 0 and the best-ranked live one wins.
    """
    if anchor not in ("latest", "first"):
        raise ValueError("anchor must be 'latest' or 'first'")
    config = config or SummaryConfig()
    n = len(ranked)
    limit = config.effective_limit(n)
    half = math.ceil(n / 2)
    top = [r.doc_index for r in ranked[:half]]  # rank position -> doc index
    stems = [frozenset(doc.sentences[i].content_stems()) for i in top]
    postings: dict[str, set[int]] = {}  # stem -> live rank positions
    for pos in range(1, half):
        for stem in stems[pos]:
            postings.setdefault(stem, set()).add(pos)
    live = [True] * half
    first_live = 1

    selected = [0]  # rank positions
    while len(selected) < limit and first_live < half:
        a = stems[selected[-1] if anchor == "latest" else 0]
        overlaps = Counter(chain.from_iterable(postings.get(s, ()) for s in a))
        best, best_sim = first_live, 0.0
        for pos, k in overlaps.items():
            sim = k / (len(a) + len(stems[pos]) - k)
            if sim > best_sim or (sim == best_sim and pos < best):
                best, best_sim = pos, sim
        selected.append(best)
        live[best] = False
        for stem in stems[best]:
            postings[stem].discard(best)
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
    layers: int = 1,
    anchor: str = "latest",
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


def summarize(
    raw: RawDocument,
    feature_config: FeatureConfig | None = None,
    train_config: TrainConfig | None = None,
    summary_config: SummaryConfig | None = None,
    layers: int = 1,
    anchor: str = "latest",
    lexicons=None,
) -> Summary:
    """Full pipeline: preprocess, featurize, enhance, select, assemble."""
    return run_pipeline(
        raw, feature_config, train_config, summary_config, layers, anchor, lexicons
    ).summary
