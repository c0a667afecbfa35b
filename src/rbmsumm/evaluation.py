"""Precision/recall/F-measure against reference extracts.

References either name sentence indices directly or carry literal
sentence strings, which are matched to document sentences by equality
of their non-stopword stem multisets.  ``evaluate_corpus`` runs the
pipeline once per document; ``compare_modes`` runs it once per document
and layer count, stacking the 2-layer run on the 1-layer one, and keeps
both corpus evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import get_args

from .assets import Lexicons, default_lexicons
from .document import ProcessedDocument, RawDocument
from .errors import EmptyReference, EmptySystemSummary, MissingReference
from . import preprocess  # the module: perfbench counts its porter_stem calls
from .rbm import Layers
from .summarizer import run_pipeline


@dataclass(frozen=True)
class ReferenceSummary:
    """Reference extract: sentence indices, or the sentences themselves."""

    source_id: str
    selected: frozenset[int] | None = None
    sentences: tuple[str, ...] | None = None

    def __post_init__(self):
        if (self.selected is None) == (self.sentences is None):
            raise ValueError("provide exactly one of selected or sentences")
        if self.selected is not None and not self.selected:
            raise ValueError("reference index set is empty")
        if self.sentences is not None and not self.sentences:
            raise ValueError("reference sentence list is empty")


@dataclass(frozen=True)
class EvalScores:
    precision: float
    recall: float
    f_measure: float


def precision(system: frozenset[int], reference: frozenset[int]) -> float:
    if not system:
        raise EmptySystemSummary("system summary has no sentences")
    return len(system & reference) / len(system)


def recall(system: frozenset[int], reference: frozenset[int]) -> float:
    if not reference:
        raise EmptyReference("reference has no sentences")
    return len(system & reference) / len(reference)


def f_measure(p: float, r: float) -> float:
    """Harmonic mean, defined as 0 when both inputs are 0."""
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


def score_sets(system: frozenset[int], reference: frozenset[int]) -> EvalScores:
    p = precision(system, reference)
    r = recall(system, reference)
    return EvalScores(precision=p, recall=r, f_measure=f_measure(p, r))


def resolve_reference(
    reference: ReferenceSummary,
    doc: ProcessedDocument,
    lexicons: Lexicons | None = None,
) -> frozenset[int]:
    """Turn a reference into a set of sentence indices for ``doc``."""
    n = doc.n_sentences
    if reference.selected is not None:
        bad = [i for i in reference.selected if not 0 <= i < n]
        if bad:
            raise ValueError(
                f"reference {reference.source_id!r} has out-of-range indices {sorted(bad)}"
            )
        return reference.selected
    # a stem multiset is keyed by its stems in sorted order
    by_stems: dict[tuple[str, ...], int] = {}
    for sentence in doc.sentences:
        by_stems.setdefault(tuple(sorted(sentence.content_stems())), sentence.doc_index)
    lex = lexicons or default_lexicons()
    # a word's stem depends only on its lowered surface, so the document's
    # own tokens stem most of a line's words; Porter runs on the rest
    stems = {t.surface.lower(): t.stem for s in doc.sentences for t in s.tokens}
    indices = set()
    for text in reference.sentences:
        words = [w for w in map(str.lower, preprocess.tokenize(text)) if w not in lex.stopwords]
        for word in words:
            if word not in stems:
                stems[word] = preprocess.porter_stem(word) if word.isalpha() else word
        key = tuple(sorted(map(stems.__getitem__, words)))
        if key not in by_stems:
            raise ValueError(
                f"reference sentence not found in {reference.source_id!r}: {text!r}"
            )
        indices.add(by_stems[key])
    return frozenset(indices)


@dataclass(frozen=True)
class DocumentScore:
    source_id: str
    scores: EvalScores


@dataclass(frozen=True)
class CorpusEvaluation:
    per_document: tuple[DocumentScore, ...]
    mean: EvalScores


def _mean_scores(scores: list[EvalScores]) -> EvalScores:
    n = len(scores)
    return EvalScores(
        precision=sum(s.precision for s in scores) / n,
        recall=sum(s.recall for s in scores) / n,
        f_measure=sum(s.f_measure for s in scores) / n,
    )


def _evaluate(
    entries: list[tuple[RawDocument, ReferenceSummary | None]],
    layer_counts: tuple[int, ...],
    settings: dict,
) -> dict[int, CorpusEvaluation]:
    """Score every document per layer count; ``(1, 2)`` stacks 2 on 1.
    ``settings`` are ``run_pipeline``'s keyword arguments but ``layers``."""
    if not entries:
        raise ValueError("corpus is empty")
    per_document: dict[int, list[DocumentScore]] = {n: [] for n in layer_counts}
    for raw, reference in entries:
        if reference is None:
            raise MissingReference(f"no reference for document {raw.source_id!r}")
        base = ref_indices = None
        for layers in layer_counts:
            base = run_pipeline(raw, layers=layers, base=base, **settings)
            if ref_indices is None:
                ref_indices = resolve_reference(reference, base.doc, settings.get("lexicons"))
            system = frozenset(base.summary.selected)
            per_document[layers].append(
                DocumentScore(source_id=raw.source_id, scores=score_sets(system, ref_indices))
            )
    return {
        n: CorpusEvaluation(
            per_document=tuple(docs), mean=_mean_scores([d.scores for d in docs])
        )
        for n, docs in per_document.items()
    }


def evaluate_corpus(
    entries: list[tuple[RawDocument, ReferenceSummary | None]],
    layers: Layers = 1,
    **settings,
) -> CorpusEvaluation:
    """Summarize every document and score it against its reference.
    ``settings`` are ``run_pipeline``'s other keyword arguments."""
    return _evaluate(entries, (layers,), settings)[layers]


@dataclass(frozen=True)
class ModeComparison:
    proposed_1layer: EvalScores
    existing_2layer: EvalScores
    # the corpus evaluations behind the two means, by layer count
    by_layers: dict[int, CorpusEvaluation] = field(default_factory=dict)


def compare_modes(
    entries: list[tuple[RawDocument, ReferenceSummary | None]], **settings
) -> ModeComparison:
    """Mean scores for the single-layer mode next to the stacked mode.
    ``settings`` are ``run_pipeline``'s keyword arguments but ``layers``."""
    one, two = get_args(Layers)
    by_layers = _evaluate(entries, (one, two), settings)
    return ModeComparison(by_layers[one].mean, by_layers[two].mean, by_layers)


def render_metrics_csv(result: CorpusEvaluation) -> str:
    """Per-document rows plus a MEAN row, six decimal places."""
    lines = ["source_id,precision,recall,f_measure"]
    for entry in result.per_document:
        s = entry.scores
        lines.append(
            f"{entry.source_id},{s.precision:.6f},{s.recall:.6f},{s.f_measure:.6f}"
        )
    m = result.mean
    lines.append(f"MEAN,{m.precision:.6f},{m.recall:.6f},{m.f_measure:.6f}")
    return "\n".join(lines) + "\n"


def render_comparison_csv(comparison: ModeComparison) -> str:
    one = comparison.proposed_1layer
    two = comparison.existing_2layer
    lines = ["metric,proposed_1layer,existing_2layer"]
    for name in ("precision", "recall", "f_measure"):
        lines.append(
            f"{name},{getattr(one, name):.6f},{getattr(two, name):.6f}"
        )
    return "\n".join(lines) + "\n"


def load_corpus(directory: str | Path) -> list[tuple[RawDocument, ReferenceSummary]]:
    """Read ``<id>.txt`` / ``<id>.ref`` sibling pairs from a directory.

    A ``.ref`` file whose every line is ASCII digits names 0-based
    sentence indices, one per line; anything else, a sign, a ``_`` or a
    non-ASCII digit included, is read as literal reference sentences.
    """
    directory = Path(directory)
    entries = []
    for txt_path in sorted(directory.glob("*.txt")):
        source_id = txt_path.stem
        ref_path = txt_path.with_suffix(".ref")
        if not ref_path.exists():
            raise MissingReference(f"no reference file for document {source_id!r}")
        raw = RawDocument(text=_read_utf8(txt_path), source_id=source_id)
        lines = [
            line.strip() for line in _read_utf8(ref_path).splitlines() if line.strip()
        ]
        if not lines:
            raise MissingReference(f"reference file for {source_id!r} is empty")
        if all(line.isascii() and line.isdigit() for line in lines):
            reference = ReferenceSummary(
                source_id=source_id, selected=frozenset(int(x) for x in lines)
            )
        else:
            reference = ReferenceSummary(source_id=source_id, sentences=tuple(lines))
        entries.append((raw, reference))
    if not entries:
        raise ValueError(f"no .txt documents found in {directory}")
    return entries


def _read_utf8(path: Path) -> str:
    try:
        return path.read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8: {exc}") from exc
