"""Correctness checks for the benchmark's operations.

Each check compares what the program returned with a computation made
here, apart from the program, or with a property the method must have.
The checks read the program's result objects but call none of its
functions.  A failed check raises ``CheckFailed``; the checks run
outside the timed region.
"""

from __future__ import annotations

import hashlib
import math

LENGTH_COLUMN = 2  # "length" in the nine-column feature order
TOLERANCE = 1e-6


class CheckFailed(AssertionError):
    """An operation's output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def expected_limit(n_sentences: int, ratio: float = 0.33) -> int:
    return max(1, min(math.ceil(ratio * n_sentences), n_sentences))


def check_shape(result, gdoc) -> None:
    """Sentence count, paragraph count and raw length column."""
    doc = result.doc
    require(
        doc.n_sentences == gdoc.n_sentences,
        f"{gdoc.doc_id}: {doc.n_sentences} sentences, generated {gdoc.n_sentences}",
    )
    require(
        doc.paragraph_count == gdoc.paragraph_count,
        f"{gdoc.doc_id}: {doc.paragraph_count} paragraphs, generated {gdoc.paragraph_count}",
    )
    lengths = result.raw_matrix.values[:, LENGTH_COLUMN]
    for i, tokens in enumerate(gdoc.tokens):
        expected = float(len(tokens)) if len(tokens) >= 3 else 0.0
        require(
            lengths[i] == expected,
            f"{gdoc.doc_id}: sentence {i} length {lengths[i]}, generated {len(tokens)} tokens",
        )


def check_ranking(result) -> None:
    """Enhanced values in (0, 1); ranking descending, ties in document order."""
    values = result.enhanced.values
    n = result.doc.n_sentences
    require(values.shape[0] == n, "enhanced matrix has the wrong row count")
    for row in values:
        for v in row:
            require(math.isfinite(v) and 0.0 < v < 1.0, f"enhanced value {v} outside (0, 1)")
    ranked = result.ranked
    require(
        sorted(r.doc_index for r in ranked) == list(range(n)),
        "ranking is not a permutation of the sentences",
    )
    for a, b in zip(ranked, ranked[1:]):
        require(
            a.score > b.score or (a.score == b.score and a.doc_index < b.doc_index),
            f"ranking out of order at sentences {a.doc_index} and {b.doc_index}",
        )
    require(
        tuple(result.summary.scores) == tuple(ranked),
        "summary scores differ from the ranking",
    )


def simulate_selection(ranked, stem_sets, limit: int, anchor: str) -> list[int]:
    """The selection rule, written out again: seed with the top sentence,
    then the best Jaccard match to the anchor from the top half (first
    maximum in rank order), then rank order."""
    order = [r.doc_index for r in ranked]
    half = math.ceil(len(order) / 2)
    picks = [order[0]]
    pool = order[1:half]
    while len(picks) < limit and pool:
        a = stem_sets[picks[-1] if anchor == "latest" else picks[0]]
        best, best_sim = 0, -1.0
        for k, idx in enumerate(pool):
            b = stem_sets[idx]
            union = len(a | b)
            sim = len(a & b) / union if union else 0.0
            if sim > best_sim:
                best, best_sim = k, sim
        picks.append(pool.pop(best))
    for idx in order[half:]:
        if len(picks) >= limit:
            break
        picks.append(idx)
    return picks


def check_picks(result, anchor: str) -> None:
    """Distinct ascending picks, the right count, the top sentence, and
    the same picks as an independent run of the selection rule."""
    picks = list(result.summary.selected)
    n = result.doc.n_sentences
    limit = expected_limit(n)
    require(len(picks) == limit, f"{len(picks)} picks, expected ceil(0.33*{n}) = {limit}")
    require(
        all(a < b for a, b in zip(picks, picks[1:])),
        "picks are not distinct and ascending",
    )
    require(all(0 <= i < n for i in picks), "pick out of range")
    require(result.ranked[0].doc_index in picks, "top-ranked sentence not picked")
    stem_sets = [
        frozenset(t.stem for t in s.tokens if not t.is_stopword)
        for s in result.doc.sentences
    ]
    expected = sorted(simulate_selection(result.ranked, stem_sets, limit, anchor))
    require(picks == expected, "picks differ from an independent run of the selection rule")
    text = " ".join(result.doc.sentences[i].original_text for i in picks)
    require(result.summary.text == text, "summary text is not the picked sentences")


def check_pipeline(result, gdoc, anchor: str) -> None:
    check_shape(result, gdoc)
    check_ranking(result)
    check_picks(result, anchor)


def prf(picks, reference) -> tuple[float, float, float]:
    """Sentence-level precision, recall and F-measure."""
    hits = len(set(picks) & set(reference))
    p = hits / len(picks)
    r = hits / len(reference)
    f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return p, r, f


def parse_metrics_csv(text: str) -> dict[str, tuple[float, float, float]]:
    lines = text.splitlines()
    require(lines[:1] == ["source_id,precision,recall,f_measure"], "bad metrics CSV header")
    rows = {}
    for line in lines[1:]:
        name, *values = line.split(",")
        require(len(values) == 3 and name not in rows, f"bad metrics CSV row {line!r}")
        rows[name] = tuple(float(v) for v in values)
    require(list(rows)[-1:] == ["MEAN"], "metrics CSV does not end in a MEAN row")
    return rows


def _close(a, b) -> bool:
    return all(abs(x - y) <= TOLERANCE for x, y in zip(a, b))


def check_metrics_csv(text: str, expected: dict[str, tuple[float, float, float]]) -> None:
    """One row per document, in order, matching the recomputed P/R/F, and
    a MEAN row that is the mean of the document rows."""
    rows = parse_metrics_csv(text)
    doc_rows = {k: v for k, v in rows.items() if k != "MEAN"}
    require(list(doc_rows) == list(expected), "metrics CSV rows do not match the documents")
    for name, values in expected.items():
        require(
            _close(doc_rows[name], values),
            f"{name}: CSV P/R/F {doc_rows[name]} differ from recomputed {values}",
        )
    mean = tuple(sum(v[k] for v in expected.values()) / len(expected) for k in range(3))
    require(_close(rows["MEAN"], mean), f"MEAN row {rows['MEAN']} is not the mean {mean}")


def check_comparison_csv(text: str, metrics_text: str, two_layer_mean) -> None:
    """proposed_1layer equals the metrics MEAN row; existing_2layer is the
    mean of the recomputed two-layer scores."""
    lines = text.splitlines()
    require(lines[:1] == ["metric,proposed_1layer,existing_2layer"], "bad compare CSV header")
    mean_row = metrics_text.splitlines()[-1].split(",")[1:]
    names = ("precision", "recall", "f_measure")
    require(len(lines) == 4, "compare CSV must hold three metric rows")
    for k, (name, line) in enumerate(zip(names, lines[1:])):
        cells = line.split(",")
        require(cells[0] == name, f"compare CSV row {k} is {cells[0]!r}, expected {name!r}")
        require(
            cells[1] == mean_row[k],
            f"proposed_1layer {name} {cells[1]} differs from the MEAN row {mean_row[k]}",
        )
        require(
            abs(float(cells[2]) - two_layer_mean[k]) <= TOLERANCE,
            f"existing_2layer {name} {cells[2]} differs from recomputed {two_layer_mean[k]}",
        )


def check_resolved(resolved, gdoc) -> None:
    """The program resolved the reference to the generator's indices."""
    require(
        sorted(resolved) == list(gdoc.reference),
        f"{gdoc.doc_id}: reference resolved to {sorted(resolved)[:8]}..., "
        f"generated {list(gdoc.reference)[:8]}...",
    )


def digest_pipeline(result, h=None):
    """Hash of everything a pipeline run returns that a caller can see."""
    h = h or hashlib.sha256()
    summary = result.summary
    h.update(repr((summary.selected, summary.text)).encode())
    h.update(repr([(r.doc_index, r.score) for r in result.ranked]).encode())
    h.update(result.enhanced.values.tobytes())
    h.update(result.normalized.values.tobytes())
    return h
