"""Every check accepts the program's real output and rejects a corrupted one."""

import dataclasses

import numpy as np
import pytest

import checks
import gen
from rbmsumm import RawDocument, run_pipeline
from rbmsumm.evaluation import (
    CorpusEvaluation,
    DocumentScore,
    EvalScores,
    ModeComparison,
    render_comparison_csv,
    render_metrics_csv,
)


@pytest.fixture(scope="module")
def gdoc():
    return gen.compare_corpus(4)[0]


@pytest.fixture(scope="module")
def result(gdoc):
    return run_pipeline(RawDocument(gdoc.text, gdoc.doc_id), anchor="first")


def _with_summary(result, **changes):
    return dataclasses.replace(result, summary=dataclasses.replace(result.summary, **changes))


def test_real_output_passes(result, gdoc):
    checks.check_pipeline(result, gdoc, "first")


def test_wrong_anchor_is_caught(result, gdoc):
    with pytest.raises(checks.CheckFailed, match="selection rule"):
        checks.check_pipeline(result, gdoc, "latest")


def test_dropped_pick(result, gdoc):
    picks = result.summary.selected
    with pytest.raises(checks.CheckFailed, match="picks"):
        checks.check_picks(_with_summary(result, selected=picks[:-1]), "first")


def test_swapped_pick(result, gdoc):
    picks = set(result.summary.selected)
    top = result.ranked[0].doc_index
    out = next(i for i in reversed(result.summary.selected) if i != top)
    spare = next(i for i in range(gdoc.n_sentences) if i not in picks)
    swapped = tuple(sorted(picks - {out} | {spare}))
    with pytest.raises(checks.CheckFailed, match="selection rule"):
        checks.check_picks(_with_summary(result, selected=swapped), "first")


def test_unordered_picks(result):
    picks = result.summary.selected
    with pytest.raises(checks.CheckFailed, match="ascending"):
        checks.check_picks(_with_summary(result, selected=picks[::-1]), "first")


def test_wrong_text(result):
    with pytest.raises(checks.CheckFailed, match="text"):
        checks.check_picks(_with_summary(result, text=result.summary.text + " x"), "first")


def test_wrong_sentence_count(result, gdoc):
    short = dataclasses.replace(gdoc, sentences=gdoc.sentences[:-1])
    with pytest.raises(checks.CheckFailed, match="sentences"):
        checks.check_shape(result, short)


def test_wrong_paragraph_count(result, gdoc):
    wrong = dataclasses.replace(gdoc, paragraph_count=gdoc.paragraph_count + 1)
    with pytest.raises(checks.CheckFailed, match="paragraphs"):
        checks.check_shape(result, wrong)


def test_wrong_length_column(result, gdoc):
    values = result.raw_matrix.values.copy()
    values[3, checks.LENGTH_COLUMN] += 1
    wrong = dataclasses.replace(
        result, raw_matrix=dataclasses.replace(result.raw_matrix, values=values)
    )
    with pytest.raises(checks.CheckFailed, match="length"):
        checks.check_shape(wrong, gdoc)


def test_enhanced_value_out_of_range(result):
    values = result.enhanced.values.copy()
    values[0, 0] = 1.0
    wrong = dataclasses.replace(result, enhanced=dataclasses.replace(result.enhanced, values=values))
    with pytest.raises(checks.CheckFailed, match=r"outside \(0, 1\)"):
        checks.check_ranking(wrong)


def test_ranking_out_of_order(result):
    ranked = list(result.ranked)
    ranked[0], ranked[1] = ranked[1], ranked[0]
    wrong = dataclasses.replace(result, ranked=tuple(ranked))
    with pytest.raises(checks.CheckFailed, match="out of order"):
        checks.check_ranking(wrong)


def test_tie_order():
    tie = [type("R", (), {"doc_index": i, "score": 1.0})() for i in (1, 0)]

    class Fake:
        enhanced = type("E", (), {"values": np.full((2, 9), 0.5)})()
        doc = type("D", (), {"n_sentences": 2})()
        ranked = tuple(tie)
        summary = type("S", (), {"scores": tuple(tie)})()

    with pytest.raises(checks.CheckFailed, match="out of order"):
        checks.check_ranking(Fake())


def _scores(result, gdoc):
    return {gdoc.doc_id: checks.prf(result.summary.selected, gdoc.reference)}


def _csv(rows, mean):
    return render_metrics_csv(
        CorpusEvaluation(
            per_document=tuple(DocumentScore(k, EvalScores(*v)) for k, v in rows.items()),
            mean=EvalScores(*mean),
        )
    )


def test_metrics_csv(result, gdoc):
    expected = _scores(result, gdoc)
    (value,) = expected.values()
    checks.check_metrics_csv(_csv(expected, value), expected)
    wrong_row = {gdoc.doc_id: (value[0] + 0.01, value[1], value[2])}
    with pytest.raises(checks.CheckFailed, match="recomputed"):
        checks.check_metrics_csv(_csv(wrong_row, value), expected)
    with pytest.raises(checks.CheckFailed, match="MEAN"):
        checks.check_metrics_csv(_csv(expected, (value[0], value[1], value[2] / 2)), expected)


def test_swapped_reference(result, gdoc):
    other = gen.compare_corpus(4)[1]
    checks.check_resolved(frozenset(gdoc.reference), gdoc)
    with pytest.raises(checks.CheckFailed, match="resolved"):
        checks.check_resolved(frozenset(other.reference), gdoc)
    # a CSV scored against the wrong reference (here: the picks themselves)
    expected = _scores(result, gdoc)
    wrong = (1.0, 1.0, 1.0)
    assert list(expected.values()) != [wrong]
    with pytest.raises(checks.CheckFailed, match="recomputed"):
        checks.check_metrics_csv(_csv({gdoc.doc_id: wrong}, wrong), expected)


def test_comparison_csv():
    one, two = (0.5, 0.25, 1 / 3), (0.4, 0.2, 0.3)
    metrics = _csv({"a": one}, one)
    good = render_comparison_csv(ModeComparison(EvalScores(*one), EvalScores(*two)))
    checks.check_comparison_csv(good, metrics, two)
    off_mean = render_comparison_csv(ModeComparison(EvalScores(0.6, 0.25, 1 / 3), EvalScores(*two)))
    with pytest.raises(checks.CheckFailed, match="MEAN"):
        checks.check_comparison_csv(off_mean, metrics, two)
    with pytest.raises(checks.CheckFailed, match="existing_2layer"):
        checks.check_comparison_csv(good, metrics, (0.4, 0.2, 0.31))


def test_simulation_matches_a_hand_worked_case():
    R = type("R", (), {})

    def ranked(order):
        out = []
        for i in order:
            r = R()
            r.doc_index = i
            out.append(r)
        return out

    stems = [frozenset("ab"), frozenset("xy"), frozenset("ac"), frozenset("b"), frozenset("z")]
    # top half of 5 is 3 sentences: 0, 1, 2; sentence 2 overlaps the seed most
    assert checks.simulate_selection(ranked([0, 1, 2, 3, 4]), stems, 3, "latest") == [0, 2, 1]
    assert checks.simulate_selection(ranked([0, 1, 2, 3, 4]), stems, 4, "first") == [0, 2, 1, 3]
