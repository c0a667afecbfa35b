import functools
import inspect
import math
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rbmsumm.evaluation

from rbmsumm import (
    EmptyReference,
    EmptySystemSummary,
    MissingReference,
    RawDocument,
    ReferenceSummary,
    compare_modes,
    evaluate_corpus,
    f_measure,
    load_corpus,
    precision,
    recall,
    run_pipeline,
)
from rbmsumm.evaluation import (
    render_comparison_csv,
    render_metrics_csv,
    resolve_reference,
    score_sets,
)
from rbmsumm.rbm import TrainConfig
from rbmsumm.summarizer import SummaryConfig

from oracles import oracle_resolve_reference

# a corpus document, then repeats: a verbatim duplicate, one with its
# words reordered, and one of stop words only
DUPLICATES_TEXT = (Path(__file__).parent / "data" / "corpus" / "reefs.txt").read_text(
    "utf-8"
) + (
    "\n\nThe reef supports 1500 fish species and a 6 billion dollar tourism industry. "
    "Species of fish, 1500, the reef supports and a 6 billion dollar tourism industry. "
    "It was all of them."
)


class TestPrecisionRecall:
    def test_partial_overlap(self):
        system = frozenset({1, 2, 3})
        reference = frozenset({2, 3, 5})
        assert precision(system, reference) == pytest.approx(2 / 3)
        assert recall(system, reference) == pytest.approx(2 / 3)

    def test_identical_sets(self):
        s = frozenset({0, 4})
        assert precision(s, s) == 1.0
        assert recall(s, s) == 1.0

    def test_disjoint_sets(self):
        assert precision(frozenset({1}), frozenset({2})) == 0.0
        assert recall(frozenset({1}), frozenset({2})) == 0.0

    def test_reference_subset_of_system_gives_full_recall(self):
        assert recall(frozenset({1, 2, 3}), frozenset({2})) == 1.0

    def test_empty_system_raises(self):
        with pytest.raises(EmptySystemSummary):
            precision(frozenset(), frozenset({1}))

    def test_empty_reference_raises(self):
        with pytest.raises(EmptyReference):
            recall(frozenset({1}), frozenset())

    @given(
        st.frozensets(st.integers(0, 20), min_size=1, max_size=10),
        st.frozensets(st.integers(0, 20), min_size=1, max_size=10),
    )
    def test_duality(self, system, reference):
        assert precision(system, reference) == recall(reference, system)


class TestFMeasure:
    def test_harmonic_mean_of_equals(self):
        for x in (0.1, 0.5, 1.0):
            assert f_measure(x, x) == pytest.approx(x)

    def test_reported_averages(self):
        assert f_measure(0.7, 0.63) == pytest.approx(0.6632, abs=1e-4)

    def test_guarded_zero(self):
        assert f_measure(0.0, 0.0) == 0.0

    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_identity_and_bounds(self, p, r):
        f = f_measure(p, r)
        assert f == pytest.approx(2 * p * r / (p + r), abs=1e-12)
        assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_symmetry(self, p, r):
        assert f_measure(p, r) == pytest.approx(f_measure(r, p), abs=1e-12)


class TestReferenceResolution:
    def test_index_reference_passes_through(self, article_doc):
        ref = ReferenceSummary(source_id="x", selected=frozenset({0, 2}))
        assert resolve_reference(ref, article_doc) == frozenset({0, 2})

    def test_out_of_range_index_rejected(self, article_doc):
        ref = ReferenceSummary(source_id="x", selected=frozenset({99}))
        with pytest.raises(ValueError):
            resolve_reference(ref, article_doc)

    def test_sentence_strings_matched_by_stems(self, article_doc):
        # punctuation, casing and inflection differences are tolerated
        ref = ReferenceSummary(
            source_id="x",
            sentences=(
                "the DELHI market rose 12 percent in 2016!!",
                "exports grew faster than the markets expected this year",
            ),
        )
        assert resolve_reference(ref, article_doc) == frozenset({0, 4})

    def test_unmatched_sentence_rejected(self, article_doc):
        ref = ReferenceSummary(source_id="x", sentences=("entirely unrelated words",))
        with pytest.raises(ValueError):
            resolve_reference(ref, article_doc)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_literal_lines_resolve_as_by_counted_stems(self, seed, n_lines):
        """Sorted stems key a multiset as the former sorted (stem, count)
        pairs did, and one token memo for all lines changes no stem."""
        doc = _duplicates_doc()
        picker = random.Random(seed)
        lines = []
        for _ in range(n_lines):
            words = picker.choice(doc.sentences).original_text.split()
            form = picker.choice(("verbatim", "lower", "shuffled", "unrelated"))
            if form == "lower":
                words = [w.lower() for w in words]
            elif form == "shuffled":
                picker.shuffle(words)
            elif form == "unrelated":
                words = ["entirely", "unrelated", picker.choice(words)]
            lines.append(" ".join(words))
        expected = oracle_resolve_reference(lines, doc)
        ref = ReferenceSummary(source_id="dup", sentences=tuple(lines))
        if expected is None:
            with pytest.raises(ValueError, match="not found"):
                resolve_reference(ref, doc)
        else:
            assert resolve_reference(ref, doc) == expected

    def test_duplicate_sentences_resolve_to_the_first(self):
        doc = _duplicates_doc()
        assert doc.sentences[12].original_text == doc.sentences[4].original_text
        # the duplicate, the reordered repeat and the stop-word sentence
        lines = [doc.sentences[i].original_text for i in (12, 13, 14)]
        assert oracle_resolve_reference(lines, doc) == frozenset({4, 14})
        ref = ReferenceSummary(source_id="dup", sentences=tuple(lines))
        assert resolve_reference(ref, doc) == frozenset({4, 14})

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ReferenceSummary(source_id="x")
        with pytest.raises(ValueError):
            ReferenceSummary(source_id="x", selected=frozenset(), sentences=None)
        with pytest.raises(ValueError):
            ReferenceSummary(
                source_id="x", selected=frozenset({1}), sentences=("a",)
            )


@functools.cache
def _duplicates_doc():
    return run_pipeline(RawDocument(DUPLICATES_TEXT, "dup")).doc


class TestEvaluateCorpus:
    def test_perfect_document_scores_ones(self):
        raw = RawDocument("Cats sleep daily. Dogs bark loudly.", "tiny")
        ref = ReferenceSummary(source_id="tiny", selected=frozenset({0, 1}))
        result = evaluate_corpus(
            [(raw, ref)], summary_config=SummaryConfig(limit_ratio=1.0)
        )
        assert result.mean == score_sets(frozenset({0, 1}), frozenset({0, 1}))
        assert result.mean.f_measure == 1.0

    def test_means_average_per_document_scores(self):
        raw_a = RawDocument("Cats sleep daily. Dogs bark loudly.", "a")
        raw_b = RawDocument("Birds fly south. Fish swim deep.", "b")
        # run first to learn what each summary selects, then pick one
        # matching and one disjoint reference
        config = SummaryConfig(limit_sentences=1)
        sel_a = run_pipeline(raw_a, summary_config=config).summary.selected
        sel_b = run_pipeline(raw_b, summary_config=config).summary.selected
        ref_a = ReferenceSummary(source_id="a", selected=frozenset(sel_a))
        ref_b = ReferenceSummary(
            source_id="b", selected=frozenset({1 - sel_b[0]})
        )
        result = evaluate_corpus([(raw_a, ref_a), (raw_b, ref_b)], summary_config=config)
        assert result.per_document[0].scores.f_measure == 1.0
        assert result.per_document[1].scores.f_measure == 0.0
        assert result.mean.precision == pytest.approx(0.5)
        assert result.mean.recall == pytest.approx(0.5)
        assert result.mean.f_measure == pytest.approx(0.5)

    def test_missing_reference_raises(self):
        raw = RawDocument("Cats sleep daily.", "a")
        with pytest.raises(MissingReference):
            evaluate_corpus([(raw, None)])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            evaluate_corpus([])

    def test_mean_within_per_document_range(self, corpus_dir):
        result = evaluate_corpus(load_corpus(corpus_dir))
        fs = [d.scores.f_measure for d in result.per_document]
        assert min(fs) <= result.mean.f_measure <= max(fs)


class TestCorpusLoading:
    def test_loads_all_pairs(self, corpus_dir):
        entries = load_corpus(corpus_dir)
        assert len(entries) == 6
        ids = [raw.source_id for raw, _ in entries]
        assert ids == sorted(ids)

    def test_index_and_string_references(self, corpus_dir):
        entries = dict(
            (raw.source_id, ref) for raw, ref in load_corpus(corpus_dir)
        )
        assert entries["health"].selected == frozenset({0, 1, 3, 8})
        assert entries["reefs"].sentences is not None
        assert len(entries["reefs"].sentences) == 4

    def test_missing_reference_file(self, tmp_path):
        (tmp_path / "doc.txt").write_text("A sentence here.")
        with pytest.raises(MissingReference):
            load_corpus(tmp_path)

    def test_empty_reference_file(self, tmp_path):
        (tmp_path / "doc.txt").write_text("A sentence here.")
        (tmp_path / "doc.ref").write_text("\n")
        with pytest.raises(MissingReference):
            load_corpus(tmp_path)

    def test_directory_without_documents(self, tmp_path):
        with pytest.raises(ValueError):
            load_corpus(tmp_path)


class TestCsvRendering:
    def test_metrics_csv_shape(self, corpus_dir):
        result = evaluate_corpus(load_corpus(corpus_dir))
        csv = render_metrics_csv(result)
        lines = csv.split("\n")
        assert lines[0] == "source_id,precision,recall,f_measure"
        assert len(lines) == 1 + 6 + 1 + 1  # header, docs, MEAN, trailing LF
        assert lines[-1] == ""
        assert lines[-2].startswith("MEAN,")
        for line in lines[1:-1]:
            for cell in line.split(",")[1:]:
                assert len(cell.split(".")[1]) == 6

    def test_comparison_csv_shape(self, corpus_dir):
        comparison = compare_modes(load_corpus(corpus_dir)[:2])
        csv = render_comparison_csv(comparison)
        lines = csv.strip().split("\n")
        assert lines[0] == "metric,proposed_1layer,existing_2layer"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "precision",
            "recall",
            "f_measure",
        ]

    def test_comparison_first_column_matches_single_mode(self, corpus_dir):
        entries = load_corpus(corpus_dir)[:2]
        comparison = compare_modes(entries)
        single = evaluate_corpus(entries, layers=1)
        assert comparison.proposed_1layer == single.mean

    def test_comparison_deterministic(self, corpus_dir):
        entries = load_corpus(corpus_dir)[:2]
        a = compare_modes(entries)
        b = compare_modes(entries)
        assert a == b


class TestCompareModes:
    @settings(max_examples=8, deadline=None)
    @given(
        config=st.builds(
            TrainConfig,
            learning_rate=st.floats(0.0, 10.0),
            epochs=st.integers(0, 2),
            batch_size=st.integers(1, 8),
            n_chains=st.integers(1, 6),
            gibbs_steps_per_update=st.integers(1, 3),
            seed=st.integers(0, 2**64 - 1),
        ),
        anchor=st.sampled_from(["latest", "first"]),
    )
    def test_comparison_runs_are_bit_equal_to_standalone_runs(
        self, corpus_dir, config, anchor
    ):
        runs = []

        def recording(*args, **kwargs):
            bound = inspect.signature(run_pipeline).bind(*args, **kwargs)
            bound.apply_defaults()
            result = run_pipeline(*args, **kwargs)
            runs.append((bound.arguments["raw"], bound.arguments["layers"], result))
            return result

        with mock.patch.object(rbmsumm.evaluation, "run_pipeline", recording):
            compare_modes(load_corpus(corpus_dir), train_config=config, anchor=anchor)
        assert len(runs) == 2 * len(load_corpus(corpus_dir))
        for raw, layers, result in runs:
            alone = run_pipeline(raw, train_config=config, layers=layers, anchor=anchor)
            assert result.enhanced.values.tobytes() == alone.enhanced.values.tobytes()
            assert result.ranked == alone.ranked
            assert result.summary == alone.summary

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="corpus is empty"):
            compare_modes([])

    def test_missing_reference_raised(self, corpus_dir):
        (raw, _), *rest = load_corpus(corpus_dir)
        with pytest.raises(MissingReference, match=raw.source_id):
            compare_modes([*rest, (raw, None)])
