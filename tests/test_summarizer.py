import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbmsumm import (
    DegenerateDocument,
    EmptyDocument,
    RawDocument,
    Summary,
    SummarizerError,
    SummaryConfig,
    run_pipeline,
    summarize,
)
from rbmsumm.assets import default_lexicons
from rbmsumm.document import ProcessedDocument, Sentence, Token
from rbmsumm.features import SentenceFeatureMatrix
from rbmsumm.rbm import TrainConfig
from rbmsumm.summarizer import (
    RankedSentence,
    assemble,
    jaccard,
    rank,
    score_sentences,
    select,
)

from test_features import make_doc, make_sentence


class TestScoreSentences:
    def test_uniform_half_rows(self):
        enhanced = SentenceFeatureMatrix(values=np.full((4, 9), 0.5))
        scores = score_sentences(enhanced)
        assert [s.score for s in scores] == [pytest.approx(4.5)] * 4
        assert [s.doc_index for s in scores] == [0, 1, 2, 3]

    def test_near_one_row_is_near_maximum(self):
        enhanced = SentenceFeatureMatrix(values=np.full((1, 9), 0.999))
        assert score_sentences(enhanced)[0].score == pytest.approx(8.991)

    def test_matches_row_sum_recomputation(self, article_doc):
        from rbmsumm import build_feature_matrix, normalize_columns
        from rbmsumm.rbm import stack_enhance

        norm = normalize_columns(build_feature_matrix(article_doc))
        enhanced = stack_enhance(norm, TrainConfig(seed=42), layers=1)
        scores = score_sentences(enhanced)
        for s in scores:
            assert s.score == pytest.approx(
                float(sum(enhanced.values[s.doc_index])), abs=1e-12
            )

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 300),
        st.integers(1, 12),
        st.tuples(st.integers(-300, 300), st.integers(-300, 300)).map(sorted),
        st.integers(0, 2**32 - 1),
        st.sampled_from(("C", "F")),
    )
    def test_bit_equal_to_one_sum_per_row(self, rows, cols, exponents, seed, order):
        """Magnitudes 10**e for e drawn between the two exponents, either sign."""
        gen = np.random.default_rng(seed)
        low, high = exponents
        magnitudes = 10.0 ** gen.uniform(low, high, size=(rows, cols))
        values = np.array(magnitudes * gen.choice((-1.0, 1.0), size=(rows, cols)), order=order)
        per_row = np.array([float(row.sum()) for row in values])
        scores = score_sentences(SentenceFeatureMatrix(values=values))
        assert [s.doc_index for s in scores] == list(range(rows))
        assert np.array([s.score for s in scores]).tobytes() == per_row.tobytes()


class TestRank:
    def test_descending_order(self):
        ranked = rank(
            [RankedSentence(0, 1.0), RankedSentence(1, 3.0), RankedSentence(2, 2.0)]
        )
        assert [r.doc_index for r in ranked] == [1, 2, 0]

    def test_ties_keep_document_order(self):
        ranked = rank([RankedSentence(i, 1.0) for i in range(5)])
        assert [r.doc_index for r in ranked] == [0, 1, 2, 3, 4]

    def test_ties_given_out_of_document_order_take_document_order(self):
        ranked = rank(
            [RankedSentence(2, 1.0), RankedSentence(1, 3.0), RankedSentence(0, 1.0)]
        )
        assert [r.doc_index for r in ranked] == [1, 0, 2]

    def test_single(self):
        only = RankedSentence(0, 0.5)
        assert rank([only]) == [only]


class TestJaccard:
    def test_identical_sets(self):
        a = make_sentence(["alpha", "beta"])
        b = make_sentence(["beta", "alpha", "alpha"])
        assert jaccard(a, b) == 1.0

    def test_disjoint(self):
        assert jaccard(make_sentence(["a"]), make_sentence(["b"])) == 0.0

    def test_partial(self):
        a = make_sentence(["a", "b", "c"])
        b = make_sentence(["b", "c", "d"])
        assert jaccard(a, b) == pytest.approx(0.5)

    def test_both_empty_after_stopwords(self):
        a = make_sentence(["the"], stopwords={"the"})
        b = make_sentence(["a"], stopwords={"a"})
        assert jaccard(a, b) == 0.0

    def test_bounds_on_fixture(self, article_doc):
        for a in article_doc.sentences:
            for b in article_doc.sentences:
                assert 0.0 <= jaccard(a, b) <= 1.0


def synthetic_ranked_doc():
    """Eight sentences with stems crafted so the two anchor modes differ."""
    stem_lists = [
        ["alpha", "beta"],       # s0: seed
        ["alpha", "xray"],       # s1: overlaps seed
        ["xray", "yank"],        # s2: overlaps s1 only
        ["beta", "quip"],        # s3: overlaps seed only
        ["zulu", "zero"],
        ["mike", "nori"],
        ["oscar", "papa"],
        ["quux", "romp"],
    ]
    doc = make_doc(stem_lists)
    ranked = [RankedSentence(i, 8.0 - i) for i in range(8)]
    return doc, ranked


class TestSelect:
    def test_limit_one_is_seed_only(self, article_doc):
        result = run_summary(article_doc, limit=1)
        ranked = result["ranked"]
        assert result["selection"] == [ranked[0].doc_index]

    def test_limit_at_least_n_selects_everything(self, article_doc):
        result = run_summary(article_doc, limit=50)
        assert sorted(result["selection"]) == list(range(article_doc.n_sentences))

    def test_anchor_latest_walks_the_chain(self):
        doc, ranked = synthetic_ranked_doc()
        picks = select(ranked, doc, SummaryConfig(limit_sentences=3), anchor="latest")
        assert picks == [0, 1, 2]

    def test_anchor_first_stays_at_seed(self):
        doc, ranked = synthetic_ranked_doc()
        picks = select(ranked, doc, SummaryConfig(limit_sentences=3), anchor="first")
        assert picks == [0, 1, 3]

    def test_jaccard_tie_prefers_better_rank(self):
        doc, ranked = synthetic_ranked_doc()
        # both s1 and s3 share exactly one stem with the seed
        picks = select(ranked, doc, SummaryConfig(limit_sentences=2))
        assert picks == [0, 1]

    def test_fallback_follows_rank_order(self):
        doc, ranked = synthetic_ranked_doc()
        picks = select(ranked, doc, SummaryConfig(limit_sentences=6))
        assert set(picks[:4]) == {0, 1, 2, 3}  # the whole top half first
        assert picks[4:] == [4, 5]  # then rank order

    def test_invalid_anchor(self):
        doc, ranked = synthetic_ranked_doc()
        with pytest.raises(ValueError):
            select(ranked, doc, SummaryConfig(limit_sentences=1), anchor="middle")

    def test_trace_matches_independent_simulation(self, article_doc):
        from rbmsumm import build_feature_matrix, normalize_columns
        from rbmsumm.rbm import stack_enhance

        norm = normalize_columns(build_feature_matrix(article_doc))
        enhanced = stack_enhance(norm, TrainConfig(seed=42), layers=1)
        ranked = rank(score_sentences(enhanced))
        stems = [set(s.content_stems()) for s in article_doc.sentences]
        for anchor in ("latest", "first"):
            for limit in range(1, article_doc.n_sentences + 1):
                expected = trace_selection(ranked, stems, limit, anchor)
                config = SummaryConfig(limit_sentences=limit)
                got = select(ranked, article_doc, config, anchor)
                assert got == expected, (anchor, limit)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_trace_on_random_stem_lists(self, data):
        # a tiny alphabet gives many ties, and the stop word "the" gives
        # sentences with no content stems at all
        stem_lists = data.draw(
            st.lists(
                st.lists(st.sampled_from(["a", "b", "c", "d", "e", "the"]), max_size=4),
                min_size=1,
                max_size=16,
            )
        )
        n = len(stem_lists)
        order = data.draw(st.permutations(range(n)))
        limit = data.draw(st.integers(1, n + 2))
        anchor = data.draw(st.sampled_from(["latest", "first"]))
        doc = make_doc(stem_lists, stopwords={"the"})
        ranked = [RankedSentence(i, float(n - pos)) for pos, i in enumerate(order)]
        stems = [set(s.content_stems()) for s in doc.sentences]
        got = select(ranked, doc, SummaryConfig(limit_sentences=limit), anchor)
        assert got == trace_selection(ranked, stems, limit, anchor)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_first_anchor_matches_trace_with_ties_and_a_tail_without_overlap(self, data):
        # the seed's stems come from a tiny alphabet, so scores tie often;
        # the tail shares no stem with the seed, and the two are ranked
        # in any order behind it
        seed = data.draw(st.lists(st.sampled_from(["a", "b", "c"]), max_size=3))
        shared = data.draw(
            st.lists(st.lists(st.sampled_from(["a", "b", "c", "x", "the"]), max_size=4), max_size=10)
        )
        tail = data.draw(
            st.lists(st.lists(st.sampled_from(["x", "y", "the"]), max_size=3), min_size=1, max_size=8)
        )
        stem_lists = [seed, *shared, *tail]
        n = len(stem_lists)
        order = [0, *data.draw(st.permutations(range(1, n)))]
        limit = data.draw(st.integers(1, n + 2))
        doc = make_doc(stem_lists, stopwords={"the"})
        ranked = [RankedSentence(i, float(n - pos)) for pos, i in enumerate(order)]
        stems = [set(s.content_stems()) for s in doc.sentences]
        got = select(ranked, doc, SummaryConfig(limit_sentences=limit), "first")
        assert got == trace_selection(ranked, stems, limit, "first")

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        limit_past_n=st.integers(-300, 2),
    )
    @example(n=300, seed=1, limit_past_n=-200)
    @example(n=300, seed=2, limit_past_n=0)
    @example(n=299, seed=3, limit_past_n=2)
    def test_latest_matches_trace_on_long_documents(self, n, seed, limit_past_n):
        """Documents of up to 300 sentences over 30 stems, so that stems
        held by several candidates, stems held by one and tied scores all
        occur; some sentences hold no content stem, only a stem of their
        own, or the stems of an earlier sentence."""
        rng = random.Random(seed)
        stem_lists = []
        for i in range(n):
            kind = rng.random()
            if kind < 0.05:
                words = ["the"] * rng.randint(0, 2)  # no content stem
            elif kind < 0.1:
                words = [f"only{i}"]  # no stem that another sentence holds
            elif kind < 0.15 and stem_lists:
                words = list(rng.choice(stem_lists))  # an exact duplicate
            else:
                words = rng.choices(RANDOM_STEMS, k=rng.randint(1, 6))
                if rng.random() < 0.3:
                    words.append(f"only{i}")
            stem_lists.append(words)
        order = list(range(n))
        rng.shuffle(order)
        limit = max(1, n + limit_past_n)
        doc = make_doc(stem_lists, stopwords={"the"})
        ranked = [RankedSentence(i, float(n - pos)) for pos, i in enumerate(order)]
        stems = [set(s.content_stems()) for s in doc.sentences]
        got = select(ranked, doc, SummaryConfig(limit_sentences=limit), "latest")
        assert got == trace_selection(ranked, stems, limit, "latest")

    @pytest.mark.parametrize("limit", [1, 2, 3])
    def test_latest_on_a_one_sentence_document(self, limit):
        doc = make_doc([["alpha", "beta"]])
        ranked = [RankedSentence(0, 1.0)]
        assert select(ranked, doc, SummaryConfig(limit_sentences=limit), "latest") == [0]

    def test_latest_anchor_without_a_shared_stem_takes_the_next_rank(self):
        # the seed holds only its own stem and sentence 4 no content stem,
        # so the picks after them fall back to the best-ranked live
        # candidate; so does the pick after 3, whose one shared stem only
        # the picked 2 holds
        stem_lists = [["solo"], ["gamma"], ["delta", "eps"], ["eps"], ["the"], ["gamma", "z"]]
        doc = make_doc(stem_lists + [["pad"]] * 6, stopwords={"the"})
        order = (0, 4, 2, 1, 3, 5, 6, 7, 8, 9, 10, 11)
        ranked = [RankedSentence(i, 12.0 - pos) for pos, i in enumerate(order)]
        picks = select(ranked, doc, SummaryConfig(limit_sentences=6), "latest")
        stems = [set(s.content_stems()) for s in doc.sentences]
        assert picks == trace_selection(ranked, stems, 6, "latest") == [0, 4, 2, 3, 1, 5]

    def test_latest_prefers_an_exact_duplicate(self):
        # the seed's duplicate is ranked last in the top half, and still
        # wins at Jaccard 1.0 over a better-ranked partial overlap
        doc = make_doc([["alpha", "beta"], ["alpha", "gamma"], ["delta"], ["alpha", "beta"],
                        ["pad"], ["pad"], ["pad"], ["pad"]])
        ranked = [RankedSentence(i, 8.0 - i) for i in range(8)]
        assert select(ranked, doc, SummaryConfig(limit_sentences=3), "latest") == [0, 3, 1]


# the stems of the long random documents: a small alphabet, so that
# candidates share stems and scores tie
RANDOM_STEMS = [f"stem{i}" for i in range(30)]


def trace_selection(ranked, stems, limit, anchor="latest"):
    """Step-by-step re-derivation of the selection loop.

    Scores every pool candidate against the anchor (the latest pick, or
    the seed when ``anchor`` is "first"); the first maximum in rank
    order wins.
    """
    top = [r.doc_index for r in ranked[: math.ceil(len(ranked) / 2)]]
    chosen = [top[0]]
    pool = top[1:]
    while len(chosen) < limit and pool:
        anchor_stems = stems[chosen[-1] if anchor == "latest" else chosen[0]]
        best, best_sim = None, -1.0
        for idx in pool:
            inter = len(stems[idx] & anchor_stems)
            union = len(stems[idx] | anchor_stems)
            sim = inter / union if union else 0.0
            if sim > best_sim:
                best, best_sim = idx, sim
        chosen.append(best)
        pool.remove(best)
    for r in ranked[math.ceil(len(ranked) / 2):]:
        if len(chosen) >= limit:
            break
        chosen.append(r.doc_index)
    return chosen


def run_summary(doc, limit):
    from rbmsumm import build_feature_matrix, normalize_columns
    from rbmsumm.rbm import stack_enhance

    norm = normalize_columns(build_feature_matrix(doc))
    enhanced = stack_enhance(norm, TrainConfig(seed=42), layers=1)
    ranked = rank(score_sentences(enhanced))
    selection = select(ranked, doc, SummaryConfig(limit_sentences=limit))
    return {"ranked": ranked, "selection": selection}


class TestAssemble:
    def test_reorders_ascending(self, article_doc):
        ranked = [RankedSentence(i, 1.0) for i in range(6)]
        summary = assemble([4, 1, 2], article_doc, ranked)
        assert summary.selected == (1, 2, 4)

    def test_single_selection_verbatim(self, article_doc):
        ranked = [RankedSentence(i, 1.0) for i in range(6)]
        summary = assemble([3], article_doc, ranked)
        assert summary.text == article_doc.sentences[3].original_text

    def test_full_selection_keeps_document_order(self, article_doc):
        ranked = [RankedSentence(i, 1.0) for i in range(6)]
        summary = assemble(list(range(6)), article_doc, ranked)
        expected = " ".join(s.original_text for s in article_doc.sentences)
        assert summary.text == expected


class TestSummaryConfig:
    def test_both_limits_rejected(self):
        with pytest.raises(ValueError):
            SummaryConfig(limit_sentences=2, limit_ratio=0.5)

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            SummaryConfig(limit_sentences=0)
        with pytest.raises(ValueError):
            SummaryConfig(limit_ratio=0.0)
        with pytest.raises(ValueError):
            SummaryConfig(limit_ratio=1.5)

    def test_default_ratio_is_third(self):
        config = SummaryConfig()
        assert config.effective_limit(12) == math.ceil(0.33 * 12)
        assert config.effective_limit(1) == 1
        assert config.effective_limit(2) == 1

    def test_limit_caps_at_n(self):
        assert SummaryConfig(limit_sentences=10).effective_limit(4) == 4

    def test_no_sentences_still_give_a_limit_of_one(self):
        for config in (
            SummaryConfig(),
            SummaryConfig(limit_sentences=3),
            SummaryConfig(limit_ratio=1.0),
        ):
            assert config.effective_limit(0) == 1


# the name lexicons' entries as they would open a sentence or a name
CAPITALIZED_LEXICON_WORDS = tuple(
    sorted(w.capitalize() for w in default_lexicons().not_names | default_lexicons().common_words)
)


class TestSummarizeEndToEnd:
    def test_deterministic(self, article_raw):
        a = summarize(article_raw, train_config=TrainConfig(seed=42))
        b = summarize(article_raw, train_config=TrainConfig(seed=42))
        assert a == b

    def test_single_sentence_document(self):
        raw = RawDocument("Only one sentence lives here.")
        summary = summarize(raw)
        assert summary.selected == (0,)
        assert summary.text == "Only one sentence lives here."

    def test_empty_document_propagates(self):
        with pytest.raises(EmptyDocument):
            summarize(RawDocument("   "))

    def test_degenerate_document_propagates(self):
        with pytest.raises(DegenerateDocument):
            summarize(RawDocument("!!! ..."))

    def test_summary_text_is_extractive(self, article_raw):
        summary = summarize(article_raw, summary_config=SummaryConfig(limit_sentences=3))
        doc_sentences = [s.original_text for s in run_pipeline(article_raw).doc.sentences]
        parts = [doc_sentences[i] for i in summary.selected]
        assert summary.text == " ".join(parts)
        for part in parts:
            assert part in article_raw.text

    def test_base_reuses_the_one_layer_stages(self, article_raw):
        one = run_pipeline(article_raw, layers=1)
        two = run_pipeline(article_raw, layers=2, base=one)
        assert (two.doc, two.raw_matrix, two.normalized) == (one.doc, one.raw_matrix, one.normalized)
        scratch = run_pipeline(article_raw, layers=2)
        assert two.enhanced.values.tobytes() == scratch.enhanced.values.tobytes()
        assert (two.ranked, two.summary) == (scratch.ranked, scratch.summary)

    def test_base_with_one_layer_rejected(self, article_raw):
        one = run_pipeline(article_raw, layers=1)
        with pytest.raises(ValueError, match="2-layer"):
            run_pipeline(article_raw, layers=1, base=one)

    def test_selected_strictly_increasing(self, article_raw):
        summary = summarize(article_raw, summary_config=SummaryConfig(limit_sentences=4))
        assert list(summary.selected) == sorted(set(summary.selected))

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.text(), st.sampled_from(CAPITALIZED_LEXICON_WORDS)),
                st.sampled_from((" ", ". ", "? ", "\n\n")),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_arbitrary_unicode_summarizes_or_raises_typed_error(self, parts):
        text = "".join(word + sep for word, sep in parts)
        try:
            summary = summarize(RawDocument(text))
        except SummarizerError:
            return
        assert isinstance(summary, Summary)


class TestSelectionInvariants:
    """Randomized documents: structural guarantees of the selection rule."""

    def test_invariants_over_random_documents(self):
        rng = random.Random(2024)
        pool = (
            "market trade price export growth report bank rate city council "
            "water energy storm record team player match season vote law court "
            "health virus study school crops harvest railway bridge airport"
        ).split()
        for trial in range(40):
            n_sentences = rng.randint(1, 20)
            sentences = []
            for _ in range(n_sentences):
                words = rng.sample(pool, rng.randint(3, 8))
                sentences.append(" ".join(words).capitalize() + ".")
            # sprinkle paragraph breaks
            text_parts = []
            for i, s in enumerate(sentences):
                text_parts.append(s)
                if i < n_sentences - 1 and rng.random() < 0.25:
                    text_parts.append("\n\n")
                else:
                    text_parts.append(" ")
            raw = RawDocument("".join(text_parts), f"synthetic-{trial}")
            limit = rng.randint(1, n_sentences + 2)
            result = run_pipeline(
                raw,
                train_config=TrainConfig(seed=trial),
                summary_config=SummaryConfig(limit_sentences=limit),
            )
            n = result.doc.n_sentences
            expected_size = min(limit, n)
            summary = result.summary
            assert len(summary.selected) == expected_size
            assert list(summary.selected) == sorted(set(summary.selected))
            assert result.ranked[0].doc_index in summary.selected
            top_half = {r.doc_index for r in result.ranked[: math.ceil(n / 2)]}
            if expected_size <= len(top_half):
                assert set(summary.selected) <= top_half
            else:
                assert top_half <= set(summary.selected)


class TestScaleInvariance:
    def test_positive_scaling_keeps_rank_order(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            values = rng.random((rng.integers(2, 30), 9))
            enhanced = SentenceFeatureMatrix(values=values)
            base = [r.doc_index for r in rank(score_sentences(enhanced))]
            for c in (1e-3, 0.5, 7.0, 1e3):
                scaled = SentenceFeatureMatrix(values=values * c)
                order = [r.doc_index for r in rank(score_sentences(scaled))]
                assert order == base
