import dataclasses
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rbmsumm.features
from rbmsumm import FeatureConfig, RawDocument, preprocess
from rbmsumm.document import ProcessedDocument, Sentence, Token
from rbmsumm.errors import DegenerateDocument
from rbmsumm.features import (
    FEATURE_NAMES,
    build_feature_matrix,
    centroid_index,
    f_position,
    f_tf_isf,
    normalize_columns,
    thematic_words,
)

from oracles import (
    oracle_feature_matrix,
    oracle_minmax,
    per_column_minmax,
    per_record_feature_matrix,
)

CONFIG = FeatureConfig()
ORACLE_FILE = Path(__file__).parent / "data" / "feature_oracle.json"


def make_sentence(words, doc_index=0, para_index=0, pos_in_para=0,
                  first=True, last=True, stopwords=(), proper=(), numerals=()):
    """Hand-built sentence; stems equal the lowercased words."""
    tokens = tuple(
        Token(
            surface=w,
            stem=w.lower(),
            is_name=w in proper,
            is_stopword=w.lower() in stopwords,
            is_numeral=w in numerals,
        )
        for w in words
    )
    return Sentence(
        doc_index=doc_index,
        para_index=para_index,
        pos_in_para=pos_in_para,
        is_para_first=first,
        is_para_last=last,
        tokens=tokens,
        original_text=" ".join(words),
    )


def make_doc(sentence_word_lists, **kwargs):
    sentences = tuple(
        make_sentence(words, doc_index=i, **kwargs)
        for i, words in enumerate(sentence_word_lists)
    )
    return ProcessedDocument(sentences=sentences, paragraph_count=1)


def stem_counts(doc):
    """Each non-stopword stem's count in ``doc``."""
    return Counter(stem for s in doc.sentences for stem in s.content_stems())


def feature(name, doc, config=CONFIG):
    """One column of ``doc``'s feature matrix, one value per sentence."""
    return build_feature_matrix(doc, config).values[:, FEATURE_NAMES.index(name)]


def sentence_feature(name, words, **kwargs):
    """A feature of the one sentence of a document built from ``words``."""
    return feature(name, make_doc([words], **kwargs))[0]


def thematic_share(sentence, thematic):
    """The thematic feature of ``sentence`` in a document whose second
    sentence repeats each stem of ``thematic`` more often than
    ``sentence`` holds any stem, so that exactly those stems rank first."""
    above = max(Counter(sentence.content_stems()).values(), default=0) + 1
    filler = make_sentence([stem for stem in sorted(thematic) for _ in range(above)], doc_index=1)
    doc = ProcessedDocument(sentences=(sentence, filler), paragraph_count=1)
    return feature("thematic", doc, FeatureConfig(thematic_count=len(thematic)))[0]


def tf_isf(sentence, doc):
    return feature("tf_isf", doc)[sentence.doc_index]


class TestThematicWords:
    def test_top_frequency_word_included(self, article_doc):
        assert "market" in thematic_words(stem_counts(article_doc), CONFIG)

    def test_small_vocabulary_returns_all(self):
        doc = make_doc([["alpha", "beta"], ["gamma", "delta"]])
        assert thematic_words(stem_counts(doc), CONFIG) == {"alpha", "beta", "gamma", "delta"}

    def test_tie_breaks_lexicographically(self):
        doc = make_doc([[f"w{i:02d}" for i in range(9)] + ["aa"], ["zz"]])
        # eleven distinct stems, all count 1: the lexicographically
        # largest one must be the one dropped
        result = thematic_words(stem_counts(doc), CONFIG)
        assert len(result) == 10
        assert "zz" not in result
        assert "aa" in result

    @settings(max_examples=300, deadline=None)
    @given(
        vocabulary=st.dictionaries(
            st.text("abc", min_size=1, max_size=3), st.integers(1, 3), max_size=30
        ),
        count=st.integers(1, 15),
    )
    def test_equals_the_head_of_the_sorted_vocabulary(self, vocabulary, count):
        # few counts over many stems: most of the ranking is decided by ties
        ranked = sorted(vocabulary.items(), key=lambda kv: (-kv[1], kv[0]))
        assert thematic_words(vocabulary, FeatureConfig(thematic_count=count)) == {
            stem for stem, _ in ranked[:count]
        }


class TestThematicRatio:
    def test_two_of_ten(self):
        s = make_sentence([f"w{i}" for i in range(8)] + ["market", "trade"])
        assert thematic_share(s, frozenset({"market", "trade"})) == pytest.approx(0.2)

    def test_none(self):
        s = make_sentence(["plain", "words"])
        assert thematic_share(s, frozenset({"market"})) == 0.0

    def test_all(self):
        s = make_sentence(["a", "b", "c", "d", "e"])
        assert thematic_share(s, frozenset("abcde")) == 1.0

    def test_stopword_counts_only_in_denominator(self):
        s = make_sentence(["the", "market"], stopwords={"the"})
        assert thematic_share(s, frozenset({"the", "market"})) == pytest.approx(0.5)

    def test_adding_thematic_token_never_decreases(self):
        thematic = frozenset({"market"})
        for n_thematic in range(0, 6):
            words = ["market"] * n_thematic + ["x"] * (6 - n_thematic)
            s = make_sentence(words)
            s2 = make_sentence(["market"] * (n_thematic + 1) + ["x"] * (5 - n_thematic))
            assert thematic_share(s2, thematic) >= thematic_share(s, thematic)


class TestPositionFeature:
    def test_first_sentence(self):
        for n in (1, 2, 5, 100):
            assert f_position([0], n, CONFIG) == [1.0]

    def test_last_sentence(self):
        for n in (1, 2, 5, 100):
            assert f_position([n - 1], n, CONFIG) == [1.0]

    def test_middle_value_matches_direct_evaluation(self):
        # N=10, 0-based index 4: cos((5 - 2) * ((1/4) - 2))
        expected = math.cos((5 - 2) * ((1 / 4) - 2))
        assert f_position([4], 10, CONFIG)[0] == pytest.approx(expected, abs=1e-12)

    def test_range(self):
        for n in range(3, 40):
            assert all(-1.0 <= p <= 1.0 for p in f_position(range(n), n, CONFIG))


class TestLengthFeature:
    def test_below_threshold(self):
        assert sentence_feature("length", ["a", "b"]) == 0.0

    def test_at_threshold(self):
        assert sentence_feature("length", ["a", "b", "c"]) == 3.0

    def test_long(self):
        assert sentence_feature("length", ["w"] * 15) == 15.0

    def test_threshold_equivalence(self):
        for n in range(1, 10):
            value = sentence_feature("length", ["w"] * n)
            assert (value == 0.0) == (n < CONFIG.short_sentence_min_words)


class TestParagraphPosition:
    def test_first(self):
        assert sentence_feature("pos_in_para", ["x"], first=True, last=False) == 1.0

    def test_middle(self):
        assert sentence_feature("pos_in_para", ["x"], first=False, last=False) == 0.0

    def test_single_sentence_paragraph(self):
        assert sentence_feature("pos_in_para", ["x"], first=True, last=True) == 1.0


class TestCountFeatures:
    def test_proper_nouns(self):
        words = ["Ann", "Bob", "Cid"]
        assert sentence_feature("proper_nouns", words, proper=set(words)) == 3

    def test_no_proper_nouns(self):
        assert sentence_feature("proper_nouns", ["plain", "words"]) == 0

    def test_tagger_fixture_sentence(self):
        doc = preprocess(RawDocument("Delhi Technological University announced results."))
        assert feature("proper_nouns", doc)[0] == 3

    def test_numeral_ratio(self):
        doc = preprocess(RawDocument("rose 12 in 2016"))
        assert feature("numerals", doc)[0] == pytest.approx(0.5)

    def test_numeral_extremes(self):
        assert sentence_feature("numerals", ["cat", "dog"]) == 0.0
        assert sentence_feature("numerals", ["1", "2"], numerals={"1", "2"}) == 1.0

    def test_entity_counts(self):
        proper = {"Ann", "Bob"}
        assert sentence_feature("named_entities", ["Ann", "Bob", "cat"], proper=proper) == 1
        assert sentence_feature("named_entities", ["Ann", "cat", "Bob"], proper=proper) == 2
        assert sentence_feature("named_entities", ["cat", "dog"]) == 0

    def test_entity_runs_end_at_the_sentence_boundary(self):
        # the last token of one sentence and the first of the next are both
        # names, and each sentence counts its own run
        names = {"Ann", "Bob", "Cid", "Dan"}
        doc = make_doc([["cat", "Ann"], ["Bob", "dog"], ["Cid", "Dan"]], proper=names)
        assert list(feature("named_entities", doc)) == [1.0, 1.0, 1.0]
        assert list(feature("proper_nouns", doc)) == [1.0, 1.0, 2.0]


class TestTfIsf:
    def test_no_shared_stems(self):
        doc = make_doc([["aa", "bb"], ["cc", "dd"]])
        assert tf_isf(doc.sentences[0], doc) == 0.0

    def test_two_identical_sentences(self):
        doc = make_doc([["w1", "w2", "w3", "w4"], ["w1", "w2", "w3", "w4"]])
        expected = math.log(5) / 4
        for s in doc.sentences:
            assert tf_isf(s, doc) == pytest.approx(expected, abs=1e-12)

    def test_single_sentence_document(self):
        doc = make_doc([["only", "one", "here"]])
        assert tf_isf(doc.sentences[0], doc) == 0.0

    def test_identical_sentences_share_centroid_zero(self):
        doc = make_doc([["x", "y"]] * 5)
        values = [tf_isf(s, doc) for s in doc.sentences]
        assert len(set(values)) == 1
        assert centroid_index(values) == 0


def tf_isf_scores(doc):
    return list(feature("tf_isf", doc))


class TestCentroid:
    def test_single_sentence(self):
        assert centroid_index(tf_isf_scores(make_doc([["a"]]))) == 0

    def test_argmax(self):
        scores = tf_isf_scores(make_doc([["aa", "bb"], ["cc", "cc", "cc"], ["cc", "dd"]]))
        assert centroid_index(scores) == scores.index(max(scores))

    def test_tie_goes_to_lowest_index(self):
        assert centroid_index(tf_isf_scores(make_doc([["x", "y"], ["x", "y"]]))) == 0

    # in each document below, sentence 0 is the centroid: it has the
    # highest tf-isf score, or ties for it and comes first
    def test_self_similarity(self):
        doc = make_doc([["a", "b", "c"], ["a", "b", "c"]])
        assert list(feature("centroid_sim", doc)) == pytest.approx([1.0, 1.0])

    def test_disjoint_similarity(self):
        assert list(feature("centroid_sim", make_doc([["c"], ["a", "b"]]))) == [1.0, 0.0]

    def test_partial_overlap(self):
        doc = make_doc([["a"], ["a", "b"]])
        assert centroid_index(tf_isf_scores(doc)) == 0
        assert feature("centroid_sim", doc)[1] == pytest.approx(1 / math.sqrt(2))

    def test_empty_content_gives_zero(self):
        doc = make_doc([["a"], ["the"]], stopwords={"the"})
        assert list(feature("centroid_sim", doc)) == [1.0, 0.0]


class TestFeatureMatrix:
    def test_matches_frozen_oracle_table(self, article_doc):
        frozen = json.loads(ORACLE_FILE.read_text())
        matrix = build_feature_matrix(article_doc, CONFIG)
        np.testing.assert_allclose(matrix.values, np.array(frozen), atol=1e-9)

    def test_matches_live_oracle_recomputation(self, article_doc):
        matrix = build_feature_matrix(article_doc, CONFIG)
        oracle = np.array(oracle_feature_matrix(article_doc))
        np.testing.assert_allclose(matrix.values, oracle, atol=1e-9)

    def test_shape_and_flag(self, article_doc):
        matrix = build_feature_matrix(article_doc, CONFIG)
        assert matrix.values.shape == (6, len(FEATURE_NAMES))
        assert not matrix.normalized

    def test_single_sentence_document(self):
        doc = preprocess(RawDocument("A single sentence about markets."))
        matrix = build_feature_matrix(doc, CONFIG)
        row = dict(zip(FEATURE_NAMES, matrix.values[0]))
        assert row["position"] == 1.0
        assert row["pos_in_para"] == 1.0
        assert row["tf_isf"] == 0.0

    def test_document_without_sentences_raises_the_preprocess_error(self):
        # preprocess never builds one; a hand-built one gets the same type
        doc = ProcessedDocument(sentences=(), paragraph_count=0)
        with pytest.raises(DegenerateDocument, match="no sentences"):
            build_feature_matrix(doc, CONFIG)

    def test_paragraph_swap_only_moves_position_column(self):
        para_a = "Alpha beta gamma delta. Alpha beta epsilon zeta."
        para_b = "Kappa lamda mu nu. Kappa lamda xi omicron."
        para_c = "Rho sigma tau upsilon. Rho sigma phi chi."
        para_d = "Psi omega alpha kappa. Psi omega rho beta."
        original = preprocess(RawDocument("\n\n".join([para_a, para_b, para_c, para_d])))
        swapped = preprocess(RawDocument("\n\n".join([para_a, para_c, para_b, para_d])))
        m1 = build_feature_matrix(original, CONFIG).values
        m2 = build_feature_matrix(swapped, CONFIG).values
        by_text_1 = {s.original_text: i for i, s in enumerate(original.sentences)}
        by_text_2 = {s.original_text: i for i, s in enumerate(swapped.sentences)}
        position_col = FEATURE_NAMES.index("position")
        for text, i in by_text_1.items():
            j = by_text_2[text]
            for col in range(len(FEATURE_NAMES)):
                if col == position_col:
                    continue
                assert m1[i, col] == pytest.approx(m2[j, col], abs=1e-12), (text, col)

    def test_raw_ranges(self, article_doc):
        matrix = build_feature_matrix(article_doc, CONFIG).values
        cols = {name: matrix[:, i] for i, name in enumerate(FEATURE_NAMES)}
        assert ((cols["thematic"] >= 0) & (cols["thematic"] <= 1)).all()
        assert ((cols["numerals"] >= 0) & (cols["numerals"] <= 1)).all()
        assert ((cols["centroid_sim"] >= 0) & (cols["centroid_sim"] <= 1)).all()
        assert ((cols["position"] >= -1) & (cols["position"] <= 1)).all()
        assert (cols["tf_isf"] >= 0).all()


class TestNormalizeColumns:
    def wrap(self, data):
        from rbmsumm.features import SentenceFeatureMatrix

        return SentenceFeatureMatrix(values=np.array(data, dtype=float))

    def test_min_max(self):
        out = normalize_columns(self.wrap([[0.0], [5.0], [10.0]]))
        np.testing.assert_allclose(out.values[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_becomes_half(self):
        out = normalize_columns(self.wrap([[7.0], [7.0], [7.0]]))
        np.testing.assert_allclose(out.values[:, 0], [0.5, 0.5, 0.5])

    def test_full_range_column_unchanged(self):
        out = normalize_columns(self.wrap([[0.0], [0.25], [1.0]]))
        np.testing.assert_allclose(out.values[:, 0], [0.0, 0.25, 1.0])

    def test_normalizing_twice_rejected(self):
        with pytest.raises(ValueError):
            normalize_columns(normalize_columns(self.wrap([[0.0], [1.0]])))

    def test_all_entries_in_unit_interval(self, article_doc):
        matrix = normalize_columns(build_feature_matrix(article_doc, CONFIG))
        assert matrix.normalized
        assert (matrix.values >= 0.0).all() and (matrix.values <= 1.0).all()

    def test_matches_oracle_minmax(self, article_doc):
        ours = normalize_columns(build_feature_matrix(article_doc, CONFIG)).values
        oracle = np.array(oracle_minmax(oracle_feature_matrix(article_doc)))
        np.testing.assert_allclose(ours, oracle, atol=1e-12)


_STOP_WORDS = ["the", "of", "and", "a", "in"]
_WORDS = st.sampled_from(
    _STOP_WORDS
    + ["Alice", "Delhi", "Paris", "Reuters"]
    + ["12", "2016", "3.5", "1,200", "1st"]
    + ["market", "markets", "marketing", "trade", "trading", "traders", "price", "rose"]
)
# a sentence of stop words alone has tokens but no content stems
_SENTENCES = st.one_of(
    st.lists(_WORDS, min_size=1, max_size=12),
    st.lists(st.sampled_from(_STOP_WORDS), min_size=1, max_size=4),
)


def _sentence_text(words):
    text = " ".join(words)
    return text[:1].upper() + text[1:] + "."


@st.composite
def _documents(draw):
    paragraphs = draw(
        st.lists(st.lists(_SENTENCES, min_size=1, max_size=5), min_size=1, max_size=4)
    )
    text = "\n\n".join(" ".join(map(_sentence_text, para)) for para in paragraphs)
    return preprocess(RawDocument(text))


_FEATURE_CONFIGS = st.builds(
    FeatureConfig,
    thematic_count=st.integers(1, 15),
    th_fraction=st.floats(sys.float_info.min, 0.5, exclude_max=True),
    short_sentence_min_words=st.integers(1, 8),
)


class TestOnePassMatchesPerRecordStage:
    @settings(max_examples=300, deadline=None)
    @given(doc=_documents(), config=_FEATURE_CONFIGS)
    def test_matrices_are_bit_equal(self, doc, config):
        expected = per_record_feature_matrix(doc, config)
        raw = build_feature_matrix(doc, config)
        assert raw.values.tobytes() == expected.tobytes()
        normalized = normalize_columns(raw)
        assert normalized.values.tobytes() == per_column_minmax(expected).tobytes()


def python_int_tf_isf(doc):
    """Each sentence's tf-isf from a total summed in Python ints."""
    in_doc = stem_counts(doc)
    scores = []
    for sentence in doc.sentences:
        counts = Counter(sentence.content_stems())
        total = sum(tf * tf * (in_doc[stem] - tf) for stem, tf in counts.items())
        scores.append(math.log1p(total) / len(sentence.tokens))
    return scores


def repeated_tokens(copies):
    """One sentence per dict of ``copies``, holding each word that many
    times as one shared token whose stem is the word."""
    sentences = tuple(
        dataclasses.replace(
            make_sentence([], doc_index=i),
            tokens=tuple(t for w, k in words.items() for t in (Token(surface=w, stem=w),) * k),
        )
        for i, words in enumerate(copies)
    )
    return ProcessedDocument(sentences=sentences, paragraph_count=1)


class TestWholeDocumentSums:
    """Documents at the edges of the array build's integer sums.  A real
    document needs about 1.66 million content tokens before its sums can
    take Python ints, so the tests lower ``_INT64_LIMIT`` to reach them."""

    @pytest.mark.parametrize(
        "counts",
        [
            # one dict per sentence: word -> copies.  2**18 * 2**18 *
            # (2**17 + 1) is a real int64 total past 2**53, from about 0.4
            # million tokens; the last document adds 3 * 3 * 3 to it, and
            # no double holds that odd total
            ({"x": 2**18}, {"x": 2**17 + 1}),
            ({"x": 2, "w": 1}, {"y": 2}, {"x": 1, "y": 1, "z": 1}, {"w": 1}),
            ({"x": 2**18, "y": 3}, {"y": 2}, {"x": 2**17 + 1, "y": 1}),
        ],
    )
    def test_totals_past_float_and_int64_precision(self, counts, monkeypatch):
        """int64 sums, and Python-int sums past a lowered int64 limit,
        give the bytes of totals summed in Python ints."""
        doc = repeated_tokens(counts)
        expected = python_int_tf_isf(doc)
        assert any(s > 0 for s in expected)
        column = FEATURE_NAMES.index("tf_isf")
        int64_sums = build_feature_matrix(doc, CONFIG).values
        monkeypatch.setattr(rbmsumm.features, "_INT64_LIMIT", 0)
        python_int_sums = build_feature_matrix(doc, CONFIG).values
        for values in (int64_sums, python_int_sums):
            assert values[:, column].tolist() == expected
            sim = values[:, FEATURE_NAMES.index("centroid_sim")]
            assert sim[centroid_index(expected)] == pytest.approx(1.0)
        assert python_int_sums.tobytes() == int64_sums.tobytes()

    @pytest.mark.parametrize(
        "limit",
        [
            21,  # the bound 2 * 2 * (3 + 2) is 20: int64 sums
            20,  # the bound reaches the limit: Python-int sums
            0,
        ],
    )
    def test_sums_either_side_of_a_lowered_int64_limit(self, limit, monkeypatch):
        doc = make_doc([["x", "x"], ["x"]])
        monkeypatch.setattr(rbmsumm.features, "_INT64_LIMIT", limit)
        values = build_feature_matrix(doc, CONFIG).values
        assert values[:, FEATURE_NAMES.index("tf_isf")].tolist() == python_int_tf_isf(doc)
        assert python_int_tf_isf(doc) == [math.log1p(2 * 2 * 1) / 2, math.log1p(1 * 1 * 2)]
        assert values.tobytes() == per_record_feature_matrix(doc, CONFIG).tobytes()

    def test_a_real_total_of_2_to_the_63_is_summed_in_python_ints(self):
        """Two sentences of 2**21 copies of one token, about 4.2 million
        content tokens: each sentence's real total is tf * tf * (OCC - tf)
        = 2**63, one past the int64 range, where int64 sums would wrap."""
        doc = repeated_tokens(({"x": 2**21}, {"x": 2**21}))
        values = build_feature_matrix(doc, CONFIG).values
        assert values[:, FEATURE_NAMES.index("tf_isf")].tolist() == [math.log1p(2**63) / 2**21] * 2

    def test_sentence_without_content_stems(self):
        doc = make_doc([["the", "cat"], ["the", "of"], ["cat", "sat"]], stopwords={"the", "of"})
        values = build_feature_matrix(doc, CONFIG).values
        assert values.tobytes() == per_record_feature_matrix(doc, CONFIG).tobytes()
        row = dict(zip(FEATURE_NAMES, values[1]))
        assert row["thematic"] == row["tf_isf"] == row["centroid_sim"] == 0.0

    def test_every_sentence_stop_words_only(self):
        doc = make_doc([["the"], ["of", "the"], ["a"]], stopwords={"the", "of", "a"})
        assert stem_counts(doc) == {}
        values = build_feature_matrix(doc, CONFIG).values
        assert values.tobytes() == per_record_feature_matrix(doc, CONFIG).tobytes()
        for name in ("thematic", "tf_isf", "centroid_sim"):
            assert not values[:, FEATURE_NAMES.index(name)].any()


class TestTfIsfFunction:
    def test_log1p_per_token(self):
        assert f_tf_isf(0, 3) == 0.0
        assert f_tf_isf(4, 4) == math.log1p(4) / 4
        assert f_tf_isf(2**64, 2) == math.log1p(2**64) / 2

    def test_total_at_minus_one_is_a_domain_error(self):
        with pytest.raises(ValueError, match="math domain error"):
            f_tf_isf(-1, 2)


class TestFeatureConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FeatureConfig(thematic_count=0)
        with pytest.raises(ValueError):
            FeatureConfig(th_fraction=0.5)
        # 1 / (2 * th_fraction * N) overflows below the smallest normal float
        for tiny in (0.0, 5e-324, 1e-310, sys.float_info.min / 2):
            with pytest.raises(ValueError, match="th_fraction"):
                FeatureConfig(th_fraction=tiny)
        assert FeatureConfig(th_fraction=sys.float_info.min).th_fraction > 0
        with pytest.raises(ValueError):
            FeatureConfig(short_sentence_min_words=0)
