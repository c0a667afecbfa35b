import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmsumm import FeatureConfig, RawDocument, preprocess
from rbmsumm.document import PosTag, ProcessedDocument, Sentence, Token
from rbmsumm.features import (
    FEATURE_NAMES,
    build_feature_matrix,
    centroid_index,
    f_centroid_sim,
    f_length,
    f_named_entities,
    f_numerals,
    f_pos_in_para,
    f_position,
    f_proper_nouns,
    f_tf_isf,
    f_thematic,
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
            tag=PosTag.PROPER_NOUN if w in proper else PosTag.OTHER,
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
    vocab = {}
    for s in sentences:
        for t in s.tokens:
            if not t.is_stopword:
                vocab[t.stem] = vocab.get(t.stem, 0) + 1
    return ProcessedDocument(sentences=sentences, paragraph_count=1, vocabulary=vocab)


def counts(sentence):
    """The content-stem counts that the stem-count features take."""
    return Counter(sentence.content_stems())


def thematic_share(sentence, thematic):
    return f_thematic(counts(sentence), len(sentence), thematic)


def tf_isf(sentence, doc):
    return f_tf_isf(counts(sentence), len(sentence), doc.vocabulary)


def centroid_sim(sentence, centroid):
    c = counts(centroid)
    return f_centroid_sim(counts(sentence), c, math.sqrt(sum(v * v for v in c.values())))


class TestThematicWords:
    def test_top_frequency_word_included(self, article_doc):
        assert "market" in thematic_words(article_doc, CONFIG)

    def test_small_vocabulary_returns_all(self):
        doc = make_doc([["alpha", "beta"], ["gamma", "delta"]])
        assert thematic_words(doc, CONFIG) == {"alpha", "beta", "gamma", "delta"}

    def test_tie_breaks_lexicographically(self):
        doc = make_doc([[f"w{i:02d}" for i in range(9)] + ["aa"], ["zz"]])
        # eleven distinct stems, all count 1: the lexicographically
        # largest one must be the one dropped
        result = thematic_words(doc, CONFIG)
        assert len(result) == 10
        assert "zz" not in result
        assert "aa" in result


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
            assert f_position(0, n, CONFIG) == 1.0

    def test_last_sentence(self):
        for n in (1, 2, 5, 100):
            assert f_position(n - 1, n, CONFIG) == 1.0

    def test_middle_value_matches_direct_evaluation(self):
        # N=10, 0-based index 4: cos((5 - 2) * ((1/4) - 2))
        expected = math.cos((5 - 2) * ((1 / 4) - 2))
        assert f_position(4, 10, CONFIG) == pytest.approx(expected, abs=1e-12)

    def test_range(self):
        for n in range(3, 40):
            for i in range(n):
                assert -1.0 <= f_position(i, n, CONFIG) <= 1.0


class TestLengthFeature:
    def test_below_threshold(self):
        assert f_length(make_sentence(["a", "b"]), CONFIG) == 0.0

    def test_at_threshold(self):
        assert f_length(make_sentence(["a", "b", "c"]), CONFIG) == 3.0

    def test_long(self):
        assert f_length(make_sentence(["w"] * 15), CONFIG) == 15.0

    def test_threshold_equivalence(self):
        for n in range(1, 10):
            value = f_length(make_sentence(["w"] * n), CONFIG)
            assert (value == 0.0) == (n < CONFIG.short_sentence_min_words)


class TestParagraphPosition:
    def test_first(self):
        assert f_pos_in_para(make_sentence(["x"], first=True, last=False)) == 1.0

    def test_middle(self):
        assert f_pos_in_para(make_sentence(["x"], first=False, last=False)) == 0.0

    def test_single_sentence_paragraph(self):
        assert f_pos_in_para(make_sentence(["x"], first=True, last=True)) == 1.0


class TestCountFeatures:
    def test_proper_nouns(self):
        s = make_sentence(["Ann", "Bob", "Cid"], proper={"Ann", "Bob", "Cid"})
        assert f_proper_nouns(s) == 3

    def test_no_proper_nouns(self):
        assert f_proper_nouns(make_sentence(["plain", "words"])) == 0

    def test_tagger_fixture_sentence(self):
        doc = preprocess(RawDocument("Delhi Technological University announced results."))
        assert f_proper_nouns(doc.sentences[0]) == 3

    def test_numeral_ratio(self):
        doc = preprocess(RawDocument("rose 12 in 2016"))
        assert f_numerals(doc.sentences[0]) == pytest.approx(0.5)

    def test_numeral_extremes(self):
        assert f_numerals(make_sentence(["cat", "dog"])) == 0.0
        assert f_numerals(make_sentence(["1", "2"], numerals={"1", "2"})) == 1.0

    def test_entity_counts(self):
        one_run = make_sentence(["Ann", "Bob", "cat"], proper={"Ann", "Bob"})
        two_runs = make_sentence(["Ann", "cat", "Bob"], proper={"Ann", "Bob"})
        none = make_sentence(["cat", "dog"])
        assert f_named_entities(one_run) == 1
        assert f_named_entities(two_runs) == 2
        assert f_named_entities(none) == 0


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
    return [tf_isf(s, doc) for s in doc.sentences]


class TestCentroid:
    def test_single_sentence(self):
        assert centroid_index(tf_isf_scores(make_doc([["a"]]))) == 0

    def test_argmax(self):
        scores = tf_isf_scores(make_doc([["aa", "bb"], ["cc", "cc", "cc"], ["cc", "dd"]]))
        assert centroid_index(scores) == scores.index(max(scores))

    def test_tie_goes_to_lowest_index(self):
        assert centroid_index(tf_isf_scores(make_doc([["x", "y"], ["x", "y"]]))) == 0

    def test_self_similarity(self):
        s = make_sentence(["a", "b", "c"])
        assert centroid_sim(s, s) == pytest.approx(1.0)

    def test_disjoint_similarity(self):
        assert centroid_sim(make_sentence(["a", "b"]), make_sentence(["c"])) == 0.0

    def test_partial_overlap(self):
        a = make_sentence(["a", "b"])
        centroid = make_sentence(["a"])
        assert centroid_sim(a, centroid) == pytest.approx(1 / math.sqrt(2))

    def test_empty_content_gives_zero(self):
        empty = make_sentence(["the"], stopwords={"the"})
        other = make_sentence(["a"])
        assert centroid_sim(empty, other) == 0.0


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
    th_fraction=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    short_sentence_min_words=st.integers(1, 8),
)


class TestOnePassMatchesPerRecordStage:
    @settings(max_examples=300, deadline=None)
    @given(doc=_documents(), config=_FEATURE_CONFIGS)
    def test_matrices_are_bit_equal(self, doc, config):
        try:
            expected = per_record_feature_matrix(doc, config)
        except ValueError:
            # a th_fraction so small that 1/high overflows gives a middle
            # sentence the cosine of an infinite angle
            with pytest.raises(ValueError):
                build_feature_matrix(doc, config)
            return
        raw = build_feature_matrix(doc, config)
        assert raw.values.tobytes() == expected.tobytes()
        normalized = normalize_columns(raw)
        assert normalized.values.tobytes() == per_column_minmax(expected).tobytes()


class TestFeatureConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FeatureConfig(thematic_count=0)
        with pytest.raises(ValueError):
            FeatureConfig(th_fraction=0.5)
        with pytest.raises(ValueError):
            FeatureConfig(short_sentence_min_words=0)
