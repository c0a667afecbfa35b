import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmsumm import (
    DegenerateDocument,
    EmptyDocument,
    PosTag,
    RawDocument,
    preprocess,
)
from rbmsumm.assets import default_lexicons
from rbmsumm.preprocess import (
    build_tokens,
    chunk_named_entities,
    filter_stopwords,
    is_numeral,
    pos_tag,
    segment_paragraphs,
    segment_sentences,
    tokenize,
)

LEX = default_lexicons()


class TestSegmentParagraphs:
    def test_blank_line_split(self):
        assert segment_paragraphs(RawDocument("A.\n\nB.")) == ["A.", "B."]

    def test_single_block(self):
        assert segment_paragraphs(RawDocument("A.")) == ["A."]

    def test_whitespace_only_raises(self):
        with pytest.raises(EmptyDocument):
            segment_paragraphs(RawDocument("\n\n  \n"))

    def test_multiple_blank_lines_collapse(self):
        assert segment_paragraphs(RawDocument("A.\n\n\n\n\nB.")) == ["A.", "B."]


class TestSegmentSentences:
    def test_plain_split(self):
        assert segment_sentences("It runs. It works.", LEX.abbreviations) == [
            "It runs.",
            "It works.",
        ]

    def test_abbreviation_not_a_boundary(self):
        assert segment_sentences("Dr. Smith arrived.", LEX.abbreviations) == [
            "Dr. Smith arrived."
        ]

    def test_no_terminator_single_sentence(self):
        assert segment_sentences("No terminator here", LEX.abbreviations) == [
            "No terminator here"
        ]

    def test_lowercase_continuation_not_split(self):
        assert segment_sentences("It rose 3 pct. on Monday it fell.", LEX.abbreviations) == [
            "It rose 3 pct. on Monday it fell."
        ]

    def test_question_and_exclamation(self):
        assert segment_sentences("Really? Yes! Fine.", LEX.abbreviations) == [
            "Really?",
            "Yes!",
            "Fine.",
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        st.text(
            alphabet="aA B.!?\n",
            min_size=1,
            max_size=60,
        )
    )
    def test_partition_property(self, paragraph):
        paragraph = paragraph.strip()
        if not paragraph:
            return
        sentences = segment_sentences(paragraph, LEX.abbreviations)
        joined = "".join(sentences)
        assert [c for c in joined if not c.isspace()] == [
            c for c in paragraph if not c.isspace()
        ]


class TestTokenize:
    def test_strips_surrounding_punctuation(self):
        assert tokenize("rose 12% in 2016.") == ["rose", "12", "in", "2016"]

    def test_internal_hyphens_preserved(self):
        assert tokenize("state-of-the-art") == ["state-of-the-art"]

    def test_whitespace_only(self):
        assert tokenize("   ") == []

    def test_apostrophes_and_digit_groupings(self):
        assert tokenize("don't pay $1,234.50 (really).") == [
            "don't",
            "pay",
            "1,234.50",
            "really",
        ]

    def test_pure_punctuation_dropped(self):
        assert tokenize("-- ... !!!") == []


class TestNumeralRule:
    @pytest.mark.parametrize(
        "surface", ["12", "2016", "3.2", "1,234", "1,234.56", "1st", "2nd", "3rd", "44th"]
    )
    def test_numerals(self, surface):
        assert is_numeral(surface)

    @pytest.mark.parametrize("surface", ["a12", "12a", "3.2.1", "one", "1-2", ""])
    def test_non_numerals(self, surface):
        assert not is_numeral(surface)


class TestStopwordsAndStems:
    def test_flags_not_deletions(self):
        tokens = filter_stopwords(build_tokens(["the", "cat"]), LEX.stopwords)
        assert [t.is_stopword for t in tokens] == [True, False]
        assert len(tokens) == 2

    def test_capitalized_stopword_flagged(self):
        tokens = filter_stopwords(build_tokens(["Cat"]), LEX.stopwords)
        assert [t.is_stopword for t in tokens] == [False]

    def test_empty(self):
        assert filter_stopwords([], LEX.stopwords) == []

    def test_stems_are_lowercase(self):
        for token in build_tokens(["Markets", "RALLIED", "Growing"]):
            assert token.stem == token.stem.lower()


class TestPosTagger:
    def tag(self, words):
        tokens = filter_stopwords(build_tokens(words), LEX.stopwords)
        return [t.tag for t in pos_tag(tokens, LEX)]

    def test_sentence_initial_determiner(self):
        assert self.tag(["The", "cat"])[0] is PosTag.DETERMINER

    def test_mid_sentence_capital_is_proper_noun(self):
        assert self.tag(["visited", "Delhi"])[1] is PosTag.PROPER_NOUN

    def test_digits_are_numerals(self):
        assert self.tag(["120"])[0] is PosTag.NUMERAL

    def test_sentence_initial_unknown_capital_is_proper_noun(self):
        assert self.tag(["Nairobi", "traders", "met"])[0] is PosTag.PROPER_NOUN

    def test_sentence_initial_common_word_is_not_proper_noun(self):
        assert self.tag(["Markets", "fell"])[0] is not PosTag.PROPER_NOUN

    def test_default_noun(self):
        assert self.tag(["zzgrobble"])[0] is PosTag.NOUN

    def test_every_token_gets_exactly_one_tag(self, article_doc):
        for sentence in article_doc.sentences:
            for token in sentence.tokens:
                assert isinstance(token.tag, PosTag)

    def test_stopwords_never_proper_nouns(self, article_doc):
        for sentence in article_doc.sentences:
            for token in sentence.tokens:
                if token.is_stopword:
                    assert token.tag is not PosTag.PROPER_NOUN


class TestEntityChunks:
    def chunk(self, words):
        doc = preprocess(RawDocument(" ".join(words)))
        return chunk_named_entities(doc.sentences[0])

    def test_one_maximal_run(self):
        assert self.chunk(["visited", "Morgan", "Stanley", "today"]) == [(1, 2)]

    def test_no_proper_nouns(self):
        assert self.chunk(["cats", "sleep"]) == []

    def test_two_runs(self):
        assert self.chunk(["Paris", "hosted", "Lyon"]) == [(0, 1), (2, 1)]


class TestPreprocessPipeline:
    def test_fixture_structure(self, article_doc):
        assert article_doc.paragraph_count == 2
        assert article_doc.n_sentences == 6
        flags = [
            (s.para_index, s.pos_in_para, s.is_para_first, s.is_para_last)
            for s in article_doc.sentences
        ]
        assert flags == [
            (0, 0, True, False),
            (0, 1, False, False),
            (0, 2, False, True),
            (1, 0, True, False),
            (1, 1, False, False),
            (1, 2, False, True),
        ]

    def test_doc_indices_contiguous(self, article_doc):
        assert [s.doc_index for s in article_doc.sentences] == list(range(6))

    def test_single_sentence_document(self):
        doc = preprocess(RawDocument("One sentence only."))
        assert doc.n_sentences == 1
        s = doc.sentences[0]
        assert s.is_para_first and s.is_para_last

    def test_punctuation_only_sentence_dropped(self):
        doc = preprocess(RawDocument("Real words here. !!! More real words."))
        assert doc.n_sentences == 2
        assert [s.doc_index for s in doc.sentences] == [0, 1]

    def test_all_sentences_dropped_raises(self):
        with pytest.raises(DegenerateDocument):
            preprocess(RawDocument("!!! ???"))

    def test_empty_propagates(self):
        with pytest.raises(EmptyDocument):
            preprocess(RawDocument("   \n \n  "))

    def test_round_trip_covers_source_characters(self, article_raw, article_doc):
        kept = "".join(
            c for s in article_doc.sentences for c in s.original_text if not c.isspace()
        )
        source = "".join(c for c in article_raw.text if not c.isspace())
        assert kept == source

    def test_original_text_is_exact_substring(self, article_raw, article_doc):
        for s in article_doc.sentences:
            assert s.original_text in article_raw.text

    def test_deterministic(self, article_raw):
        assert preprocess(article_raw) == preprocess(article_raw)

    def test_vocabulary_counts(self, article_doc):
        assert article_doc.vocabulary["market"] == 4
        assert article_doc.vocabulary["export"] == 2
        assert article_doc.vocabulary["point"] == 2
        assert "the" not in article_doc.vocabulary

    def test_flag_consistency_invariant(self, article_doc):
        for s in article_doc.sentences:
            assert s.is_para_first == (s.pos_in_para == 0)
        for para in range(article_doc.paragraph_count):
            lasts = [
                s for s in article_doc.sentences
                if s.para_index == para and s.is_para_last
            ]
            assert len(lasts) == 1
