import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rbmsumm
import rbmsumm.features
from rbmsumm import (
    DegenerateDocument,
    EmptyDocument,
    RawDocument,
    preprocess,
)
from rbmsumm.document import Sentence, Token
from rbmsumm.assets import _LEXICON_FILES, default_lexicons, load_lexicons, load_wordlist
from rbmsumm.features import FEATURE_NAMES, build_feature_matrix
from rbmsumm.preprocess import (
    _NUMERAL,
    build_tokens,
    is_numeral,
    make_token,
    segment_paragraphs,
    segment_sentences,
    tokenize,
)

from oracles import oracle_is_numeral, oracle_tokenize, oracle_tokens

LEX = default_lexicons()
ASSETS = Path(rbmsumm.__file__).parent / "assets"


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

    def test_trailing_whitespace_after_the_last_terminator(self):
        # the last boundary ends at the paragraph's end, where no next
        # character can be read
        assert segment_sentences("First one. Second one. ", LEX.abbreviations) == [
            "First one.",
            "Second one.",
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

    def test_edge_class_is_exactly_the_non_alphanumerics(self):
        """The fast path for words with alphanumeric ends rests on this."""
        edge = re.compile(r"[\W_]")
        differ = [
            hex(code)
            for code in range(sys.maxunicode + 1)
            if (edge.fullmatch(chr(code)) is None) != chr(code).isalnum()
        ]
        assert differ == []

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.text(max_size=8),
                st.text(alphabet="_-.,;'\"()[]!?$%", max_size=3),
                st.sampled_from((" ", "\t", "\n", "\u00a0", "\u3000")),
            ),
            max_size=12,
        ).map("".join)
    )
    def test_matches_the_regex_on_every_word(self, sentence):
        assert tokenize(sentence) == oracle_tokenize(sentence)


class TestNumeralRule:
    @pytest.mark.parametrize(
        "surface", ["12", "2016", "3.2", "1,234", "1,234.56", "1st", "2nd", "3rd", "44th"]
    )
    def test_numerals(self, surface):
        assert is_numeral(surface)

    @pytest.mark.parametrize("surface", ["a12", "12a", "3.2.1", "one", "1-2", ""])
    def test_non_numerals(self, surface):
        assert not is_numeral(surface)

    def test_decimal_gate_is_exactly_the_digit_class(self):
        """Both alternatives of the numeral regex start with ``\\d``, so
        the ``str.isdecimal()`` gate on the first character rests on this."""
        digit = re.compile(r"\d", _NUMERAL.flags)
        differ = [
            hex(code)
            for code in range(sys.maxunicode + 1)
            if (digit.fullmatch(chr(code)) is not None) != chr(code).isdecimal()
        ]
        assert differ == []

    @settings(max_examples=300, deadline=None)
    @given(st.from_regex(_NUMERAL, fullmatch=True))
    def test_every_numeral_starts_with_a_decimal(self, surface):
        assert surface[:1].isdecimal()
        assert is_numeral(surface)

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            st.text(alphabet="0123456789,.stndrhTS٣١１੭ a-", max_size=10),
            st.text(max_size=6),
        )
    )
    def test_matches_the_regex_on_every_surface(self, surface):
        assert is_numeral(surface) == oracle_is_numeral(surface)


class TestStopwordsAndStems:
    def test_flags_not_deletions(self):
        tokens = build_tokens(["the", "cat"], LEX)
        assert [t.is_stopword for t in tokens] == [True, False]
        assert len(tokens) == 2

    def test_capitalized_stopword_flagged(self):
        tokens = build_tokens(["Cat"], LEX)
        assert [t.is_stopword for t in tokens] == [False]

    def test_empty(self):
        assert build_tokens([], LEX) == []

    def test_stems_are_lowercase(self):
        for token in build_tokens(["Markets", "RALLIED", "Growing"], LEX):
            assert token.stem == token.stem.lower()


class TestPosTagger:
    """The name decision, the one part of a tagger the features read."""

    def names(self, words):
        return [t.is_name for t in build_tokens(words, LEX)]

    def test_sentence_initial_determiner(self):
        assert self.names(["The", "cat"])[0] is False

    def test_mid_sentence_capital_is_proper_noun(self):
        assert self.names(["visited", "Delhi"])[1] is True

    def test_digits_are_numerals(self):
        token = build_tokens(["120"], LEX)[0]
        assert token.is_name is False
        assert token.is_numeral

    def test_sentence_initial_unknown_capital_is_proper_noun(self):
        assert self.names(["Nairobi", "traders", "met"])[0] is True

    def test_sentence_initial_common_word_is_not_proper_noun(self):
        assert self.names(["Markets", "fell"])[0] is False

    def test_default_other(self):
        assert self.names(["zzgrobble"])[0] is False

    def test_every_token_gets_exactly_one_tag(self, article_doc):
        for sentence in article_doc.sentences:
            for token in sentence.tokens:
                assert type(token.is_name) is bool

    def test_stopwords_never_proper_nouns(self, article_doc):
        for sentence in article_doc.sentences:
            for token in sentence.tokens:
                if token.is_stopword:
                    assert not token.is_name


class TestEntityChunks:
    """Entity runs as the tagger marks them and the ``named_entities``
    feature counts them."""

    def chunk(self, words):
        doc = preprocess(RawDocument(" ".join(words)))
        names = [t.is_name for t in doc.sentences[0].tokens]
        runs = build_feature_matrix(doc).values[0, FEATURE_NAMES.index("named_entities")]
        return names, runs

    def test_one_maximal_run(self):
        assert self.chunk(["visited", "Morgan", "Stanley", "today"]) == (
            [False, True, True, False], 1
        )

    def test_no_proper_nouns(self):
        assert self.chunk(["cats", "sleep"]) == ([False, False], 0)

    def test_two_runs(self):
        assert self.chunk(["Paris", "hosted", "Lyon"]) == ([True, False, True], 2)


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

    def test_vocabulary_counts(self, article_doc, monkeypatch):
        """The document counts of the non-stopword stems, as the features
        derive them from the stem ids and rank them for the thematic words."""
        seen = []
        thematic_words = rbmsumm.features.thematic_words

        def spy(counts, config):
            seen.append(counts)
            return thematic_words(counts, config)

        monkeypatch.setattr(rbmsumm.features, "thematic_words", spy)
        build_feature_matrix(article_doc)
        [counts] = seen
        assert counts["market"] == 4
        assert counts["export"] == 2
        assert counts["point"] == 2
        assert "the" not in counts
        assert counts == Counter(
            stem for s in article_doc.sentences for stem in s.content_stems()
        )

    def test_preprocess_reads_no_content_stems(self, article_raw, monkeypatch):
        # each stem count is taken once, by the feature build
        calls = []
        content_stems = Sentence.content_stems

        def counting(sentence):
            calls.append(sentence)
            return content_stems(sentence)

        monkeypatch.setattr(Sentence, "content_stems", counting)
        assert preprocess(article_raw).n_sentences == 6
        assert calls == []

    def test_flag_consistency_invariant(self, article_doc):
        for s in article_doc.sentences:
            assert s.is_para_first == (s.pos_in_para == 0)
        for para in range(article_doc.paragraph_count):
            lasts = [
                s for s in article_doc.sentences
                if s.para_index == para and s.is_para_last
            ]
            assert len(lasts) == 1


# repeated words in and out of sentence-initial position, in several
# cases, with numerals, stop words and words the name lexicons list
WORDS = (
    "the", "The", "THE", "market", "Market", "markets", "Markets", "rallied",
    "Nairobi", "nairobi", "It", "it", "of", "Of", "and", "12", "1,234.5", "3rd",
    "2016", "don't", "state-of-the-art", "Running", "running", "caf\u00e9",
)
# every entry of every bundled word list
BUNDLED_ENTRIES = tuple(sorted(frozenset().union(*map(load_wordlist, ASSETS.glob("*.txt")))))


class TestOneTokenPerWord:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from(WORDS),
                    st.text(min_size=1, max_size=6),
                    st.sampled_from(BUNDLED_ENTRIES).flatmap(
                        lambda w: st.sampled_from((w, w.capitalize(), w.upper()))
                    ),
                ),
                st.sampled_from((" ", " ", ". ", "! ", ", ", "\n\n")),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_three_pass_builder(self, parts):
        text = "".join(word + sep for word, sep in parts)
        try:
            doc = preprocess(RawDocument(text))
        except (EmptyDocument, DegenerateDocument):
            return
        for sentence in doc.sentences:
            assert list(sentence.tokens) == oracle_tokens(tokenize(sentence.original_text))

    def test_repeated_words_share_one_token(self):
        doc = preprocess(RawDocument("Markets rose. Markets fell as Markets rose."))
        first, second = doc.sentences
        assert first.tokens[0] is second.tokens[0]
        assert first.tokens[1] is second.tokens[4]
        # the same surface away from the sentence start is its own token
        assert second.tokens[3] is not second.tokens[0]
        assert second.tokens[3] == oracle_tokens(["fell", "Markets"])[1]

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.sampled_from(WORDS + BUNDLED_ENTRIES),
            st.text(min_size=1, max_size=8),
        ),
        st.booleans(),
    )
    def test_make_token_equals_the_constructed_token(
        self, surface, sentence_initial
    ):
        token = make_token(surface, sentence_initial, LEX)
        constructed = Token(*(getattr(token, name) for name in Token._fields))
        expected = oracle_tokens(["Start", surface] if not sentence_initial else [surface])[-1]
        for other in (constructed, expected):
            assert token == other and other == token
            assert hash(token) == hash(other)
            assert repr(token) == repr(other)
        assert type(token) is Token
        with pytest.raises(AttributeError):
            token.stem = "x"


def is_name(word, lex, sentence_initial=False):
    return make_token(word.capitalize(), sentence_initial, lex).is_name


# per never-a-name file, an entry that no other word list blocks as a name
ONLY_IN = {
    "determiners.txt": "several",
    "prepositions.txt": "amid",
    "pronouns.txt": "everyone",
    "conjunctions.txt": "whereas",
    "common_verbs.txt": "bought",
}


class TestLexiconDir:
    def test_every_asset_file_is_read(self):
        read = {"stopwords.txt", "abbreviations.txt"}.union(*_LEXICON_FILES.values())
        assert {p.name for p in ASSETS.iterdir()} == read

    def test_missing_files_fall_back_to_bundled(self, tmp_path):
        lex = load_lexicons(lexicon_dir=tmp_path)
        for word in BUNDLED_ENTRIES:
            for sentence_initial in (True, False):
                assert is_name(word, lex, sentence_initial) == is_name(word, LEX, sentence_initial)

    @pytest.mark.parametrize("filename", sorted(ONLY_IN))
    def test_one_file_override_replaces_only_that_file(self, tmp_path, filename):
        (tmp_path / filename).write_text("# override\nzzgrobble\n")
        lex = load_lexicons(lexicon_dir=tmp_path)
        assert is_name("zzgrobble", LEX)
        assert not is_name("zzgrobble", lex)
        assert not is_name(ONLY_IN[filename], LEX)
        assert is_name(ONLY_IN[filename], lex)
        for other, word in ONLY_IN.items():
            if other != filename:
                assert not is_name(word, lex)

    def test_common_words_override_changes_only_sentence_start(self, tmp_path):
        (tmp_path / "common_words.txt").write_text("zzgrobble\n")
        lex = load_lexicons(lexicon_dir=tmp_path)
        assert not is_name("zzgrobble", lex, sentence_initial=True)
        assert not is_name("markets", LEX, sentence_initial=True)
        assert is_name("markets", lex, sentence_initial=True)
        for word in BUNDLED_ENTRIES + ("zzgrobble",):
            assert is_name(word, lex) == is_name(word, LEX)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(NotADirectoryError, match="no-such-dir"):
            load_lexicons(lexicon_dir=tmp_path / "no-such-dir")
