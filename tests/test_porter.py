import string
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmsumm import porter
from rbmsumm.porter import porter_stem
from rbmsumm.preprocess import tokenize

from oracles import (
    oracle_ends_cvc,
    oracle_ends_double_consonant,
    oracle_has_vowel,
    oracle_is_consonant,
    oracle_measure,
    oracle_porter_stem,
)

PAIRS_FILE = Path(__file__).parent / "data" / "porter_pairs.txt"


def load_pairs():
    pairs = []
    for line in PAIRS_FILE.read_text("utf-8").splitlines():
        word, stem = line.split()
        pairs.append((word, stem))
    return pairs


def test_fixture_has_at_least_100_pairs():
    assert len(load_pairs()) >= 100


@pytest.mark.parametrize("word,expected", load_pairs())
def test_reference_pairs(word, expected):
    assert porter_stem(word) == expected


@pytest.mark.parametrize(
    "word,expected",
    [
        ("caresses", "caress"),
        ("sky", "sky"),
        ("relational", "relat"),
        ("ponies", "poni"),
        ("hopping", "hop"),
        ("happy", "happi"),
        ("feed", "feed"),
        ("agreed", "agre"),
        ("controlling", "control"),
        ("electricity", "electr"),
        # canonical but not idempotent, so kept out of the pair fixture
        ("callousness", "callous"),
        ("decisiveness", "decis"),
        ("defensible", "defens"),
        ("universities", "univers"),
        # every letter outside a-z is a consonant
        ("façades", "façad"),
        ("señoring", "señor"),
        ("ŝoŝing", "ŝoŝe"),
    ],
)
def test_step_coverage_spot_checks(word, expected):
    assert porter_stem(word) == expected
    assert oracle_porter_stem(word) == expected


def test_short_words_pass_through():
    for word in ("a", "as", "be", "is", "on", "it"):
        assert porter_stem(word) == word


def test_idempotent_on_fixture_words():
    for word, _ in load_pairs():
        once = porter_stem(word)
        assert porter_stem(once) == once


# ---------------------------------------------------------------------
# Suffix dispatch on the last two letters against the in-order scan
# ---------------------------------------------------------------------

DATA_DIR = Path(__file__).parent / "data"
TABLES = (
    (porter._STEP2, porter._STEP2_BY_END, lambda entry: entry[0]),
    (porter._STEP3, porter._STEP3_BY_END, lambda entry: entry[0]),
    (porter._STEP4, porter._STEP4_BY_END, lambda entry: entry),
)
SUFFIXES = sorted({suffix(entry) for table, _, suffix in TABLES for entry in table})


def _data_words() -> list[str]:
    """Every distinct alphabetic word, lowered, of every file in tests/data."""
    words = set()
    for path in sorted(DATA_DIR.rglob("*")):
        if path.is_file():
            for raw in path.read_text("utf-8").split():
                lowered = raw.lower()
                words.update(w for w in (lowered, *tokenize(lowered)) if w.isalpha())
    return sorted(words)


DATA_WORDS = _data_words()


@pytest.mark.parametrize("table,groups,suffix", TABLES)
def test_groups_partition_each_table_in_order(table, groups, suffix):
    assert all(len(suffix(entry)) >= 2 for entry in table)
    assert sorted(groups) == sorted({suffix(entry)[-2:] for entry in table})
    for end, entries in groups.items():
        assert entries == tuple(e for e in table if suffix(e)[-2:] == end)


def test_no_step4_suffix_after_ion_ends_in_on():
    later = porter._STEP4[porter._STEP4.index("ion") + 1:]
    assert not [suffix for suffix in later if suffix.endswith("on")]


def test_every_data_word_stems_as_the_in_order_scan():
    assert len(DATA_WORDS) > 1000
    assert [porter_stem(w) for w in DATA_WORDS] == [oracle_porter_stem(w) for w in DATA_WORDS]


# lowercase letters outside a-z, which ``str.isalpha`` lets through to
# the stemmer; ý and ÿ are consonants, not the y of the y-rule
NON_ASCII = "àáâäæçèéêëìíîïñòóôöøùúûüýÿßŝœαβγжяк"
LETTERS = string.ascii_lowercase + NON_ASCII
ENDINGS = ("", "s", "es", "ies", "sses", "ed", "eed", "ing", "ly", "e", "y", "li", "l", "ll")
# an initial y, runs of y, y after a vowel and after a consonant
Y_HEAVY = st.lists(
    st.sampled_from(("y", "yy", "yyy", "a", "e", "o", "b", "r", "t", "s", "ç", "ñ")),
    min_size=1,
    max_size=6,
).map("".join)
WORDS = st.one_of(
    st.tuples(
        st.text(alphabet=LETTERS, max_size=8),
        st.sampled_from(SUFFIXES),
        st.sampled_from(ENDINGS),
    ).map("".join),
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=14),
    st.text(alphabet=LETTERS, min_size=1, max_size=14),
    st.tuples(Y_HEAVY, st.sampled_from(ENDINGS)).map("".join),
)
# the same words and their stems, down to the empty stem
STEMS = st.one_of(
    Y_HEAVY,
    WORDS.flatmap(lambda word: st.integers(0, len(word)).map(lambda cut: word[:cut])),
)
Y_WORDS = [
    "y", "yy", "yyy", "yyyy", "yay", "yeyy", "ayyy", "tryy", "boyyy", "sayyed", "yyying",
    "eyyyeyy",
]


@settings(max_examples=2000, deadline=None)
@given(WORDS)
def test_dispatch_matches_the_in_order_scan(word):
    assert porter_stem(word) == oracle_porter_stem(word)


def _assert_helpers_match(stem):
    assert porter._pattern(stem) == "".join(
        "c" if oracle_is_consonant(stem, i) else "v" for i in range(len(stem))
    )
    assert porter._measure(stem) == oracle_measure(stem)
    assert porter._has_vowel(stem) == oracle_has_vowel(stem)
    assert porter._ends_double_consonant(stem) == oracle_ends_double_consonant(stem)
    assert porter._ends_cvc(stem) == oracle_ends_cvc(stem)


@pytest.mark.parametrize("word", Y_WORDS)
def test_y_runs_stem_as_the_letter_by_letter_form(word):
    for cut in range(len(word) + 1):
        _assert_helpers_match(word[:cut])
    assert porter_stem(word) == oracle_porter_stem(word)


@settings(max_examples=1000, deadline=None)
@given(STEMS)
def test_pattern_helpers_match_the_letter_by_letter_forms(stem):
    _assert_helpers_match(stem)


# ---------------------------------------------------------------------
# The gates in porter_stem: each step changes only the words it is run on
# ---------------------------------------------------------------------


def test_gate_set_is_the_union_of_the_table_keys():
    keys = set(porter._STEP2_BY_END) | set(porter._STEP3_BY_END) | set(porter._STEP4_BY_END)
    assert porter._TABLE_ENDS == keys


def _assert_gated_steps_keep(word):
    if word[-1:] != "s":
        assert porter._step1a(word) == word
    # every suffix that step 1b strips ends in d or g
    if word[-1:] not in ("d", "g"):
        assert porter._step1b(word) == word
    if word[-1:] != "y":
        assert porter._step1c(word) == word
    if word[-2:] not in porter._TABLE_ENDS:
        assert porter._apply_table(word, porter._STEP2_BY_END) == word
        assert porter._apply_table(word, porter._STEP3_BY_END) == word
        assert porter._step4(word) == word
    if word[-1:] not in ("e", "l"):
        assert porter._step5(word) == word


def test_gated_steps_keep_every_data_word_they_skip():
    for word in DATA_WORDS:
        _assert_gated_steps_keep(word)


@settings(max_examples=1000, deadline=None)
@given(STEMS)
def test_gated_steps_keep_every_word_they_skip(word):
    _assert_gated_steps_keep(word)
