import string
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmsumm import porter
from rbmsumm.porter import porter_stem
from rbmsumm.preprocess import tokenize

from oracles import oracle_porter_stem

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
    ],
)
def test_step_coverage_spot_checks(word, expected):
    assert porter_stem(word) == expected


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


@settings(max_examples=2000, deadline=None)
@given(
    st.one_of(
        st.tuples(
            st.text(alphabet=string.ascii_lowercase, max_size=8),
            st.sampled_from(SUFFIXES),
            st.sampled_from(("", "s", "es", "ed", "ing", "ly", "e", "y", "li")),
        ).map("".join),
        st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=14),
    )
)
def test_dispatch_matches_the_in_order_scan(word):
    assert porter_stem(word) == oracle_porter_stem(word)
