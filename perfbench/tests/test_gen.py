"""The generator: seeded, and the text has the properties the checks rely on."""

import re
from pathlib import Path

import pytest

import gen
from rbmsumm import RawDocument, preprocess

ABBREVIATIONS = {
    line.strip()
    for line in (
        Path(__file__).resolve().parents[2] / "src" / "rbmsumm" / "assets" / "abbreviations.txt"
    ).read_text("utf-8").splitlines()
    if line.strip() and not line.startswith("#")
}


@pytest.fixture(scope="module", params=sorted(gen.WORKLOADS))
def workload(request):
    return request.param


def test_same_seed_same_inputs(workload):
    make = gen.WORKLOADS[workload]
    assert make(7) == make(7)


def test_other_seed_other_inputs(workload):
    make = gen.WORKLOADS[workload]
    a, b = make(7), make(8)
    assert [d.text for d in a] != [d.text for d in b]
    # the seed shuffles fixed size schedules, so the work stays the same
    assert sum(d.n_sentences for d in a) == sum(d.n_sentences for d in b)
    assert sum(map(len, (t for d in a for t in d.tokens))) == sum(
        map(len, (t for d in b for t in d.tokens))
    )


def test_sizes():
    (report,) = gen.long_report(3)
    assert report.n_sentences == 2000
    news = gen.news_corpus(3)
    assert len(news) == 300 and all(10 <= d.n_sentences <= 40 for d in news)
    compare = gen.compare_corpus(3)
    assert all(100 <= d.n_sentences <= 300 for d in compare)
    assert {d.literal_reference for d in compare} == {True, False}


def test_text_properties(workload):
    for doc in gen.WORKLOADS[workload](11)[:20]:
        assert len(set(doc.sentences)) == doc.n_sentences
        paragraphs = doc.text.strip().split("\n\n")
        assert len(paragraphs) == doc.paragraph_count
        assert " ".join(paragraphs) == " ".join(doc.sentences)
        for sentence, tokens in zip(doc.sentences, doc.tokens):
            assert sentence.endswith(".") and sentence[0].isupper()
            assert not re.search(r"[.!?]\s", sentence)
            assert sentence.split()[-1].lower() not in ABBREVIATIONS
            assert tuple(w.strip(",.") for w in sentence.split()) == tokens
        numerals = [t for tokens in doc.tokens for t in tokens if t[0].isdigit()]
        assert len(numerals) == len(set(numerals))
        assert doc.reference[0] == 0 and list(doc.reference) == sorted(set(doc.reference))
        if doc.literal_reference:
            for i in doc.reference:
                assert any(t[0].isdigit() for t in doc.tokens[i])


def test_program_sees_the_generated_structure():
    for doc in gen.compare_corpus(5)[:2] + gen.news_corpus(5)[:5]:
        processed = preprocess(RawDocument(doc.text))
        assert processed.n_sentences == doc.n_sentences
        assert processed.paragraph_count == doc.paragraph_count
        assert [s.original_text for s in processed.sentences] == list(doc.sentences)
        assert [tuple(t.surface for t in s.tokens) for s in processed.sentences] == list(
            doc.tokens
        )
