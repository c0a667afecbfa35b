"""Seeded generator of the benchmark's input documents.

Everything the program later reads is made here from the workload seed
alone, together with the facts the checks compare against: per document
the sentence count, the paragraph count, the tokens of each sentence and
the reference extract.  The generator imports nothing from the program.

Text properties (rates measured on the bundled six-document corpus,
where sentences hold 12.7 tokens on average, 27% stop words, 15% proper
nouns in 0.9 runs per sentence, and 58% of sentences carry a numeral):

* every sentence is distinct, ends in ``.``, and the next one starts
  with a capital letter;
* the word before each ``.`` is a generated content word or a numeral,
  never an abbreviation the splitter knows;
* content words are Zipf-distributed pseudo-words with English suffixes,
  so Porter stemming does real work and the vocabulary keeps growing
  with length; documents of one workload share one vocabulary;
* numerals are unique within a document, and every sentence of a
  literal reference carries one, so each literal reference resolves to
  exactly one sentence.

Sizes come from fixed schedules that the seed only shuffles, so every
seed gives the same amount of work.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass

_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"
# function words, all in the program's stop-word list
_FUNCTION_WORDS = (
    "the", "of", "and", "to", "in", "a", "on", "for", "by", "with", "at",
    "from", "that", "was", "is", "their", "after", "more", "over", "its",
    "as", "were", "has", "had", "will", "but", "into", "than", "this",
    "which", "about", "could", "would", "before", "under", "through",
    "during", "most", "other", "some",
)
_OPENERS = ("The", "In", "A", "After", "During", "By", "At", "On", "For", "Some")
_SUFFIXES = ("", "s", "ed", "ing", "er", "ers", "ation", "ness", "ment", "ful")
_SUFFIX_WEIGHTS = (45, 20, 8, 8, 5, 3, 3, 2, 4, 2)
# Token counts per sentence: mean 12.9, range 4-27, like the bundled corpus.
_LENGTHS = (4, 5, 6, 7, 8, 8, 9, 9, 10, 10, 11, 11, 11, 12, 12, 12, 13, 13,
            13, 14, 14, 14, 15, 15, 16, 16, 17, 18, 19, 20, 21, 23, 25, 27)


@dataclass(frozen=True)
class GeneratedDocument:
    """One input document and the facts the checks compare against."""

    doc_id: str
    text: str
    sentences: tuple[str, ...]
    paragraph_count: int
    tokens: tuple[tuple[str, ...], ...]  # the tokens of each sentence
    reference: tuple[int, ...]  # ascending sentence indices
    literal_reference: bool  # the .ref file holds sentences, not indices

    @property
    def n_sentences(self) -> int:
        return len(self.sentences)

    def ref_lines(self) -> list[str]:
        if self.literal_reference:
            return [self.sentences[i] for i in self.reference]
        return [str(i) for i in self.reference]


class _Zipf:
    """Draws indices 0..n-1 with probability proportional to 1/(i+2)."""

    def __init__(self, n: int):
        self._cum = list(itertools.accumulate(1.0 / (i + 2) for i in range(n)))

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cum, rng.random() * self._cum[-1])


class _Vocabulary:
    def __init__(self, rng: random.Random, n_roots: int, n_names: int):
        self.roots = _distinct(n_roots, lambda: _root(rng, rng.choice((2, 2, 3))))
        self.names = _distinct(
            n_names, lambda: _root(rng, 2).capitalize() + rng.choice(("", "a", "o"))
        )
        self._root_zipf = _Zipf(n_roots)
        self._name_zipf = _Zipf(n_names)

    def word(self, rng: random.Random) -> str:
        root = self.roots[self._root_zipf.draw(rng)]
        return root + rng.choices(_SUFFIXES, _SUFFIX_WEIGHTS)[0]

    def name(self, rng: random.Random) -> str:
        return self.names[self._name_zipf.draw(rng)]


def _root(rng: random.Random, syllables: int) -> str:
    return "".join(
        rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables)
    ) + rng.choice(_CONSONANTS)


def _distinct(n: int, make) -> list[str]:
    seen: set[str] = set()
    out = []
    while len(out) < n:
        item = make()
        if item.lower() not in seen:
            seen.add(item.lower())
            out.append(item)
    return out


def _numeral(rng: random.Random) -> str:
    kind = rng.random()
    if kind < 0.55:
        return str(rng.randrange(2, 10000))
    if kind < 0.75:
        return f"{rng.randrange(10, 1000)},{rng.randrange(1000):03d}"
    if kind < 0.9:
        return f"{rng.randrange(1, 100)}.{rng.randrange(1, 10)}"
    n = rng.randrange(2, 100)
    suffix = "th" if 10 <= n <= 20 else {1: "st", 2: "nd", 3: "rd"}.get(n % 10, "th")
    return f"{n}{suffix}"


class _DocumentWriter:
    def __init__(self, rng: random.Random, vocab: _Vocabulary):
        self.rng = rng
        self.vocab = vocab
        self.numerals: set[str] = set()

    def numeral(self) -> str:
        while True:
            value = _numeral(self.rng)
            if value not in self.numerals:
                self.numerals.add(value)
                return value

    def sentence(self, length: int, needs_numeral: bool) -> list[str]:
        """``length`` tokens: an opener, a shuffled middle and a content word."""
        rng = self.rng
        room = length - 2
        n_num = 0
        if needs_numeral or rng.random() < 0.58:
            n_num = min(room, 1 + (rng.random() < 0.6) + (length > 12 and rng.random() < 0.6))
        items: list[list[str]] = [[self.numeral()] for _ in range(n_num)]
        room -= n_num
        while room >= 2 and rng.random() < 0.42:
            run = min(room - 1, rng.choice((1, 1, 2, 2, 3)))
            items.append([self.vocab.name(rng) for _ in range(run)])
            room -= run
        n_function = min(room, round(0.25 * length))
        items += [[rng.choice(_FUNCTION_WORDS)] for _ in range(n_function)]
        items += [[self.vocab.word(rng)] for _ in range(room - n_function)]
        rng.shuffle(items)
        if rng.random() < 0.46:
            opener = rng.choice(_OPENERS)
        else:
            opener = self.vocab.word(rng).capitalize()
        words = [opener] + [w for item in items for w in item] + [self.vocab.word(rng)]
        if length > 9 and rng.random() < 0.3:
            words[rng.randrange(2, length - 2)] += ","
        return words


def _document(
    rng: random.Random,
    vocab: _Vocabulary,
    doc_id: str,
    n_sentences: int,
    literal_reference: bool,
    lengths: itertools.cycle,
) -> GeneratedDocument:
    writer = _DocumentWriter(rng, vocab)
    k = max(1, round(0.3 * n_sentences))
    # lead-biased reference: the first sentence and earlier ones more often
    rest = sorted(range(1, n_sentences), key=lambda i: rng.random() * math.sqrt(i))
    reference = tuple(sorted([0] + rest[: k - 1]))
    in_ref = set(reference)
    lengths = [next(lengths) for _ in range(n_sentences)]
    rng.shuffle(lengths)
    sentences: list[str] = []
    tokens: list[tuple[str, ...]] = []
    seen: set[str] = set()
    for i, length in enumerate(lengths):
        while True:
            words = writer.sentence(length, literal_reference and i in in_ref)
            text = " ".join(words) + "."
            if text not in seen:
                break
        seen.add(text)
        sentences.append(text)
        tokens.append(tuple(w.rstrip(",") for w in words))
    paragraphs: list[str] = []
    start = 0
    while start < n_sentences:
        size = min(rng.choice((3, 4, 4, 5)), n_sentences - start)
        paragraphs.append(" ".join(sentences[start : start + size]))
        start += size
    return GeneratedDocument(
        doc_id=doc_id,
        text="\n\n".join(paragraphs) + "\n",
        sentences=tuple(sentences),
        paragraph_count=len(paragraphs),
        tokens=tuple(tokens),
        reference=reference,
        literal_reference=literal_reference,
    )


def long_report(seed: int) -> list[GeneratedDocument]:
    """One report of 2000 distinct sentences."""
    rng = random.Random(f"long_report:{seed}")
    vocab = _Vocabulary(rng, n_roots=9000, n_names=1500)
    lengths = itertools.cycle(_LENGTHS)
    return [_document(rng, vocab, "report", 2000, False, lengths)]


def news_corpus(seed: int) -> list[GeneratedDocument]:
    """300 short articles of 10 to 40 sentences over one shared vocabulary."""
    rng = random.Random(f"news_corpus:{seed}")
    vocab = _Vocabulary(rng, n_roots=6000, n_names=1200)
    sizes = [10 + (i * 7) % 31 for i in range(300)]
    rng.shuffle(sizes)
    lengths = itertools.cycle(_LENGTHS)
    return [
        _document(rng, vocab, f"news{i:03d}", n, False, lengths)
        for i, n in enumerate(sizes)
    ]


def compare_corpus(seed: int) -> list[GeneratedDocument]:
    """Six documents of 100 to 300 sentences; half the references literal."""
    rng = random.Random(f"compare_corpus:{seed}")
    vocab = _Vocabulary(rng, n_roots=6000, n_names=1200)
    sizes = [100, 140, 180, 220, 260, 300]
    rng.shuffle(sizes)
    lengths = itertools.cycle(_LENGTHS)
    return [
        _document(rng, vocab, f"doc{i}", n, i % 2 == 1, lengths)
        for i, n in enumerate(sizes)
    ]


WORKLOADS = {
    "long_report": long_report,
    "news_corpus": news_corpus,
    "compare_corpus": compare_corpus,
}
