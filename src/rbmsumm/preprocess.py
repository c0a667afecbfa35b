"""Text preprocessing: segmentation, tokenization, stemming, tagging.

The pipeline is deliberately rule-based and free of model downloads so
that identical input bytes always produce the identical structured
document, on any machine.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import replace

from .assets import Lexicons, default_lexicons
from .document import PosTag, ProcessedDocument, RawDocument, Sentence, Token
from .errors import DegenerateDocument, EmptyDocument
from .porter import porter_stem

_PARAGRAPH_BREAK = re.compile(r"\n\s*\n")
_SENTENCE_BOUNDARY = re.compile(r"([.!?]+)(\s+)")
_EDGE_PUNCT = re.compile(r"^[\W_]+|[\W_]+$", re.UNICODE)
# digits with optional comma groups and one decimal point, or an ordinal
_NUMERAL = re.compile(r"\d+(?:,\d+)*(?:\.\d+)?|\d+(?:st|nd|rd|th)", re.IGNORECASE)


def segment_paragraphs(raw: RawDocument) -> list[str]:
    """Split a document into paragraphs at runs of blank lines."""
    paragraphs = [p.strip() for p in _PARAGRAPH_BREAK.split(raw.text)]
    paragraphs = [p for p in paragraphs if p]
    if not paragraphs:
        raise EmptyDocument(f"document {raw.source_id!r} has no content")
    return paragraphs


def segment_sentences(paragraph: str, abbreviations: frozenset[str]) -> list[str]:
    """Split a paragraph into sentences at terminal punctuation.

    A split happens after a ``.``/``!``/``?`` run followed by whitespace
    when the next character is uppercase or a non-letter, unless the
    word carrying the punctuation is a known abbreviation.
    """
    sentences: list[str] = []
    start = 0
    for match in _SENTENCE_BOUNDARY.finditer(paragraph):
        follow = match.end()
        if follow >= len(paragraph):
            break
        if paragraph[follow].islower():
            continue
        preceding = paragraph[start:match.end(1)].rsplit(None, 1)
        last_word = preceding[-1] if preceding else ""
        if last_word.lower() in abbreviations:
            continue
        sentences.append(paragraph[start:match.end(1)])
        start = follow
    tail = paragraph[start:].rstrip()
    if tail:
        sentences.append(tail)
    return sentences


def tokenize(sentence: str) -> list[str]:
    """Whitespace-split and strip surrounding punctuation.

    Internal hyphens, apostrophes and digit groupings survive; tokens
    reduced to nothing are dropped.
    """
    tokens = []
    for raw in sentence.split():
        token = _EDGE_PUNCT.sub("", raw)
        if token:
            tokens.append(token)
    return tokens


def is_numeral(surface: str) -> bool:
    return _NUMERAL.fullmatch(surface) is not None


def build_tokens(surfaces: list[str]) -> list[Token]:
    """Attach stems and numeral flags; stop-word and tag passes follow."""
    tokens = []
    for surface in surfaces:
        lowered = surface.lower()
        stem = porter_stem(lowered) if lowered.isalpha() else lowered
        tokens.append(Token(surface=surface, stem=stem, is_numeral=is_numeral(surface)))
    return tokens


def filter_stopwords(tokens: list[Token], stopwords: frozenset[str]) -> list[Token]:
    """Flag stop words in place of deleting them, keeping positions intact."""
    return [replace(t, is_stopword=t.surface.lower() in stopwords) for t in tokens]


def _tag_one(token: Token, sentence_initial: bool, lex: Lexicons) -> PosTag:
    surface = token.surface
    lowered = surface.lower()
    if token.is_numeral:
        return PosTag.NUMERAL
    if lowered in lex.determiners:
        return PosTag.DETERMINER
    if lowered in lex.prepositions:
        return PosTag.PREPOSITION
    if lowered in lex.pronouns:
        return PosTag.PRONOUN
    if lowered in lex.conjunctions:
        return PosTag.CONJUNCTION
    if lowered in lex.common_verbs:
        return PosTag.VERB
    if surface[:1].isupper() and not token.is_stopword:
        if not sentence_initial or lowered not in lex.common_words:
            return PosTag.PROPER_NOUN
    return PosTag.NOUN


def pos_tag(tokens: list[Token], lex: Lexicons | None = None) -> list[Token]:
    """Deterministic rule/lexicon tagging; token 0 is sentence-initial."""
    lex = lex or default_lexicons()
    return [
        replace(t, tag=_tag_one(t, i == 0, lex)) for i, t in enumerate(tokens)
    ]


def chunk_named_entities(sentence: Sentence) -> list[tuple[int, int]]:
    """Maximal runs of proper-noun tokens as (start, length) spans."""
    spans = []
    run_start = None
    for i, token in enumerate(sentence.tokens):
        if token.tag is PosTag.PROPER_NOUN:
            if run_start is None:
                run_start = i
        elif run_start is not None:
            spans.append((run_start, i - run_start))
            run_start = None
    if run_start is not None:
        spans.append((run_start, len(sentence.tokens) - run_start))
    return spans


def preprocess(raw: RawDocument, lexicons: Lexicons | None = None) -> ProcessedDocument:
    """Run the full preprocessing pipeline over one document.

    Sentences left with no tokens are dropped and indices re-compacted;
    paragraphs losing every sentence are dropped as well.
    """
    lex = lexicons or default_lexicons()
    sentences: list[Sentence] = []
    para_index = 0
    for paragraph in segment_paragraphs(raw):
        retained: list[tuple[str, list[Token]]] = []
        for text in segment_sentences(paragraph, lex.abbreviations):
            surfaces = tokenize(text)
            if not surfaces:
                continue
            tokens = build_tokens(surfaces)
            tokens = filter_stopwords(tokens, lex.stopwords)
            tokens = pos_tag(tokens, lex)
            retained.append((text, tokens))
        if not retained:
            continue
        last = len(retained) - 1
        for pos, (text, tokens) in enumerate(retained):
            sentences.append(
                Sentence(
                    doc_index=len(sentences),
                    para_index=para_index,
                    pos_in_para=pos,
                    is_para_first=pos == 0,
                    is_para_last=pos == last,
                    tokens=tuple(tokens),
                    original_text=text,
                )
            )
        para_index += 1
    if not sentences:
        raise DegenerateDocument(
            f"document {raw.source_id!r} has no sentences after preprocessing"
        )
    vocabulary = Counter(
        t.stem for s in sentences for t in s.tokens if not t.is_stopword
    )
    return ProcessedDocument(
        sentences=tuple(sentences),
        paragraph_count=para_index,
        vocabulary=dict(vocabulary),
    )
