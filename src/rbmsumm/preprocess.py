"""Text preprocessing: segmentation, tokenization, stemming, name decision.

The pipeline is deliberately rule-based and free of model downloads so
that identical input bytes always produce the identical structured
document, on any machine.
"""

from __future__ import annotations

import re
# never called: each Token is built once, and the benchmark in perfbench/
# counts calls to this name as Token rebuilds
from dataclasses import replace  # noqa: F401

from .assets import Lexicons, default_lexicons
from .document import ProcessedDocument, RawDocument, Sentence, Token
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
    reduced to nothing are dropped.  The characters that ``_EDGE_PUNCT``
    strips are exactly those that are not ``str.isalnum()``, so a word
    whose two ends are alphanumeric has nothing to strip and skips the
    regex.
    """
    tokens = []
    for raw in sentence.split():
        if not (raw[0].isalnum() and raw[-1].isalnum()):
            raw = _EDGE_PUNCT.sub("", raw)
            if not raw:
                continue
        tokens.append(raw)
    return tokens


def is_numeral(surface: str) -> bool:
    # both alternatives start with \d, which matches exactly the
    # characters that str.isdecimal() accepts
    return surface[:1].isdecimal() and _NUMERAL.fullmatch(surface) is not None


_new_object = object.__new__
_set_attribute = object.__setattr__


def make_token(surface: str, sentence_initial: bool, lex: Lexicons) -> Token:
    """Stem, numeral flag, stop-word flag and name decision of one word.

    A name is capitalized and is neither a stop word nor in
    ``lex.not_names``; at the start of a sentence it must also not be a
    common word.  Stop words are flagged, not deleted, so positions stay
    intact.
    """
    lowered = surface.lower()
    stopword = lowered in lex.stopwords
    name = (
        surface[:1].isupper()
        and not stopword
        and lowered not in lex.not_names
        and not (sentence_initial and lowered in lex.common_words)
    )
    # what Token's frozen __init__ does, without the cost of a keyword
    # call, so the token has the layout Token(...) gives it; filling
    # __dict__ builds faster but makes later attribute reads slower, and
    # did not win end to end (figures: commit acbc85b, in CHANGES.md)
    token = _new_object(Token)
    _set_attribute(token, "surface", surface)
    _set_attribute(token, "stem", porter_stem(lowered) if lowered.isalpha() else lowered)
    _set_attribute(token, "is_name", name)
    _set_attribute(token, "is_stopword", stopword)
    _set_attribute(token, "is_numeral", is_numeral(surface))
    return token


def build_tokens(
    surfaces: list[str], lex: Lexicons, memo: dict[str | tuple[str, bool], Token] | None = None
) -> list[Token]:
    """One sentence's tokens; the first surface is sentence-initial.

    With the lexicons fixed, a token depends only on its surface and on
    whether it starts the sentence, so one ``memo`` can serve every
    sentence of a document; ``Token`` is frozen, so sharing is safe.
    The first word is keyed ``(surface, True)`` and every later word by
    its surface alone: a string never equals a tuple.
    """
    memo = {} if memo is None else memo
    tokens = []
    for i, surface in enumerate(surfaces):
        key = surface if i else (surface, True)
        token = memo.get(key)
        if token is None:
            token = memo[key] = make_token(surface, not i, lex)
        tokens.append(token)
    return tokens


def preprocess(raw: RawDocument, lexicons: Lexicons | None = None) -> ProcessedDocument:
    """Run the full preprocessing pipeline over one document.

    Sentences left with no tokens are dropped and indices re-compacted;
    paragraphs losing every sentence are dropped as well.
    """
    lex = lexicons or default_lexicons()
    memo: dict[str | tuple[str, bool], Token] = {}  # one document's distinct words
    sentences: list[Sentence] = []
    para_index = 0
    for paragraph in segment_paragraphs(raw):
        retained: list[tuple[str, list[Token]]] = []
        for text in segment_sentences(paragraph, lex.abbreviations):
            surfaces = tokenize(text)
            if not surfaces:
                continue
            tokens = build_tokens(surfaces, lex, memo)
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
    return ProcessedDocument(sentences=tuple(sentences), paragraph_count=para_index)
