"""Structured document types produced by preprocessing."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RawDocument:
    """Unprocessed input text plus a stable identifier."""

    text: str
    source_id: str = "doc"


@dataclass(frozen=True)
class Token:
    surface: str
    stem: str
    is_name: bool = False
    is_stopword: bool = False
    is_numeral: bool = False


@dataclass(frozen=True)
class Sentence:
    doc_index: int
    para_index: int
    pos_in_para: int
    is_para_first: bool
    is_para_last: bool
    tokens: tuple[Token, ...]
    original_text: str

    def __len__(self) -> int:
        return len(self.tokens)

    def content_stems(self) -> tuple[str, ...]:
        """Stems of non-stopword tokens, in sentence order."""
        return tuple(t.stem for t in self.tokens if not t.is_stopword)


@dataclass(frozen=True)
class ProcessedDocument:
    """Sentence-structured document; the unit the pipeline consumes."""

    sentences: tuple[Sentence, ...]
    paragraph_count: int

    @property
    def n_sentences(self) -> int:
        return len(self.sentences)
