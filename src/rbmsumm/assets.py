"""Loading of bundled word lists (stop words, abbreviations, name lexicons).

Every asset is a plain-text file with one entry per line; blank lines
and ``#`` comments are ignored.  The bundled files can be overridden
per call with user-supplied paths.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

# Lexicons field -> the files whose entries it holds
_LEXICON_FILES = {
    # closed-class words and common verbs: never names, wherever they stand
    "not_names": (
        "determiners.txt",
        "prepositions.txt",
        "pronouns.txt",
        "conjunctions.txt",
        "common_verbs.txt",
    ),
    # words that are not names at the start of a sentence
    "common_words": ("common_words.txt",),
}


def _parse_wordlist(text: str) -> frozenset[str]:
    entries = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.add(line.lower())
    return frozenset(entries)


def _read_bundled(name: str) -> str:
    return (resources.files(__package__) / "assets" / name).read_text("utf-8")


def load_wordlist(path: str | Path) -> frozenset[str]:
    """Load a one-entry-per-line word list from ``path``."""
    return _parse_wordlist(Path(path).read_text("utf-8"))


def _wordlist(path: str | Path | None, filename: str) -> frozenset[str]:
    """The word list at ``path``, or the bundled ``filename`` if ``path`` is None."""
    return _parse_wordlist(_read_bundled(filename)) if path is None else load_wordlist(path)


@dataclass(frozen=True)
class Lexicons:
    """The word lists driving stop-word flagging, splitting and the name
    decision."""

    stopwords: frozenset[str]
    abbreviations: frozenset[str]
    not_names: frozenset[str]
    common_words: frozenset[str] = field(repr=False)


def load_lexicons(
    stopwords_path: str | Path | None = None,
    abbreviations_path: str | Path | None = None,
    lexicon_dir: str | Path | None = None,
) -> Lexicons:
    """Load the bundled assets, honouring any override paths.

    ``lexicon_dir`` must be an existing directory.  It holds files with
    the bundled names (determiners.txt, prepositions.txt, ...); missing
    files fall back to the bundled copies.
    """
    if lexicon_dir is not None and not Path(lexicon_dir).is_dir():
        raise NotADirectoryError(f"lexicon directory {str(lexicon_dir)!r} is not a directory")
    stopwords = _wordlist(stopwords_path, "stopwords.txt")
    abbreviations = _wordlist(abbreviations_path, "abbreviations.txt")

    def lexicon(filename: str) -> frozenset[str]:
        override = None if lexicon_dir is None else Path(lexicon_dir) / filename
        return _wordlist(override if override and override.exists() else None, filename)

    lexica = {
        key: frozenset().union(*map(lexicon, files))
        for key, files in _LEXICON_FILES.items()
    }
    return Lexicons(stopwords=stopwords, abbreviations=abbreviations, **lexica)


@functools.cache
def default_lexicons() -> Lexicons:
    """The bundled lexicons, loaded once per process."""
    return load_lexicons()
