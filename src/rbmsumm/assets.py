"""Loading of bundled word lists (stop words, abbreviations, lexicons).

Every asset is a plain-text file with one entry per line; blank lines
and ``#`` comments are ignored.  The bundled files can be overridden
per call with user-supplied paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

_LEXICON_FILES = {
    "determiners": "determiners.txt",
    "prepositions": "prepositions.txt",
    "pronouns": "pronouns.txt",
    "conjunctions": "conjunctions.txt",
    "common_verbs": "common_verbs.txt",
    "common_words": "common_words.txt",
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


@dataclass(frozen=True)
class Lexicons:
    """The word lists driving stop-word flagging, splitting and tagging."""

    stopwords: frozenset[str]
    abbreviations: frozenset[str]
    determiners: frozenset[str]
    prepositions: frozenset[str]
    pronouns: frozenset[str]
    conjunctions: frozenset[str]
    common_verbs: frozenset[str]
    common_words: frozenset[str] = field(repr=False)


def load_lexicons(
    stopwords_path: str | Path | None = None,
    abbreviations_path: str | Path | None = None,
    lexicon_dir: str | Path | None = None,
) -> Lexicons:
    """Load the bundled assets, honouring any override paths.

    ``lexicon_dir`` must contain files with the bundled names
    (determiners.txt, prepositions.txt, ...); missing files fall back
    to the bundled copies.
    """
    if stopwords_path is not None:
        stopwords = load_wordlist(stopwords_path)
    else:
        stopwords = _parse_wordlist(_read_bundled("stopwords.txt"))
    if abbreviations_path is not None:
        abbreviations = load_wordlist(abbreviations_path)
    else:
        abbreviations = _parse_wordlist(_read_bundled("abbreviations.txt"))

    lexica: dict[str, frozenset[str]] = {}
    for key, filename in _LEXICON_FILES.items():
        override = Path(lexicon_dir) / filename if lexicon_dir is not None else None
        if override is not None and override.exists():
            lexica[key] = load_wordlist(override)
        else:
            lexica[key] = _parse_wordlist(_read_bundled(filename))

    return Lexicons(stopwords=stopwords, abbreviations=abbreviations, **lexica)


_default: Lexicons | None = None


def default_lexicons() -> Lexicons:
    """The bundled lexicons, loaded once per process."""
    global _default
    if _default is None:
        _default = load_lexicons()
    return _default
