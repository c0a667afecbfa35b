"""Porter suffix-stripping stemmer.

Pure-function implementation of the classic five-step suffix-stripping
algorithm, matching the behaviour of the widely used C port (including
its two step-2 refinements, ``bli -> ble`` and ``logi -> log``, which
the standard reference vocabulary reflects).  Words of length <= 2 are
returned unchanged.

Steps 2, 3 and 4 look a word up by its last two letters, as the C
reference (https://tartarus.org/martin/PorterStemmer/c.txt; Porter, *An
algorithm for suffix stripping*, Program 14(3), 1980) ``switch``es on a
letter near the end of the word.  Each table is grouped once by the
last two letters of its suffixes, keeping table order within a group.
Every suffix has at least two letters, so two suffixes in different
groups cannot both end one word, and the first suffix that matches in
the word's own group is the first that matches in the whole table.
Step 4 skips ``ion`` unless an ``s`` or ``t`` precedes it; no other
suffix of that table ends in ``on``, so the skip leaves the word as the
full scan does.

``porter_stem`` calls each step only on a word whose ending the step can
change: step 1a on a final ``s``, step 1b on ``d`` or ``g`` (``eed``,
``ed`` and ``ing``), step 1c on ``y``, steps 2, 3 and 4 when the last
two letters are a key of one of their groups, and step 5 on ``e`` or
``l``.  The measure and the other vowel/consonant tests read a pattern
of one ``v`` or ``c`` per letter, made with one ``str.translate`` and
the y-rule, and only when one of them is asked; most words never need
it.  Every letter other than a, e, i, o, u and y is a consonant,
accented ones included.

Input must be lowercase and alphabetic; callers route non-alphabetic
tokens (numbers, hyphenated compounds) around the stemmer.
"""

from __future__ import annotations

from collections import defaultdict

_VOWELS = "aeiou"

# (suffix, replacement) tables; first matching suffix ends the step,
# the replacement applies only when the stem measure allows it.
_STEP2 = (
    ("ational", "ate"), ("tional", "tion"),
    ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"),
    ("bli", "ble"), ("alli", "al"), ("entli", "ent"), ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"), ("ation", "ate"), ("ator", "ate"),
    ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
    ("logi", "log"),
)

_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"),
    ("iciti", "ic"), ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant",
    "ement", "ment", "ent", "ion", "ou", "ism", "ate", "iti",
    "ous", "ive", "ize",
)


def _by_last_two(table, suffix=lambda entry: entry[0]) -> dict[str, tuple]:
    """A table's entries grouped by their suffix's last two letters."""
    groups: dict[str, tuple] = {}
    for entry in table:
        end = suffix(entry)[-2:]
        groups[end] = groups.get(end, ()) + (entry,)
    return groups


_STEP2_BY_END = _by_last_two(_STEP2)
_STEP3_BY_END = _by_last_two(_STEP3)
_STEP4_BY_END = _by_last_two(_STEP4, suffix=lambda entry: entry)
# a word whose last two letters are no key here passes steps 2, 3 and 4 as it is
_TABLE_ENDS = frozenset(_STEP2_BY_END).union(_STEP3_BY_END, _STEP4_BY_END)


# str.translate table: a, e, i, o and u are vowels, y waits for the
# y-rule, and every other letter, ASCII or not, is a consonant
_CLASSES = defaultdict(lambda: "c", {ord("y"): "y"} | dict.fromkeys(map(ord, _VOWELS), "v"))


def _pattern(word: str) -> str:
    """One ``v`` or ``c`` per letter; y is a consonant word-initially or
    after a vowel, so each y takes its class from the letter before it."""
    pattern = word.translate(_CLASSES)
    while "y" in pattern:
        if pattern[0] == "y":
            pattern = "c" + pattern[1:]
        pattern = pattern.replace("vy", "vc").replace("cy", "cv")
    return pattern


def _measure(stem: str) -> int:
    """Count VC sequences: [C](VC)^m[V] has measure m."""
    return _pattern(stem).count("vc")


def _has_vowel(stem: str) -> bool:
    return "v" in _pattern(stem)


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _pattern(word)[-1] == "c"


def _ends_cvc(word: str) -> bool:
    """consonant-vowel-consonant ending, final consonant not w, x or y."""
    return word[-1:] not in "wxy" and _pattern(word).endswith("cvc")


def _step1a(w: str) -> str:
    if w.endswith("sses"):
        return w[:-2]
    if w.endswith("ies"):
        return w[:-2]
    if w.endswith("ss"):
        return w
    if w.endswith("s"):
        return w[:-1]
    return w


def _step1b(w: str) -> str:
    if w.endswith("eed"):
        return w[:-1] if _measure(w[:-3]) > 0 else w
    if w.endswith("ed") and _has_vowel(w[:-2]):
        w = w[:-2]
    elif w.endswith("ing") and _has_vowel(w[:-3]):
        w = w[:-3]
    else:
        return w
    # cleanup after removing -ed / -ing
    if w.endswith(("at", "bl", "iz")):
        return w + "e"
    if _ends_double_consonant(w) and w[-1] not in "lsz":
        return w[:-1]
    if _measure(w) == 1 and _ends_cvc(w):
        return w + "e"
    return w


def _step1c(w: str) -> str:
    if w.endswith("y") and _has_vowel(w[:-1]):
        return w[:-1] + "i"
    return w


def _apply_table(w: str, groups: dict[str, tuple]) -> str:
    for suffix, replacement in groups.get(w[-2:], ()):
        if w.endswith(suffix):
            stem = w[: len(w) - len(suffix)]
            if _measure(stem) > 0:
                return stem + replacement
            return w
    return w


def _step4(w: str) -> str:
    for suffix in _STEP4_BY_END.get(w[-2:], ()):
        if w.endswith(suffix):
            stem = w[: len(w) - len(suffix)]
            if suffix == "ion" and not (stem and stem[-1] in "st"):
                continue
            if _measure(stem) > 1:
                return stem
            return w
    return w


def _step5(w: str) -> str:
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            w = stem
    if w.endswith("l") and _ends_double_consonant(w) and _measure(w) > 1:
        w = w[:-1]
    return w


def porter_stem(word: str) -> str:
    """Stem a lowercase alphabetic word; length <= 2 passes through."""
    if len(word) <= 2:
        return word
    w = _step1a(word) if word[-1] == "s" else word
    if w[-1] in "dg":
        w = _step1b(w)
    if w[-1] == "y":
        w = _step1c(w)
    if w[-2:] in _TABLE_ENDS:
        w = _apply_table(w, _STEP2_BY_END)
        w = _apply_table(w, _STEP3_BY_END)
        w = _step4(w)
    return _step5(w) if w[-1] in "el" else w
