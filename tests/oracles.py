"""Independent straight-from-the-formula reference computations.

Nothing here reuses the production feature or RBM code paths: features
are recomputed with plain loops and ``math`` calls from a processed
document, and RBM expectations come from brute-force enumeration of the
joint state space.  The per-record feature stage, the per-column
min-max, the scalar xorshift64* generator, the three-pass token builder,
the four-mask sigmoid, the loop of one-update-per-call PCD training on a
Gibbs step that draws from plain ``@`` logits and phase statistics
written with that sigmoid, the Porter stemmer that classes each letter
on its own and scans each suffix table in order, the numeral regex run on every
surface and the tokenizer that runs its edge regex on every word are
the plain forms that the package's one-pass feature matrix, one-call
normalization, block RNG stream, one-pass token builder, in-place
sigmoid, fused training loop, gated pattern-reading stemmer,
digit-gated numeral test and fast-path tokenizer must match exactly;
the nine-way part-of-speech chain is the former tagger, whose
proper-noun decision the package's one-expression name decision must
reproduce.  Tests compare the package against these.

Of the package, this module imports only data types, error types,
constants, tables and the block generator, which is itself pinned to
the scalar one; ``test_oracle_independence.py`` checks that list, so
that no oracle runs the code that it checks.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np

import rbmsumm
from rbmsumm.document import ProcessedDocument, Token
from rbmsumm.errors import NonFiniteParameter
from rbmsumm.porter import _STEP2, _STEP3, _STEP4
from rbmsumm.rbm import WEIGHT_INIT_STD, Rbm
from rbmsumm.rng import Xorshift64Star


def oracle_feature_matrix(
    doc: ProcessedDocument,
    thematic_count: int = 10,
    th_fraction: float = 0.2,
    short_min_words: int = 3,
) -> list[list[float]]:
    """Recompute the N x 9 raw feature matrix directly from definitions."""
    n = len(doc.sentences)

    # document-wide counts of non-stopword stems
    totals: Counter = Counter()
    for s in doc.sentences:
        for t in s.tokens:
            if not t.is_stopword:
                totals[t.stem] += 1
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    thematic = {stem for stem, _ in ranked[:thematic_count]}

    def sentence_counts(s) -> Counter:
        return Counter(t.stem for t in s.tokens if not t.is_stopword)

    def tf_isf(s) -> float:
        counts = sentence_counts(s)
        acc = 0.0
        for t in s.tokens:
            if t.is_stopword:
                continue
            acc += counts[t.stem] * (totals[t.stem] - counts[t.stem])
        return math.log(1.0 + acc) / len(s.tokens)

    tfisf_values = [tf_isf(s) for s in doc.sentences]
    centroid = 0
    for i in range(n):
        if tfisf_values[i] > tfisf_values[centroid]:
            centroid = i
    centroid_counts = sentence_counts(doc.sentences[centroid])

    def cosine(s) -> float:
        counts = sentence_counts(s)
        if not counts or not centroid_counts:
            return 0.0
        dot = sum(v * centroid_counts.get(k, 0) for k, v in counts.items())
        na = math.sqrt(sum(v * v for v in counts.values()))
        nb = math.sqrt(sum(v * v for v in centroid_counts.values()))
        return dot / (na * nb)

    matrix = []
    for i, s in enumerate(doc.sentences):
        tokens = s.tokens
        total = len(tokens)
        thematic_hits = sum(
            1 for t in tokens if not t.is_stopword and t.stem in thematic
        )
        if i == 0 or i == n - 1:
            position = 1.0
        else:
            low = th_fraction * n
            high = 2.0 * th_fraction * n
            position = math.cos(((i + 1) - low) * ((1.0 / high) - low))
        length = 0.0 if total < short_min_words else float(total)
        pos_in_para = 1.0 if (s.is_para_first or s.is_para_last) else 0.0
        proper = sum(1 for t in tokens if t.is_name)
        numerals = sum(1 for t in tokens if t.is_numeral) / total
        entities = 0
        previous_proper = False
        for t in tokens:
            now = t.is_name
            if now and not previous_proper:
                entities += 1
            previous_proper = now
        matrix.append(
            [
                thematic_hits / total,
                position,
                length,
                pos_in_para,
                float(proper),
                numerals,
                float(entities),
                tfisf_values[i],
                cosine(s),
            ]
        )
    return matrix


# ---------------------------------------------------------------------
# The feature stage before the one-pass matrix: one record per sentence,
# a stem Counter built per feature call, per-token TF-ISF terms, and the
# centroid's Counter and norm rebuilt for every sentence
# ---------------------------------------------------------------------


def _record_counts(sentence) -> Counter:
    return Counter(sentence.content_stems())


def _record_document_counts(doc: ProcessedDocument) -> Counter:
    return Counter(stem for s in doc.sentences for stem in s.content_stems())


def _record_tf_isf(sentence, document_counts: Counter) -> float:
    counts = _record_counts(sentence)
    total = 0.0
    for token in sentence.tokens:
        if token.is_stopword:
            continue
        tf = counts[token.stem]
        occ = document_counts[token.stem] - tf
        total += tf * occ
    return math.log1p(total) / len(sentence.tokens)


def _record_centroid_sim(sentence, centroid) -> float:
    a = _record_counts(sentence)
    b = _record_counts(centroid)
    if not a or not b:
        return 0.0
    dot = sum(count * b[stem] for stem, count in a.items())
    norm_a = math.sqrt(sum(c * c for c in a.values()))
    norm_b = math.sqrt(sum(c * c for c in b.values()))
    return min(1.0, dot / (norm_a * norm_b))


def per_record_feature_matrix(doc: ProcessedDocument, config) -> np.ndarray:
    """The raw feature matrix, built as a list of nine-float rows."""
    document_counts = _record_document_counts(doc)
    ranked = sorted(document_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    thematic = frozenset(stem for stem, _ in ranked[: config.thematic_count])
    tf_isf = [_record_tf_isf(s, document_counts) for s in doc.sentences]
    best = 0
    for i, score in enumerate(tf_isf):
        if score > tf_isf[best]:
            best = i
    centroid = doc.sentences[best]
    n = doc.n_sentences
    rows = []
    for s, score in zip(doc.sentences, tf_isf):
        tokens = s.tokens
        if s.doc_index == 0 or s.doc_index == n - 1:
            position = 1.0
        else:
            low = config.th_fraction * n
            high = 2.0 * config.th_fraction * n
            position = math.cos((s.doc_index + 1 - low) * ((1.0 / high) - low))
        runs, previous = 0, False
        for t in tokens:
            name = t.is_name
            runs += name and not previous
            previous = name
        rows.append([
            sum(1 for t in tokens if not t.is_stopword and t.stem in thematic) / len(tokens),
            position,
            0.0 if len(tokens) < config.short_sentence_min_words else float(len(tokens)),
            1.0 if s.is_para_first or s.is_para_last else 0.0,
            float(sum(1 for t in tokens if t.is_name)),
            sum(1 for t in tokens if t.is_numeral) / len(tokens),
            float(runs),
            score,
            _record_centroid_sim(s, centroid),
        ])
    return np.array(rows, dtype=np.float64)


def per_column_minmax(values: np.ndarray) -> np.ndarray:
    """Min-max scaling, one column at a time; constant columns become 0.5."""
    lo = values.min(axis=0)
    hi = values.max(axis=0)
    span = hi - lo
    out = np.empty_like(values)
    for j in range(values.shape[1]):
        if span[j] == 0.0:
            out[:, j] = 0.5
        else:
            out[:, j] = (values[:, j] - lo[j]) / span[j]
    return out


def oracle_minmax(matrix: list[list[float]]) -> list[list[float]]:
    """Column-wise min-max scaling with constant columns pinned at 0.5."""
    arr = [row[:] for row in matrix]
    n_cols = len(arr[0])
    for j in range(n_cols):
        column = [row[j] for row in arr]
        lo, hi = min(column), max(column)
        for row in arr:
            row[j] = 0.5 if hi == lo else (row[j] - lo) / (hi - lo)
    return arr


# ---------------------------------------------------------------------
# Exact RBM quantities by exhaustive enumeration
# ---------------------------------------------------------------------


def _energy(v, h, weights, visible_bias, hidden_bias) -> float:
    return -(
        float(np.dot(visible_bias, v))
        + float(np.dot(hidden_bias, h))
        + float(h @ weights @ v)
    )


def exact_log_likelihood_gradient(weights, visible_bias, hidden_bias, data):
    """Analytic gradient of the mean data log-likelihood.

    Both phases are computed from the energy function alone: the
    positive phase averages E[v h^T | v] over the data rows, and the
    negative phase enumerates every joint (v, h) configuration of the
    2^(nv+nh) state space.
    """
    n_hidden, n_visible = weights.shape
    states_v = list(itertools.product((0.0, 1.0), repeat=n_visible))
    states_h = list(itertools.product((0.0, 1.0), repeat=n_hidden))

    # model expectations over the joint distribution
    z = 0.0
    model_w = np.zeros_like(weights)
    model_vb = np.zeros_like(visible_bias)
    model_hb = np.zeros_like(hidden_bias)
    for v in states_v:
        va = np.array(v)
        for h in states_h:
            ha = np.array(h)
            p = math.exp(-_energy(va, ha, weights, visible_bias, hidden_bias))
            z += p
            model_w += p * np.outer(ha, va)
            model_vb += p * va
            model_hb += p * ha
    model_w /= z
    model_vb /= z
    model_hb /= z

    # data expectations: E[h|v] from the joint, not from sigmoid code
    data_w = np.zeros_like(weights)
    data_vb = np.zeros_like(visible_bias)
    data_hb = np.zeros_like(hidden_bias)
    for row in data:
        va = np.asarray(row, dtype=float)
        weights_h = []
        for h in states_h:
            ha = np.array(h)
            weights_h.append(
                math.exp(-_energy(va, ha, weights, visible_bias, hidden_bias))
            )
        total = sum(weights_h)
        e_h = np.zeros_like(hidden_bias)
        for wgt, h in zip(weights_h, states_h):
            e_h += (wgt / total) * np.array(h)
        data_w += np.outer(e_h, va)
        data_vb += va
        data_hb += e_h
    n = len(data)
    return (
        data_w / n - model_w,
        data_vb / n - model_vb,
        data_hb / n - model_hb,
    )


def exact_model_negative_statistics(weights, visible_bias, hidden_bias):
    """E_model[p(h|v) v^T], E_model[v], E_model[p(h|v)] by enumerating v.

    Marginal visible probabilities come from the analytically summed-out
    hidden layer: P(v) is proportional to exp(b.v) * prod_j (1 + exp(c_j + W_j v)).
    """
    n_hidden, n_visible = weights.shape
    states_v = list(itertools.product((0.0, 1.0), repeat=n_visible))
    weights_v = []
    for v in states_v:
        va = np.array(v)
        log_p = float(np.dot(visible_bias, va))
        for j in range(n_hidden):
            log_p += math.log1p(math.exp(hidden_bias[j] + float(weights[j] @ va)))
        weights_v.append(math.exp(log_p))
    z = sum(weights_v)
    neg_w = np.zeros_like(weights)
    neg_vb = np.zeros_like(visible_bias)
    neg_hb = np.zeros_like(hidden_bias)
    for wgt, v in zip(weights_v, states_v):
        va = np.array(v)
        p = wgt / z
        cond_h = 1.0 / (1.0 + np.exp(-(hidden_bias + weights @ va)))
        neg_w += p * np.outer(cond_h, va)
        neg_vb += p * va
        neg_hb += p * cond_h
    return neg_w, neg_vb, neg_hb


# ---------------------------------------------------------------------
# Scalar xorshift64*, one output per call
# ---------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_STAR = 0x2545F4914F6CDD1D


class ScalarXorshift64Star:
    """The stream definition on Python ints: splitmix64 seeding, one
    xorshift step and one multiplicative scramble per raw output."""

    def __init__(self, seed: int):
        x = ((seed & _MASK64) + 0x9E3779B97F4A7C15) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        state = x ^ (x >> 31)
        self.state = state if state != 0 else _STAR
        self._gauss_cache = None

    def next_uint64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * _STAR) & _MASK64

    def random(self) -> float:
        return (self.next_uint64() >> 11) * (2.0 ** -53)

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        if self._gauss_cache is not None:
            z = self._gauss_cache
            self._gauss_cache = None
        else:
            u1 = 1.0 - self.random()
            u2 = self.random()
            r = math.sqrt(-2.0 * math.log(u1))
            z = r * math.cos(2.0 * math.pi * u2)
            self._gauss_cache = r * math.sin(2.0 * math.pi * u2)
        return mean + std * z

    def normal_array(self, shape, std: float = 1.0) -> np.ndarray:
        """One ``normal(0.0, std)`` per entry, in row-major order; after
        an odd count, the cached value of the last pair is dropped."""
        z = [self.normal(0.0, std) for _ in range(math.prod(shape))]
        self._gauss_cache = None
        return np.array(z, dtype=np.float64).reshape(shape)

    def bernoulli_array(self, logits) -> np.ndarray:
        """1.0 where a uniform's logit is below the entry's, one uniform
        per entry in row-major order.  The logit is numpy's scalar
        ``log(u) - log1p(-u)``, as the block computes it; ``math``'s
        functions round some of them differently."""
        x = np.asarray(logits, dtype=np.float64)
        out = np.empty(x.shape, dtype=np.float64)
        flat_x = x.reshape(-1)
        flat_out = out.reshape(-1)
        with np.errstate(divide="ignore"):  # log(0) = -inf
            for i in range(flat_x.size):
                u = np.float64(self.random())
                flat_out[i] = 1.0 if np.log(u) - np.log1p(-u) < flat_x[i] else 0.0
        return out


# ---------------------------------------------------------------------
# Porter stemmer, every suffix table scanned in order, every letter
# classed on its own
# ---------------------------------------------------------------------


def oracle_is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in "aeiou":
        return False
    if ch == "y":
        # y is a consonant word-initially or after a vowel
        return i == 0 or not oracle_is_consonant(word, i - 1)
    return True


def oracle_measure(stem: str) -> int:
    """Count VC sequences: [C](VC)^m[V] has measure m."""
    n = 0
    i = 0
    length = len(stem)
    while i < length and oracle_is_consonant(stem, i):
        i += 1
    while i < length:
        while i < length and not oracle_is_consonant(stem, i):
            i += 1
        if i >= length:
            break
        n += 1
        while i < length and oracle_is_consonant(stem, i):
            i += 1
    return n


def oracle_has_vowel(stem: str) -> bool:
    return any(not oracle_is_consonant(stem, i) for i in range(len(stem)))


def oracle_ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and oracle_is_consonant(word, len(word) - 1)
    )


def oracle_ends_cvc(word: str) -> bool:
    """consonant-vowel-consonant ending, final consonant not w, x or y."""
    i = len(word) - 1
    if i < 2:
        return False
    return (
        oracle_is_consonant(word, i)
        and not oracle_is_consonant(word, i - 1)
        and oracle_is_consonant(word, i - 2)
        and word[i] not in "wxy"
    )


def _oracle_step1a(w: str) -> str:
    if w.endswith("sses"):
        return w[:-2]
    if w.endswith("ies"):
        return w[:-2]
    if w.endswith("ss"):
        return w
    if w.endswith("s"):
        return w[:-1]
    return w


def _oracle_step1b(w: str) -> str:
    if w.endswith("eed"):
        return w[:-1] if oracle_measure(w[:-3]) > 0 else w
    if w.endswith("ed") and oracle_has_vowel(w[:-2]):
        w = w[:-2]
    elif w.endswith("ing") and oracle_has_vowel(w[:-3]):
        w = w[:-3]
    else:
        return w
    if w.endswith(("at", "bl", "iz")):
        return w + "e"
    if oracle_ends_double_consonant(w) and w[-1] not in "lsz":
        return w[:-1]
    if oracle_measure(w) == 1 and oracle_ends_cvc(w):
        return w + "e"
    return w


def _oracle_step1c(w: str) -> str:
    if w.endswith("y") and oracle_has_vowel(w[:-1]):
        return w[:-1] + "i"
    return w


def _oracle_scan(w: str, table) -> str:
    for suffix, replacement in table:
        if w.endswith(suffix):
            stem = w[: len(w) - len(suffix)]
            if oracle_measure(stem) > 0:
                return stem + replacement
            return w
    return w


def _oracle_step4(w: str) -> str:
    for suffix in _STEP4:
        if w.endswith(suffix):
            stem = w[: len(w) - len(suffix)]
            if suffix == "ion" and not (stem and stem[-1] in "st"):
                continue
            if oracle_measure(stem) > 1:
                return stem
            return w
    return w


def _oracle_step5(w: str) -> str:
    if w.endswith("e"):
        stem = w[:-1]
        m = oracle_measure(stem)
        if m > 1 or (m == 1 and not oracle_ends_cvc(stem)):
            w = stem
    if w.endswith("l") and oracle_ends_double_consonant(w) and oracle_measure(w) > 1:
        w = w[:-1]
    return w


def oracle_porter_stem(word: str) -> str:
    """The five steps, each of steps 2, 3 and 4 testing every suffix of
    its table in table order until the first one that ends the word."""
    if len(word) <= 2:
        return word
    w = _oracle_step1a(word)
    w = _oracle_step1b(w)
    w = _oracle_step1c(w)
    w = _oracle_scan(w, _STEP2)
    w = _oracle_scan(w, _STEP3)
    w = _oracle_step4(w)
    return _oracle_step5(w)


# ---------------------------------------------------------------------
# Numerals: the regex on every surface
# ---------------------------------------------------------------------

_ORACLE_NUMERAL = re.compile(r"\d+(?:,\d+)*(?:\.\d+)?|\d+(?:st|nd|rd|th)", re.IGNORECASE)


def oracle_is_numeral(surface: str) -> bool:
    """Digits with optional comma groups and one decimal point, or an ordinal."""
    return _ORACLE_NUMERAL.fullmatch(surface) is not None


# ---------------------------------------------------------------------
# Tokenizer: the edge regex on every whitespace-separated word
# ---------------------------------------------------------------------

_ORACLE_EDGE_PUNCT = re.compile(r"^[\W_]+|[\W_]+$", re.UNICODE)


def oracle_tokenize(sentence: str) -> list[str]:
    """Strip leading and trailing non-word characters and underscores
    from every word; drop the words left empty."""
    stripped = (_ORACLE_EDGE_PUNCT.sub("", raw) for raw in sentence.split())
    return [token for token in stripped if token]


# ---------------------------------------------------------------------
# Three-pass token builder: stems and numerals, stop words, names
# ---------------------------------------------------------------------


@cache
def _bundled(name: str) -> frozenset[str]:
    """One bundled word list, read straight from the package's assets."""
    text = (Path(rbmsumm.__file__).parent / "assets" / f"{name}.txt").read_text("utf-8")
    lines = (line.strip() for line in text.splitlines())
    return frozenset(line.lower() for line in lines if line and not line.startswith("#"))


def _oracle_tag(token: Token, sentence_initial: bool) -> str:
    """Part-of-speech label from the rule/lexicon chain, tested in order."""
    surface = token.surface
    lowered = surface.lower()
    if token.is_numeral:
        return "numeral"
    for label, name in (
        ("determiner", "determiners"),
        ("preposition", "prepositions"),
        ("pronoun", "pronouns"),
        ("conjunction", "conjunctions"),
        ("verb", "common_verbs"),
    ):
        if lowered in _bundled(name):
            return label
    if surface[:1].isupper() and not token.is_stopword:
        if not sentence_initial or lowered not in _bundled("common_words"):
            return "proper_noun"
    return "noun"


def oracle_tokens(surfaces: list[str], stopwords: frozenset[str] | None = None) -> list[Token]:
    """Build every token with the bundled lexicons, rebuild it with its
    stop-word flag, then again with its name flag, set where the
    former tagger's label is a proper noun; the first surface is
    sentence-initial.  ``stopwords`` replaces the bundled stop words."""
    stopwords = _bundled("stopwords") if stopwords is None else stopwords
    tokens = []
    for surface in surfaces:
        lowered = surface.lower()
        stem = oracle_porter_stem(lowered) if lowered.isalpha() else lowered
        tokens.append(Token(surface=surface, stem=stem, is_numeral=oracle_is_numeral(surface)))
    tokens = [replace(t, is_stopword=t.surface.lower() in stopwords) for t in tokens]
    return [
        replace(t, is_name=_oracle_tag(t, i == 0) == "proper_noun")
        for i, t in enumerate(tokens)
    ]


def oracle_resolve_reference(
    lines, doc: ProcessedDocument, stopwords: frozenset[str] | None = None
) -> frozenset[int] | None:
    """Literal reference lines resolved by the former key: the sorted
    ``(stem, count)`` pairs of each side's non-stop-word stems, each line
    tokenized and stemmed on its own, its stop words ``stopwords`` (the
    bundled ones by default).  A duplicate sentence gives its first
    index; None when a line matches no sentence."""
    by_stems = {}
    for sentence in doc.sentences:
        key = tuple(sorted(Counter(sentence.content_stems()).items()))
        by_stems.setdefault(key, sentence.doc_index)
    indices = set()
    for text in lines:
        tokens = oracle_tokens(oracle_tokenize(text), stopwords)
        key = tuple(sorted(Counter(t.stem for t in tokens if not t.is_stopword).items()))
        if key not in by_stems:
            return None
        indices.add(by_stems[key])
    return frozenset(indices)


def four_mask_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, each sign through its own masked branch."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------
# PCD training before the fused loop: one call per update, each making
# fresh arrays from a plain Gibbs step and phase statistics
# ---------------------------------------------------------------------


def hidden_logits(rbm, v) -> np.ndarray:
    """hidden_bias + W v of a vector or of each row."""
    return np.asarray(v, dtype=np.float64) @ rbm.weights.T + rbm.hidden_bias


def visible_logits(rbm, h) -> np.ndarray:
    """visible_bias + W^T h of a vector or of each row."""
    return np.asarray(h, dtype=np.float64) @ rbm.weights + rbm.visible_bias


def hidden_probabilities(rbm, v) -> np.ndarray:
    """sigmoid(hidden_bias + W v) of a vector or of each row."""
    return four_mask_sigmoid(hidden_logits(rbm, v))


def visible_probabilities(rbm, h) -> np.ndarray:
    """sigmoid(visible_bias + W^T h) of a vector or of each row."""
    return four_mask_sigmoid(visible_logits(rbm, h))


def gibbs_step(rbm, v, rng) -> np.ndarray:
    """One alternating Bernoulli sample, v -> h -> v', each layer drawn
    from its logits."""
    h = rng.bernoulli_array(hidden_logits(rbm, v))
    return rng.bernoulli_array(visible_logits(rbm, h))


def phase_statistics(rbm, visible):
    """Sufficient statistics of one phase, from hidden probabilities:
    the data batch in the positive phase, the chains in the negative."""
    hp = hidden_probabilities(rbm, visible)
    n = visible.shape[0]
    # x.sum(axis=0) / n is what x.mean(axis=0) computes
    return hp.T @ visible / n, visible.sum(axis=0) / n, hp.sum(axis=0) / n


def pcd_update(rbm, batch, states, config, rng):
    """One persistent-CD update, returning a new Rbm and the chains'
    new visible states."""
    batch = np.asarray(batch, dtype=np.float64)
    for _ in range(config.gibbs_steps_per_update):
        states = gibbs_step(rbm, states, rng)
    pos_w, pos_vb, pos_hb = phase_statistics(rbm, batch)
    neg_w, neg_vb, neg_hb = phase_statistics(rbm, states)
    lr = config.learning_rate
    updated = Rbm(
        weights=rbm.weights + lr * (pos_w - neg_w),
        visible_bias=rbm.visible_bias + lr * (pos_vb - neg_vb),
        hidden_bias=rbm.hidden_bias + lr * (pos_hb - neg_hb),
    )
    if not (
        np.isfinite(updated.weights).all()
        and np.isfinite(updated.visible_bias).all()
        and np.isfinite(updated.hidden_bias).all()
    ):
        raise NonFiniteParameter("non-finite RBM parameter after update")
    return updated, states


def pcd_train_rows(rows, config, n_hidden, history=None):
    """Train a fresh RBM on ``rows`` by a loop of ``pcd_update`` calls,
    drawing from the seed's stream in the package's order."""
    rng = Xorshift64Star(config.seed)
    rbm = Rbm(
        weights=rng.normal_array((n_hidden, rows.shape[1]), std=WEIGHT_INIT_STD),
        visible_bias=np.zeros(rows.shape[1]),
        hidden_bias=np.zeros(n_hidden),
    )
    states = rng.bernoulli_array(np.zeros((config.n_chains, rows.shape[1])))  # p = 0.5
    # as in the package: an update that overflows, or computes inf - inf
    # inside a product, does not warn; pcd_update raises NonFiniteParameter
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            for start in range(0, rows.shape[0], config.batch_size):
                batch = rows[start : start + config.batch_size]
                rbm, states = pcd_update(rbm, batch, states, config, rng)
            if history is not None:
                history.append(rbmsumm.rbm.reconstruction_cross_entropy(rbm, rows))
    return rbm
