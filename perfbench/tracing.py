"""Spans and counters around the program's public functions.

The program is not edited: a ``Tracer`` replaces module attributes with
timing or counting wrappers and puts the originals back on ``close``.
A wrapper must sit under the name the caller looks up at call time:

* ``summarizer`` bound ``preprocess``, ``build_feature_matrix``,
  ``normalize_columns`` and ``stack_enhance`` at import, so those are
  wrapped in ``rbmsumm.summarizer``;
* ``cli`` and ``evaluation`` bound ``run_pipeline``, ``evaluate_corpus``,
  ``compare_modes``, ``load_corpus`` and ``load_lexicons`` at import, so
  those are wrapped in both;
* the package attribute ``rbmsumm.preprocess`` is the function, so the
  module is reached through ``importlib.import_module``.

Spans (name, start, end, parent) are kept in memory; hot functions such
as ``jaccard`` and ``porter_stem`` get counters only.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter_ns

SELECT = "summarizer.select"
PREPROCESS = "preprocess.preprocess"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.porter_words: set[str] = set()
        self._stack: list[list] = []  # [span index, child ns, name]
        self._patches: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, wrapper(original))
        self._patches.append((owner, attr, original))

    def close(self) -> None:
        """Put every original function back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def span(self, owner, attr: str, name: str, on_result=None) -> None:
        spans, stack = self.spans, self._stack

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = [len(spans), 0, name]
                parent = stack[-1][0] if stack else -1
                spans.append(None)
                stack.append(frame)
                start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter_ns()
                    stack.pop()
                    spans[frame[0]] = (name, start, end, parent)
                    self.total_ns[name] += end - start
                    self.self_ns[name] += end - start - frame[1]
                    self.counts[name] += 1
                    if stack:
                        stack[-1][1] += end - start
                if on_result is not None:
                    on_result(result)
                return result

            return wrapper

        self._patch(owner, attr, wrap)

    def count(self, owner, attr: str, name: str, inside: str | None = None) -> None:
        """Count calls; with ``inside``, only calls made within that span."""
        counts, stack = self.counts, self._stack

        def wrap(fn):
            if inside is None:
                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    return fn(*args, **kwargs)
            else:
                def wrapper(*args, **kwargs):
                    if stack and stack[-1][2] == inside:
                        counts[name] += 1
                    return fn(*args, **kwargs)
            return functools.wraps(fn)(wrapper)

        self._patch(owner, attr, wrap)

    def install(self) -> "Tracer":
        """Wrap every layer boundary the per-layer metrics read."""
        m = {name: importlib.import_module(f"rbmsumm.{name}") for name in (
            "cli", "evaluation", "summarizer", "preprocess", "features", "rbm",
            "rng", "document",
        )}
        counts = self.counts

        def tokens(doc):
            counts["preprocess.tokens"] += sum(len(s.tokens) for s in doc.sentences)

        def sentences(matrix):
            counts["features.sentences"] += matrix.n_sentences

        # cli
        self.span(m["cli"], "main", "cli.main")
        self.span(m["cli"], "load_lexicons", "cli.load_lexicons")
        for owner in (m["cli"], m["evaluation"]):
            self.span(owner, "load_corpus", "evaluation.load_corpus")
            self.span(owner, "evaluate_corpus", "evaluation.evaluate_corpus")
            self.span(owner, "run_pipeline", "summarizer.run_pipeline")
        self.span(m["cli"], "compare_modes", "evaluation.compare_modes")
        self.span(m["evaluation"], "resolve_reference", "evaluation.resolve_reference")
        self.span(m["summarizer"], "run_pipeline", "summarizer.run_pipeline")
        # preprocess
        self.span(m["summarizer"], "preprocess", PREPROCESS, on_result=tokens)
        self._patch(m["preprocess"], "porter_stem", self._porter)
        self.count(m["preprocess"], "replace", "preprocess.replace", inside=PREPROCESS)
        # features
        self.span(m["summarizer"], "build_feature_matrix", "features.build", on_result=sentences)
        self.span(m["summarizer"], "normalize_columns", "features.normalize")
        self.count(m["features"], "f_tf_isf", "features.tf_isf")
        # rbm
        self.span(m["summarizer"], "stack_enhance", "rbm.stack_enhance")
        self.span(m["rbm"], "_train_rows", "rbm.train")
        self.count(m["rbm"], "reconstruction_cross_entropy", "rbm.recon_ce")
        self._patch(m["rng"].Xorshift64Star, "bernoulli_array", self._draws)
        # summarizer
        for attr in ("score_sentences", "rank", "assemble"):
            self.span(m["summarizer"], attr, "summarizer.rank_assemble")
        self.span(m["summarizer"], "select", SELECT)
        self.count(m["summarizer"], "jaccard", "summarizer.jaccard")
        self.count(m["document"].Sentence, "content_stems", "summarizer.stem_builds", inside=SELECT)
        return self

    def _porter(self, fn):
        counts, words = self.counts, self.porter_words

        @functools.wraps(fn)
        def wrapper(word):
            counts["preprocess.porter_calls"] += 1
            words.add(word)
            return fn(word)

        return wrapper

    def _draws(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(rng, probs):
            result = fn(rng, probs)
            counts["rbm.draws"] += result.size
            return result

        return wrapper

    def layer_metrics(self, ops: int, docs: int, rounds: float) -> dict[str, float]:
        """Per-layer metrics for ``ops`` operations over ``docs`` documents.

        Rounds repeat the same inputs, so distinct words are set against
        the ``porter_stem`` calls of one round.
        """
        c = self.counts

        def ms(name: str) -> float:
            return self.total_ns[name] / 1e6

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        return {
            "preprocess.ms_per_doc": ratio(ms(PREPROCESS), docs),
            "preprocess.porter_unique_ratio": ratio(
                len(self.porter_words), c["preprocess.porter_calls"] / rounds
            ),
            "preprocess.token_rebuilds_per_token": ratio(
                c["preprocess.replace"], c["preprocess.tokens"]
            ),
            "features.ms_per_doc": ratio(ms("features.build") + ms("features.normalize"), docs),
            "features.tf_isf_calls_per_sentence": ratio(
                c["features.tf_isf"], c["features.sentences"]
            ),
            "rbm.train_ms_per_doc": ratio(ms("rbm.train"), docs),
            "rbm.draws_per_s": ratio(c["rbm.draws"], ms("rbm.train") / 1e3),
            "rbm.recon_ce_calls_per_doc": ratio(c["rbm.recon_ce"], docs),
            "summarizer.select_ms_per_doc": ratio(ms(SELECT), docs),
            "summarizer.jaccard_calls_per_doc": ratio(c["summarizer.jaccard"], docs),
            "summarizer.stem_builds_per_jaccard": ratio(
                c["summarizer.stem_builds"], c["summarizer.jaccard"]
            ),
            "summarizer.rank_assemble_ms_per_doc": ratio(ms("summarizer.rank_assemble"), docs),
            "evaluation.resolve_ms_per_doc": ratio(ms("evaluation.resolve_reference"), docs),
            "evaluation.load_corpus_ms": ratio(ms("evaluation.load_corpus"), ops),
            "evaluation.preprocess_calls_per_doc": ratio(c[PREPROCESS], docs),
            "cli.self_ms": ratio(self.self_ns["cli.main"] / 1e6, ops),
            "cli.load_lexicons_ms": ratio(ms("cli.load_lexicons"), ops),
        }

    def write(self, path) -> None:
        """Write the spans and counters as JSON."""
        payload = {
            "spans": [
                {"name": n, "start_ns": s, "end_ns": e, "parent": p}
                for n, s, e, p in filter(None, self.spans)
            ],
            "counts": dict(self.counts),
            "porter_distinct_words": len(self.porter_words),
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)
