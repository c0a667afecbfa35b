"""Run one workload in this process and print its raw measurements.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON
line: operation times, sentences per second of each operation, counts,
peak memory and, when traced, the per-layer metrics.  Whole rounds of the
workload's operations run until ``--seconds`` have passed; each
operation is checked after its timer stops.  An untraced run also gives
each operation's time corrected for the host's speed (``yardstick.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import inspect
import io
import json
import resource
import sys
import time
from pathlib import Path

import checks
import gen
from tracing import Tracer
from yardstick import Sampler


class Capture:
    """Records what ``evaluate_corpus`` computes per document, for the checks.

    ``evaluation`` looks up ``run_pipeline`` and ``resolve_reference`` at
    call time; the wrappers add one call and one list append each.
    """

    def __init__(self, evaluation):
        self.pipelines: list[tuple[str, int, object]] = []
        self.resolved: list[tuple[str, frozenset]] = []
        run_pipeline = evaluation.run_pipeline
        resolve_reference = evaluation.resolve_reference
        signature = inspect.signature(run_pipeline)

        def capture_pipeline(*args, **kwargs):
            result = run_pipeline(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            arguments = bound.arguments
            self.pipelines.append((arguments["raw"].source_id, arguments["layers"], result))
            return result

        def capture_resolve(reference, doc, *args, **kwargs):
            resolved = resolve_reference(reference, doc, *args, **kwargs)
            self.resolved.append((reference.source_id, resolved))
            return resolved

        evaluation.run_pipeline = capture_pipeline
        evaluation.resolve_reference = capture_resolve

    def take(self):
        taken = self.pipelines, self.resolved
        self.pipelines, self.resolved = [], []
        return taken


def _check_evaluation(gdocs, pipelines, resolved, anchor):
    """Check every captured pipeline run and reference; return the
    recomputed P/R/F per document and layer count."""
    by_id = {g.doc_id: g for g in gdocs}
    scores: dict[int, dict[str, tuple]] = {}
    for doc_id, layers, result in pipelines:
        gdoc = by_id[doc_id]
        checks.check_pipeline(result, gdoc, anchor)
        value = checks.prf(result.summary.selected, gdoc.reference)
        previous = scores.setdefault(layers, {}).setdefault(doc_id, value)
        checks.require(previous == value, f"{doc_id}: repeated pipeline runs disagree")
    for doc_id, indices in resolved:
        checks.check_resolved(indices, by_id[doc_id])
    for layers, by_doc in scores.items():
        checks.require(set(by_doc) == set(by_id), f"a {layers}-layer run is missing")
    checks.require({d for d, _ in resolved} == set(by_id), "a reference was not resolved")
    return scores


class LongReport:
    """One summary of one long report through ``run_pipeline``."""

    def __init__(self, seed: int, work: Path):
        from rbmsumm import RawDocument

        self.summarizer = importlib.import_module("rbmsumm.summarizer")
        (self.gdoc,) = gen.long_report(seed)
        self.raw = RawDocument(text=self.gdoc.text, source_id=self.gdoc.doc_id)
        self.operations = [0]
        self.docs_per_op = 1

    def sentences(self, _: int) -> int:
        return self.gdoc.n_sentences

    def run(self, _: int):
        return self.summarizer.run_pipeline(self.raw)

    def verify(self, _: int, result) -> str:
        checks.check_pipeline(result, self.gdoc, anchor="latest")
        return checks.digest_pipeline(result).hexdigest()


class NewsCorpus:
    """Each article summarized and scored through ``evaluate_corpus``."""

    def __init__(self, seed: int, work: Path):
        from rbmsumm import RawDocument, ReferenceSummary

        self.evaluation = importlib.import_module("rbmsumm.evaluation")
        self.capture = Capture(self.evaluation)
        self.gdocs = gen.news_corpus(seed)
        self.entries = [
            (
                RawDocument(text=g.text, source_id=g.doc_id),
                ReferenceSummary(source_id=g.doc_id, selected=frozenset(g.reference)),
            )
            for g in self.gdocs
        ]
        self.operations = list(range(len(self.gdocs)))
        self.docs_per_op = 1

    def sentences(self, i: int) -> int:
        return self.gdocs[i].n_sentences

    def run(self, i: int):
        evaluation = self.evaluation.evaluate_corpus([self.entries[i]])
        return self.evaluation.render_metrics_csv(evaluation)

    def verify(self, i: int, csv: str) -> str:
        gdoc = self.gdocs[i]
        pipelines, resolved = self.capture.take()
        scores = _check_evaluation([gdoc], pipelines, resolved, "latest")
        checks.require(list(scores) == [1], "expected one single-layer pipeline run")
        checks.check_metrics_csv(csv, scores[1])
        h = hashlib.sha256(csv.encode())
        for _, _, result in pipelines:
            checks.digest_pipeline(result, h)
        return h.hexdigest()


class CompareCorpus:
    """``rbmsumm evaluate --compare --similarity-anchor first`` in-process."""

    def __init__(self, seed: int, work: Path):
        self.cli = importlib.import_module("rbmsumm.cli")
        self.capture = Capture(importlib.import_module("rbmsumm.evaluation"))
        self.gdocs = gen.compare_corpus(seed)
        corpus = work / "corpus"
        corpus.mkdir(parents=True)
        for g in self.gdocs:
            (corpus / f"{g.doc_id}.txt").write_text(g.text, encoding="utf-8")
            (corpus / f"{g.doc_id}.ref").write_text("\n".join(g.ref_lines()) + "\n", encoding="utf-8")
        self.metrics = work / "metrics.csv"
        self.comparison = work / "metrics.compare.csv"
        self.argv = [
            "evaluate", str(corpus), "--compare", "--similarity-anchor", "first",
            "--output", str(self.metrics),
        ]
        self.operations = [0]
        self.docs_per_op = len(self.gdocs)

    def sentences(self, _: int) -> int:
        return sum(g.n_sentences for g in self.gdocs)

    def run(self, _: int):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = self.cli.main(self.argv)
        return code, err.getvalue()

    def verify(self, _: int, outcome) -> str:
        code, err = outcome
        checks.require(code == 0, f"evaluate exited {code}: {err.strip()}")
        metrics = self.metrics.read_text("utf-8")
        comparison = self.comparison.read_text("utf-8")
        pipelines, resolved = self.capture.take()
        scores = _check_evaluation(self.gdocs, pipelines, resolved, "first")
        checks.require(sorted(scores) == [1, 2], "expected one- and two-layer runs")
        checks.check_metrics_csv(metrics, scores[1])
        two = scores[2].values()
        two_mean = [sum(v[k] for v in two) / len(two) for k in range(3)]
        checks.check_comparison_csv(comparison, metrics, two_mean)
        h = hashlib.sha256((metrics + comparison).encode())
        for _, _, result in pipelines:
            checks.digest_pipeline(result, h)
        return h.hexdigest()


WORKLOADS = {
    "long_report": LongReport,
    "news_corpus": NewsCorpus,
    "compare_corpus": CompareCorpus,
}


def measure(workload, seconds: float, traced: bool) -> dict:
    """Run whole rounds of the workload's operations for ``seconds``.

    The first output of each operation is the reference that every
    repeat must match.  A traced run first makes that reference in an
    untraced round, so traced outputs are compared with untraced ones.
    """
    from rbmsumm.assets import default_lexicons

    default_lexicons()  # the one lazy set-up, paid once per process
    clock = time.perf_counter_ns
    reference: dict[int, str] = {}
    untraced_ns: list[int] = []
    if traced:
        for i in workload.operations:
            start = clock()
            outcome = workload.run(i)
            untraced_ns.append(clock() - start)
            reference[i] = workload.verify(i, outcome)
    tracer = Tracer().install() if traced else None
    sampler = None if traced else Sampler().start()
    spans: list[tuple[int, int, int]] = []  # operation, start, end
    failed = 0
    error = None
    deadline = clock() + int(seconds * 1e9)
    try:
        while clock() < deadline:
            for i in workload.operations:
                start = clock()
                try:
                    outcome = workload.run(i)
                except Exception as exc:  # counted, reported, and the run goes on
                    failed += 1
                    print(f"operation {i} failed: {exc!r}", file=sys.stderr)
                    continue
                spans.append((i, start, clock()))
                digest = workload.verify(i, outcome)
                del outcome  # the next operation's peak memory is its own
                checks.require(
                    reference.setdefault(i, digest) == digest,
                    f"operation {i} output differs from its first run",
                )
    except checks.CheckFailed as exc:
        error = str(exc)
    finally:
        if tracer is not None:
            tracer.close()
        if sampler is not None:
            sampler.stop()
    result = {
        "correct": error is None,
        "error": error,
        "times_ns": [end - start for _, start, end in spans],
        "sentences": [workload.sentences(i) for i, _, _ in spans],
        "untraced_times_ns": untraced_ns,
        "attempted": len(spans) + failed,
        "failed": failed,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if sampler is not None:
        result["corrected_ms"] = [sampler.corrected_ms(start, end) for _, start, end in spans]
        result["yardstick_ms"] = [ns / 1e6 for ns in sampler.ns]
    if tracer is not None:
        ops = len(spans)
        rounds = ops / len(workload.operations)
        result["layers"] = tracer.layer_metrics(ops, ops * workload.docs_per_op, rounds)
        result["tracer"] = tracer
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload](args.seed, args.work)
    result = measure(workload, args.seconds, bool(args.trace))
    tracer = result.pop("tracer", None)
    if tracer is not None:
        tracer.write(args.work / "trace.json")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
