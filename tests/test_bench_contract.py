"""The names and parameters that the benchmark in ``perfbench/`` relies on.

The benchmark's ``Tracer`` replaces module attributes by name and its
``Capture`` binds ``run_pipeline``'s parameters by name, so a rename in
the package would only show when the benchmark runs.  These tests
install both, as the benchmark does, and check what they record.
"""

import importlib
import sys
from pathlib import Path

import pytest

from rbmsumm import RawDocument
from rbmsumm.assets import default_lexicons
from rbmsumm.document import Sentence
from rbmsumm.rng import Xorshift64Star

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "corpus"
MODULES = ("cli", "evaluation", "summarizer", "preprocess", "features", "rbm", "rng", "document")


def _attributes() -> dict:
    """Every attribute a wrapper could replace."""
    state = {}
    for name in MODULES:
        module = importlib.import_module(f"rbmsumm.{name}")
        state.update({(name, k): v for k, v in vars(module).items()})
    for cls in (Xorshift64Star, Sentence):
        state.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return state


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    loaded = set(sys.modules)
    yield importlib.import_module("tracing"), importlib.import_module("worker")
    for name in set(sys.modules) - loaded:
        if str(ROOT / "perfbench") in str(getattr(sys.modules[name], "__file__", "")):
            del sys.modules[name]


def test_tracer_and_capture_see_one_run_per_mode(bench, tmp_path, capsys):
    tracing, worker = bench
    cli = importlib.import_module("rbmsumm.cli")
    evaluation = importlib.import_module("rbmsumm.evaluation")
    default_lexicons()  # loaded lazily once per process
    before = _attributes()
    capture = worker.Capture(evaluation)
    tracer = tracing.Tracer().install()
    try:
        code = cli.main([
            "evaluate", str(CORPUS), "--compare", "--similarity-anchor", "first",
            "--output", str(tmp_path / "m.csv"),
        ])
        raw = RawDocument(text="One sentence. And another one here.", source_id="extra")
        evaluation.run_pipeline(raw, anchor="first")
    finally:
        tracer.close()
        evaluation.run_pipeline, evaluation.resolve_reference = (
            before[("evaluation", "run_pipeline")],
            before[("evaluation", "resolve_reference")],
        )
    capsys.readouterr()
    assert code == 0
    pipelines, resolved = capture.take()
    seen: dict[str, list[int]] = {}
    for source_id, layers, _ in pipelines:
        seen.setdefault(source_id, []).append(layers)
    ids = sorted(p.stem for p in CORPUS.glob("*.txt"))
    assert {k: sorted(v) for k, v in seen.items()} == {
        **{doc: [1, 2] for doc in ids}, "extra": [1]
    }
    assert sorted(source_id for source_id, _ in resolved) == sorted(ids * 2)
    assert tracer.counts["preprocess.preprocess"] == 2 * len(ids) + 1
    assert tracer.counts["evaluation.compare_modes"] == 1
    assert _attributes() == before
