"""The names and parameters that the benchmark in ``perfbench/`` relies on.

The benchmark's ``Tracer`` replaces module attributes by name and its
``Capture`` binds ``run_pipeline``'s parameters by name, so a rename in
the package would only show when the benchmark runs.  These tests
install both, as the benchmark does, and check what they record.
"""

import importlib
import math
import sys
from pathlib import Path

import pytest

from rbmsumm import RawDocument
from rbmsumm.assets import default_lexicons
from rbmsumm.document import Sentence
from rbmsumm.preprocess import tokenize
from rbmsumm.rbm import TrainConfig
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
    assert sorted(source_id for source_id, _ in resolved) == sorted(ids)
    assert tracer.counts["preprocess.preprocess"] == len(ids) + 1
    assert tracer.counts["evaluation.compare_modes"] == 1
    assert _attributes() == before


@pytest.mark.parametrize(
    "layers, anchor",
    [
        pytest.param(1, "latest", id="1"),
        pytest.param(2, "latest", id="2"),
        pytest.param(1, "first", id="1-first"),
        pytest.param(2, "first", id="2-first"),
    ],
)
def test_layer_counters_of_one_pipeline_run(bench, article_raw, layers, anchor):
    """Counts, not timings: each is exact for a given document and config."""
    tracing, _ = bench
    summarizer = importlib.import_module("rbmsumm.summarizer")
    default_lexicons()
    tracer = tracing.Tracer().install()
    try:
        result = summarizer.run_pipeline(article_raw, layers=layers, anchor=anchor)
    finally:
        tracer.close()
    metrics = tracer.layer_metrics(ops=1, docs=1, rounds=1)
    assert tracer.counts["preprocess.tokens"] > 0
    assert metrics["preprocess.token_rebuilds_per_token"] == 0
    assert metrics["features.tf_isf_calls_per_sentence"] == 1
    # chain initialization, then per update one hidden and one visible
    # sample of every chain, for each stacked machine
    c = TrainConfig()
    n, units = result.doc.n_sentences, 9
    per_machine = c.n_chains * units + (
        c.epochs * math.ceil(n / c.batch_size) * c.gibbs_steps_per_update
        * c.n_chains * (units + units)
    )
    assert tracer.counts["rbm.draws"] == layers * per_machine
    # one stem per distinct alphabetic word, separately at and away from
    # the sentence start, counted here from each sentence's own text
    pairs = {
        (surface, i == 0)
        for sentence in result.doc.sentences
        for i, surface in enumerate(tokenize(sentence.original_text))
        if surface.lower().isalpha()
    }
    assert tracer.counts["preprocess.porter_calls"] == len(pairs)
    # selection scores without jaccard, from one content_stems call per
    # top-half candidate, however many picks it makes
    assert tracer.counts["summarizer.jaccard"] == 0
    assert metrics["summarizer.jaccard_calls_per_doc"] == 0
    assert tracer.counts["summarizer.stem_builds"] == math.ceil(n / 2)
