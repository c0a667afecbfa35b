"""The summary that ``tools/bench_pairs.py`` writes from alternating runs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(side, pair, trace, value, failed=0):
    metric = "rbm.train_ms_per_doc" if trace else "latency_p50_ms"
    return {
        "workload": "w", "seed": 1, "trace": trace, "side": side, "pair": pair,
        "result": {
            "correct": failed == 0, "failed": failed,
            "metrics": {metric: {"value": value, "unit": "ms"}, "rate": {"value": value, "unit": "1/s"}},
        },
    }


def test_quartiles_pairs_won_and_directions():
    runs = [
        _run("parent", 1, 0, 10.0), _run("change", 1, 0, 9.0),
        _run("change", 2, 0, 11.0), _run("parent", 2, 0, 12.0),
        _run("parent", 3, 0, 8.0), _run("change", 3, 0, 8.0),  # a tie wins for neither
        _run("parent", 4, 0, 99.0),  # a pair without its change run is left out
        _run("parent", 1, 1, 5.0), _run("change", 1, 1, 4.0, failed=2),
    ]
    directions = {"latency_p50_ms": "lower", "rbm.train_ms_per_doc": "lower", "rate": "higher"}
    summary = bench_pairs.summarize(runs, directions)["w seed=1"]
    latency = summary["latency_p50_ms"]
    assert latency["parent"] == {"q1": 9.0, "median": 10.0, "q3": 11.0, "n": 3}
    assert latency["change"] == {"q1": 8.5, "median": 9.0, "q3": 10.0, "n": 3}
    assert (latency["change_better_pairs"], latency["pairs"]) == (2, 3)
    assert summary["rate"]["change_better_pairs"] == 0  # higher is better
    traced = summary["rbm.train_ms_per_doc (traced)"]
    assert traced["change"] == {"q1": 4.0, "median": 4.0, "q3": 4.0, "n": 1}
    assert traced["change_better_pairs"] == 1
    assert summary["all_correct"] is False
    assert summary["failed_operations"] == 2
