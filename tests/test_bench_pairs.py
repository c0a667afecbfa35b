"""``tools/bench_pairs.py``: the summary it writes from alternating runs,
the seed it runs, the checkouts it runs in, and the printed figures each
run keeps."""

import importlib.util
import json
import subprocess
import sys
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


def test_seed_reaches_every_run_and_the_recorded_command(tmp_path, monkeypatch):
    benchmark = {
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "latency_p50_ms", "better": "lower"}], "per_layer": [],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark))
    seeds = []

    def run_once(checkout, workload, seed, seconds, trace):
        seeds.append(seed)
        metrics = {"latency_p50_ms": {"value": 1.0, "unit": "ms"}}
        return {"correct": True, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "parent")
    monkeypatch.setattr(bench_pairs, "export_commit", lambda commit, dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--pr", "0", "--what", "x", "--seed", "7"])
    assert bench_pairs.main() == 0
    record = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert seeds == [7] * 2 * (bench_pairs.PAIRS + bench_pairs.TRACED_PAIRS)
    assert "--seed 7 " in record["command"]
    assert {r["seed"] for r in record["runs"]} == {7}
    assert list(record["summary"]) == ["w seed=7"]


def test_both_sides_run_from_sibling_copies_of_their_trees(tmp_path, monkeypatch):
    """The parent side from its commit and the change side from a copy
    of the working tree, edits and untracked files included, and neither
    from the repository itself."""
    repo = tmp_path / "repo"
    repo.mkdir()
    benchmark = {
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "latency_p50_ms", "better": "lower"}], "per_layer": [],
    }
    (repo / "BENCHMARK.json").write_text(json.dumps(benchmark))
    (repo / "tracked.txt").write_text("committed\n")
    (repo / ".gitignore").write_text("ignored.txt\n")

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=repo, check=True, stdout=subprocess.DEVNULL,
        )

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    (repo / "tracked.txt").write_text("edited\n")
    (repo / "untracked.txt").write_text("new\n")
    (repo / "ignored.txt").write_text("left behind\n")
    seen = {}

    def run_once(checkout, workload, seed, seconds, trace):
        files = {p.name: p.read_text() for p in checkout.iterdir() if p.is_file()}
        seen.setdefault(checkout, files)
        metrics = {"latency_p50_ms": {"value": 1.0, "unit": "ms"}}
        return {"correct": True, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--pr", "0", "--what", "x"])
    assert bench_pairs.main() == 0
    assert len(seen) == 2 and repo not in seen
    assert len({checkout.parent for checkout in seen}) == 1
    parent, change = seen.values()  # the first pair runs the parent first
    assert parent["tracked.txt"] == "committed\n" and "untracked.txt" not in parent
    assert change["tracked.txt"] == "edited\n"
    assert change["untracked.txt"] == "new\n"
    assert "ignored.txt" not in change


def test_a_run_keeps_the_figures_printed_before_its_result(tmp_path):
    # lines as perfbench/run.py prints them, traced and untraced
    printed = [
        "workload=w seed=1 operations=3",
        "wall latency p50: 3.0000 ms traced, 2.0000 ms in the untraced first round, overhead 50.0%",
        "latency_tail_ms: 250.1234 ms (p99 of 500 operations)",
        "evaluation.resolve_ms_per_doc: 1.14 ms",
        "evaluation.load_corpus_ms: not called",
        "cli.self_ms: 2.5e-05 ms",
        "rbm.train_ms_per_doc: 4 ms",
    ]
    metrics = {"rbm.train_ms_per_doc": {"value": 4.0, "unit": "ms"}}
    final = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
    script = tmp_path / "perfbench" / "run.py"
    script.parent.mkdir()
    stdout = "\n".join([*printed, json.dumps(final)])
    script.write_text(f"print({stdout!r})\n")
    result = bench_pairs.run_once(tmp_path, "w", 1, 1.0, 1)
    assert result["metrics"] == metrics
    assert result["figures"] == {
        "latency_tail_ms": {"value": 250.1234, "unit": "ms"},
        "evaluation.resolve_ms_per_doc": {"value": 1.14, "unit": "ms"},
        "cli.self_ms": {"value": 2.5e-05, "unit": "ms"},
    }
