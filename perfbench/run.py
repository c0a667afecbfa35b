"""Benchmark for rbmsumm: one workload per call, timed end to end or per layer.

    python3 perfbench/run.py --workload long_report --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload runs in its own
single-threaded worker process (``worker.py``) over inputs generated
from ``--seed``; this process measures set-up time in fresh
interpreters, reads the worker's raw measurements, and prints the
metrics, ending with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with times
corrected for the host's drifting speed (``yardstick.py``); with
``--trace 1`` they are the per-layer ones from a traced run.  The
program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
WORKLOADS = ("long_report", "news_corpus", "compare_corpus")
SETUP_SAMPLES = 15
SETUP_CODE = "import rbmsumm; rbmsumm.assets.default_lexicons()"
BARE_CODE = "pass"
# The time of a bare ``python3 -c pass`` on the reference host (2 vCPUs,
# Python 3.11) in a fast phase.
REFERENCE_START_S = 0.06
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)
WORKER_GRACE_S = 120

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "sentences_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "preprocess.ms_per_doc": "ms",
    "preprocess.porter_unique_ratio": "ratio",
    "preprocess.token_rebuilds_per_token": "count",
    "features.ms_per_doc": "ms",
    "features.tf_isf_calls_per_sentence": "count",
    "rbm.train_ms_per_doc": "ms",
    "rbm.draws_per_s": "1/s",
    "rbm.recon_ce_calls_per_doc": "count",
    "summarizer.select_ms_per_doc": "ms",
    "summarizer.jaccard_calls_per_doc": "count",
    "summarizer.stem_builds_per_jaccard": "count",
    "summarizer.rank_assemble_ms_per_doc": "ms",
    "evaluation.preprocess_calls_per_doc": "count",
}
# Times of layers that only some workloads call: printed where called, but
# kept out of the JSON line, whose every metric must be measured on every
# workload (a time that is 0 on every run of a workload is no measurement).
PARTIAL_LAYER_UNITS = {
    "evaluation.resolve_ms_per_doc": "ms",
    "evaluation.load_corpus_ms": "ms",
    "cli.self_ms": "ms",
    "cli.load_lexicons_ms": "ms",
}


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # the same set and dict layouts in every run
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(samples: int) -> tuple[list[float], list[float]]:
    """Times from a fresh interpreter to ``import rbmsumm`` with the
    default lexicons loaded, as (corrected, wall) seconds.

    One unmeasured start first writes the bytecode caches.  A bare
    interpreter start runs before and after each measured start, and
    each measured start is scaled by ``REFERENCE_START_S`` over the mean
    of the two: the host's drift slows both alike.
    """
    env = _env()

    def start(code: str) -> float:
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=ROOT)
        return time.perf_counter() - began

    start(SETUP_CODE)
    bare = [start(BARE_CODE)]
    walls = []
    for _ in range(samples):
        walls.append(start(SETUP_CODE))
        bare.append(start(BARE_CODE))
    corrected = [
        wall * REFERENCE_START_S / ((before + after) / 2)
        for wall, before, after in zip(walls, bare, bare[1:])
    ]
    return corrected, walls


def tail(times_ms: list[float]) -> tuple[float, float] | None:
    """The highest ladder percentile with at least ten operations beyond it."""
    n = len(times_ms)
    if n < 40:
        return None
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= 10:
            ordered = sorted(times_ms)
            return q, ordered[min(n - 1, int(n * q / 100.0))]
    return None


def run_worker(args, work: Path) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
    ]
    proc = subprocess.run(
        command, env=_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=args.seconds + WORKER_GRACE_S,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"worker exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "rbmsumm" / "__init__.py").is_file():
        print(f"error: no rbmsumm package under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if not args.trace:
        setup = measure_setup(SETUP_SAMPLES // 2)
    raw = run_worker(args, work)
    if not raw["correct"]:
        print(f"check failed: {raw['error']}", file=sys.stderr)
        print(json.dumps({
            "correct": False,
            "attempted": max(1, raw["attempted"]),
            "failed": raw["failed"],
            "metrics": {},
        }))
        return 1
    wall_ms = [t / 1e6 for t in raw["times_ns"]]
    print(f"workload={args.workload} seed={args.seed} operations={len(wall_ms)}")
    if args.trace:
        metrics = {
            name: {"value": raw["layers"][name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
        traced = statistics.median(wall_ms)
        untraced = statistics.median(raw["untraced_times_ns"]) / 1e6
        print(
            f"wall latency p50: {traced:.4f} ms traced, {untraced:.4f} ms in the untraced "
            f"first round, overhead {100 * (traced / untraced - 1):.1f}%"
        )
        for name, unit in PARTIAL_LAYER_UNITS.items():
            value = raw["layers"][name]
            print(f"{name}: {value:.6g} {unit}" if value else f"{name}: not called")
    else:
        later = measure_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        setup_s, setup_wall_s = setup[0] + later[0], setup[1] + later[1]
        corrected_ms = raw["corrected_ms"]
        values = {
            "latency_p50_ms": statistics.median(corrected_ms),
            "sentences_per_s": statistics.median(
                n / (ms / 1e3) for n, ms in zip(raw["sentences"], corrected_ms)
            ),
            "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
            "setup_s": statistics.median(setup_s),
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
        found = tail(corrected_ms)
        if found is not None:
            q, value = found
            print(f"latency_tail_ms: {value:.4f} ms (p{q:g} of {len(corrected_ms)} operations)")
        print(
            f"wall clock: latency p50 {statistics.median(wall_ms):.4f} ms, "
            f"setup {statistics.median(setup_wall_s):.4f} s, yardstick median "
            f"{statistics.median(raw['yardstick_ms']):.4f} ms"
        )
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
