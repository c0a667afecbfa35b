"""A command's bytes do not depend on the process that runs it.

``features --layers 2`` and ``summarize --format json`` on the article
give the same stdout and stderr in a fresh process under two hash
seeds, and as a second ``main`` call in a process whose first-block
cache, which holds each block's uniforms and their logits, is warm.
They also do under a random hash seed with one and with two OpenBLAS
threads, and when the article comes on stdin (``-``) in place of its
path.  ``evaluate --compare --output`` on the test corpus writes the
same stdout, stderr and both CSV files in this process and in fresh
ones under those thread counts.  Both single-document commands also
give the warm call's bytes under those settings on a generated report
of a few hundred sentences.
"""

import importlib
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import rbmsumm
from rbmsumm import rng
from rbmsumm.cli import main

DATA = Path(__file__).parent / "data"
ARTICLE = str(DATA / "article_market.txt")
CORPUS = str(DATA / "corpus")
SRC = str(Path(rbmsumm.__file__).resolve().parent.parent)
PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
# a random hash seed, each with its own OpenBLAS thread count
THREADED = [
    {"PYTHONHASHSEED": "random", "OPENBLAS_NUM_THREADS": threads} for threads in ("1", "2")
]


def fresh_process(argv: list[str], env: dict[str, str], stdin: bytes | None = None,
                  cwd: Path | None = None) -> tuple[bytes, bytes]:
    """Stdout and stderr of ``python -m rbmsumm argv`` with ``env`` set;
    stdin is ``stdin`` or empty."""
    proc = subprocess.run(
        [sys.executable, "-m", "rbmsumm", *argv],
        env={**os.environ, "PYTHONPATH": SRC, **env}, input=stdin or b"",
        capture_output=True, check=True, cwd=cwd,
    )
    return proc.stdout, proc.stderr


def in_parallel(calls):
    """The results of the zero-argument ``calls``, run two at a time."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(lambda call: call(), calls))


def warm_call(capsysbinary, argv: list[str]) -> tuple[bytes, bytes]:
    """The bytes of a second ``main(argv)`` in this process; the first
    call leaves the generator's first blocks in their cache."""
    assert main(argv) == 0
    capsysbinary.readouterr()
    hits = rng._first_block.cache_info().hits
    assert main(argv) == 0
    assert rng._first_block.cache_info().hits > hits
    captured = capsysbinary.readouterr()
    return captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [["features", ARTICLE, "--layers", "2"], ["summarize", ARTICLE, "--format", "json"]],
    ids=["features", "summarize"],
)
def test_fresh_and_warm_processes_give_the_same_bytes(capsysbinary, argv):
    warm = warm_call(capsysbinary, argv)
    assert warm[0] and warm[1].startswith(b"seed=42 ")
    for hash_seed in (0, 1):
        assert fresh_process(argv, {"PYTHONHASHSEED": str(hash_seed)}) == warm, hash_seed


@pytest.mark.parametrize(
    "argv",
    [["features", "--layers", "2"], ["summarize", "--format", "json"]],
    ids=["features", "summarize"],
)
def test_thread_counts_random_hash_seeds_and_stdin_give_the_same_bytes(capsysbinary, argv):
    command, *flags = argv
    warm = warm_call(capsysbinary, [command, ARTICLE, *flags])
    article = Path(ARTICLE).read_bytes()
    one_thread, two_threads = THREADED
    from_file, from_stdin = in_parallel([
        lambda: fresh_process([command, ARTICLE, *flags], one_thread),
        lambda: fresh_process([command, "-", *flags], two_threads, stdin=article),
    ])
    assert from_file == warm
    assert from_stdin == warm


def test_evaluate_compare_writes_the_same_files_in_every_process(
    capsysbinary, tmp_path, monkeypatch
):
    argv = ["evaluate", CORPUS, "--compare", "--output", "out/metrics.csv"]
    runs = [tmp_path / name for name in ("here", "one_thread", "two_threads")]
    for run in runs:
        (run / "out").mkdir(parents=True)
    monkeypatch.chdir(runs[0])
    assert main(argv) == 0
    captured = capsysbinary.readouterr()
    here = (captured.out, captured.err)
    assert here[1].startswith(b"seed=42 ")
    fresh = in_parallel([
        lambda env=env, run=run: fresh_process(argv, env, cwd=run)
        for env, run in zip(THREADED, runs[1:])
    ])
    written = [
        {path.name: path.read_bytes() for path in sorted((run / "out").iterdir())} for run in runs
    ]
    assert sorted(written[0]) == ["metrics.compare.csv", "metrics.csv"]
    for run_bytes, run_files in zip(fresh, written[1:]):
        assert run_bytes == here
        assert run_files == written[0]


def test_a_generated_report_gives_the_same_bytes_in_every_process(
    capsysbinary, tmp_path, monkeypatch
):
    # the first 75 paragraphs, 308 sentences, of the benchmark's seed-1 report
    monkeypatch.syspath_prepend(PERFBENCH)
    (generated,) = importlib.import_module("gen").long_report(1)
    del sys.modules["gen"]
    report = tmp_path / "report.txt"
    report.write_text("\n\n".join(generated.text.split("\n\n")[:75]) + "\n", "utf-8")
    commands = [
        ["features", str(report), "--layers", "2"],
        ["summarize", str(report), "--format", "json"],
    ]
    warm = [warm_call(capsysbinary, argv) for argv in commands]
    assert warm[1][1].startswith(b"seed=42 sentences=308 ")
    fresh = in_parallel([
        lambda argv=argv, env=env: fresh_process(argv, env) for argv in commands for env in THREADED
    ])
    assert fresh == [bytes_ for bytes_ in warm for _ in THREADED]
