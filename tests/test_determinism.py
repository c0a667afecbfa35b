"""A command's bytes do not depend on the process that runs it.

``features --layers 2`` and ``summarize --format json`` on the article
give the same stdout and stderr in a fresh process under two hash
seeds, and as a second ``main`` call in a process whose first-block
cache, which holds each block's uniforms and their logits, is warm.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rbmsumm
from rbmsumm import rng
from rbmsumm.cli import main

ARTICLE = str(Path(__file__).parent / "data" / "article_market.txt")
SRC = str(Path(rbmsumm.__file__).resolve().parent.parent)


def fresh_process(argv: list[str], hash_seed: int) -> tuple[bytes, bytes]:
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": str(hash_seed)}
    proc = subprocess.run(
        [sys.executable, "-m", "rbmsumm", *argv],
        env=env, stdin=subprocess.DEVNULL, capture_output=True, check=True,
    )
    return proc.stdout, proc.stderr


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
        assert fresh_process(argv, hash_seed) == warm, hash_seed
