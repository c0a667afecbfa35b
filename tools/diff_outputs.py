"""Check that every CLI output of the working tree matches ``HEAD``'s.

    python3 tools/diff_outputs.py

Run from the repository root.  The committed files of ``HEAD`` are
exported with ``bench_pairs.export_commit`` into a temporary directory;
the other side is the working tree.  Both sides run the same matrix of
``python -m rbmsumm`` commands, each with its own ``src`` first on
``PYTHONPATH`` and in a fresh working directory, as many at once as
there are CPUs:

* ``summarize`` as text and as JSON, and ``features`` with and without
  ``--no-enhance``, on every single document;
* ``summarize`` as JSON under a ``--config`` file of non-default
  training settings (``TRAINING``: 16 chains, 3 Gibbs steps per update,
  batches of 7 rows), so that updates draw several times from wide
  chain blocks, on every single document;
* ``summarize`` as JSON with ``--ratio 0.9`` on every single document,
  so that the picks run past the top half into rank order;
* ``evaluate`` with and without ``--compare`` on every corpus;
* each with ``--layers 1`` and ``2`` and the result on stdout or in an
  ``--output`` file; ``summarize`` and ``evaluate`` with both similarity
  anchors, ``features`` (which takes no anchor) without one.

The documents are ``tests/data/article_market.txt``, the small
``EDGE_CASES`` document and, from ``perfbench/gen.py`` with seed 1, the
2000-sentence report and the first news article; the corpora are ``tests/data/corpus`` and the
seed-1 ``compare_corpus`` and ``news_corpus``.  Every run's exit code,
stdout, stderr and written files are compared byte for byte; each
difference is printed, and the exit code is 1 if there is any.

Both sides inherit the environment of this script, so a switch set on
its command line applies to both: for instance

    OPENBLAS_CORETYPE=Sandybridge python3 tools/diff_outputs.py

checks that the outputs keep their bytes under that BLAS kernel.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
OUTPUT = "out/result"  # relative to each run's directory, so both sides name it alike
CONFIG = "training.json"  # written next to the single documents
TRAINING = {"chains": 16, "gibbs_steps": 3, "batch_size": 7}
# sentences that the other inputs lack: stop words only, one word, a
# repeat, numerals only, and a paragraph of one sentence
EDGE_CASES = (
    "Reef fish numbers fell sharply in 2016. It was all of them. Reefs. "
    "Reef fish numbers fell sharply in 2016. 1500 2016 3.5.\n\n"
    "Divers counted the fish again in March.\n\n"
    "The reef recovered slowly after the storm. Tourism returned to the coast.\n"
)


def _load(path: Path):
    """The module at ``path``, registered as dataclasses need it."""
    spec = importlib.util.spec_from_file_location(f"diff_outputs_{path.stem}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_corpus(directory: Path, documents) -> None:
    """Generated documents as ``<id>.txt``/``<id>.ref`` pairs, as the
    benchmark writes them."""
    directory.mkdir()
    for g in documents:
        (directory / f"{g.doc_id}.txt").write_text(g.text, encoding="utf-8")
        ref = "\n".join(g.ref_lines()) + "\n"
        (directory / f"{g.doc_id}.ref").write_text(ref, encoding="utf-8")


def build_inputs(dest: Path, generated: bool = True) -> tuple[list[Path], list[Path]]:
    """The single documents and the corpus directories, under ``dest``,
    with the ``CONFIG`` file next to the documents."""
    data = ROOT / "tests" / "data"
    (dest / CONFIG).write_text(json.dumps(TRAINING), encoding="utf-8")
    documents = [dest / "article_market.txt", dest / "edge_cases.txt"]
    shutil.copyfile(data / "article_market.txt", documents[0])
    documents[1].write_text(EDGE_CASES, encoding="utf-8")
    corpora = [dest / "corpus"]
    shutil.copytree(data / "corpus", corpora[0])
    if generated:
        gen = _load(ROOT / "perfbench" / "gen.py")
        workloads = {name: make(SEED) for name, make in gen.WORKLOADS.items()}
        for name in ("long_report", "news_corpus"):
            documents.append(dest / f"{name}.txt")
            documents[-1].write_text(workloads[name][0].text, encoding="utf-8")
        for name in ("compare_corpus", "news_corpus"):
            corpora.append(dest / name)
            _write_corpus(corpora[-1], workloads[name])
    return documents, corpora


def command_matrix(documents: list[Path], corpora: list[Path]) -> list[list[str]]:
    """Every command line to compare, ``--output`` ones included."""
    anchors = [["--similarity-anchor", "first"], ["--similarity-anchor", "latest"]]
    config = str(documents[0].parent / CONFIG)
    variants = []
    for document in map(str, documents):
        variants += [
            (["summarize", document, "--format", "text"], anchors),
            (["summarize", document, "--format", "json"], anchors),
            (["summarize", document, "--format", "json", "--config", config], anchors),
            (["summarize", document, "--format", "json", "--ratio", "0.9"], anchors),
            (["features", document], [[]]),
            (["features", document, "--no-enhance"], [[]]),
        ]
    for corpus in map(str, corpora):
        variants += [(["evaluate", corpus], anchors), (["evaluate", corpus, "--compare"], anchors)]
    return [
        argv + ["--layers", layers] + anchor + sink
        for argv, argv_anchors in variants
        for layers, anchor, sink in itertools.product(
            ("1", "2"), argv_anchors, ([], ["--output", OUTPUT])
        )
    ]


def run(src: Path, argv: list[str]) -> tuple:
    """Exit code, stdout, stderr and every written file of one run of
    ``python -m rbmsumm`` on the package under ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory(prefix="diff-outputs-") as tmp:
        (Path(tmp) / OUTPUT).parent.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "rbmsumm", *argv],
            cwd=tmp, env=env, stdin=subprocess.DEVNULL, capture_output=True,
        )
        files = {
            str(path.relative_to(tmp)): path.read_bytes()
            for path in sorted(Path(tmp).rglob("*")) if path.is_file()
        }
    return proc.returncode, proc.stdout, proc.stderr, files


def differences(parent_src: Path, change_src: Path, matrix: list[list[str]]) -> list[str]:
    """One line for each command whose outputs differ between the two
    package trees, naming the parts that differ."""
    def compare(argv: list[str]) -> str | None:
        parent, change = run(parent_src, argv), run(change_src, argv)
        parts = [
            name for name, a, b in zip(("exit code", "stdout", "stderr"), parent, change) if a != b
        ]
        for name in sorted(set(parent[3]) | set(change[3])):
            if parent[3].get(name) != change[3].get(name):
                parts.append(f"file {name}")
        return f"{' '.join(argv)}: {', '.join(parts)} differ" if parts else None

    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        return [line for line in pool.map(compare, matrix) if line]


def main() -> int:
    bench_pairs = _load(ROOT / "tools" / "bench_pairs.py")
    with tempfile.TemporaryDirectory(prefix="diff-outputs-parent-") as parent, \
            tempfile.TemporaryDirectory(prefix="diff-outputs-inputs-") as inputs:
        bench_pairs.export_commit("HEAD", Path(parent))
        matrix = command_matrix(*build_inputs(Path(inputs)))
        found = differences(Path(parent) / "src", ROOT / "src", matrix)
    for line in found:
        print(line)
    print(f"{len(matrix)} commands, {len(found)} with different outputs", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
