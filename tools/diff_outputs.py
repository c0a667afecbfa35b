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
difference is printed, and the exit code is 1 if there is any.  A
differing ``summarize --format json`` or ``features`` output also gets
the largest distance in ULPs (units in the last place) between its
floats, each paired with the float at the same place on the other side,
and a summary says whether its ``selected_indices`` or its rank order,
the ``doc_index`` order of its ``scores``, changed; its scores are
paired by ``doc_index``.  The report ends with the line counts of
``src/rbmsumm/*.py`` on both sides and their difference.

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
import struct
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


def ulps(a: float, b: float) -> int:
    """The number of doubles from ``a`` to ``b``; 0.0 and -0.0 are one."""
    keys = []
    for x in (a, b):
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        # negative doubles count down from -0.0, which meets 0.0
        keys.append(bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF))
    return abs(keys[0] - keys[1])


def float_pairs(a, b) -> list[tuple[float, float]] | None:
    """The floats at the same places of two parsed JSON values, or None
    where the two differ in shape; other scalars are passed over."""
    if isinstance(a, float) and isinstance(b, float):
        return [(a, b)]
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        a, b = list(a.values()), list(b.values())
    if isinstance(a, list) and isinstance(b, list):
        pairs = [float_pairs(x, y) for x, y in zip(a, b)]
        if len(a) != len(b) or None in pairs:
            return None
        return [pair for inner in pairs for pair in inner]
    return [] if type(a) is type(b) and not isinstance(a, (dict, list)) else None


def float_report(argv: list[str], parent: bytes, change: bytes) -> str | None:
    """How a ``summarize --format json`` or ``features`` output moved:
    the largest ULP distance over its floats and, for a summary, whether
    its picks or its rank order changed.  None for other commands and
    for outputs that are not JSON."""
    summary = argv[0] == "summarize" and "json" in argv
    if not (summary or argv[0] == "features"):
        return None
    try:
        a, b = json.loads(parent), json.loads(change)
    except ValueError:
        return None
    notes = []
    if summary:
        same_picks = a["selected_indices"] == b["selected_indices"]
        same_ranks = [s["doc_index"] for s in a["scores"]] == [s["doc_index"] for s in b["scores"]]
        notes += [f"selected {'un' * same_picks}changed", f"rank order {'un' * same_ranks}changed"]
        # pair each sentence's score with its own
        a, b = (
            {**out, "scores": sorted(out["scores"], key=lambda s: s["doc_index"])}
            for out in (a, b)
        )
    pairs = float_pairs(a, b)
    if pairs is None:
        return "; ".join(["floats not paired: the outputs differ in shape", *notes])
    distance = max((ulps(x, y) for x, y in pairs), default=0)
    return "; ".join([f"largest float distance {distance} ULP", *notes])


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
        if not parts:
            return None
        line = f"{' '.join(argv)}: {', '.join(parts)} differ"
        # the output is the --output file when there is one, else stdout
        sink = "--output" in argv
        outputs = [side[3].get(OUTPUT) if sink else side[1] for side in (parent, change)]
        report = None if None in outputs else float_report(argv, *outputs)
        return f"{line} ({report})" if report else line

    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        return [line for line in pool.map(compare, matrix) if line]


def line_report(parent_src: Path, change_src: Path) -> str:
    """The ``rbmsumm/*.py`` line counts, as ``wc -l`` counts them, under
    both ``src`` trees and their difference."""
    parent, change = (
        sum(path.read_bytes().count(b"\n") for path in (src / "rbmsumm").glob("*.py"))
        for src in (parent_src, change_src)
    )
    return (
        f"src/rbmsumm/*.py: {parent} lines at HEAD, {change} in the working tree "
        f"({change - parent:+d})"
    )


def main() -> int:
    bench_pairs = _load(ROOT / "tools" / "bench_pairs.py")
    with tempfile.TemporaryDirectory(prefix="diff-outputs-parent-") as parent, \
            tempfile.TemporaryDirectory(prefix="diff-outputs-inputs-") as inputs:
        bench_pairs.export_commit("HEAD", Path(parent))
        matrix = command_matrix(*build_inputs(Path(inputs)))
        found = differences(Path(parent) / "src", ROOT / "src", matrix)
        lines = line_report(Path(parent) / "src", ROOT / "src")
    for line in found:
        print(line)
    print(f"{len(matrix)} commands, {len(found)} with different outputs", file=sys.stderr)
    print(lines, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
