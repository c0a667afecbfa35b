"""``tools/diff_outputs.py`` on two copies of the package."""

import importlib.util
import json
import math
import re
import shutil
from pathlib import Path

import rbmsumm

TOOL = Path(__file__).resolve().parent.parent / "tools" / "diff_outputs.py"
_spec = importlib.util.spec_from_file_location("diff_outputs", TOOL)
diff_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_outputs)

PACKAGE = Path(rbmsumm.__file__).resolve().parent


def _copy_package(dest: Path) -> Path:
    shutil.copytree(PACKAGE, dest / "rbmsumm", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_matrix_covers_every_subcommand_layer_anchor_and_sink(tmp_path):
    documents, corpora = diff_outputs.build_inputs(tmp_path, generated=False)
    matrix = diff_outputs.command_matrix(documents, corpora)
    # two documents and one corpus; each variant 2 layers x 2 sinks;
    # summarize's 4 and evaluate's 2 with 2 anchors, features' 2 with
    # none, since it does not read the anchor
    assert [path.name for path in documents] == ["article_market.txt", "edge_cases.txt"]
    assert len(matrix) == (2 * (4 * 2 + 2) + 2 * 2) * 4
    configured = [argv for argv in matrix if "--config" in argv]
    assert len(configured) == 2 * 2 * 4
    assert {argv[0] for argv in configured} == {"summarize"}
    config = Path(configured[0][configured[0].index("--config") + 1])
    assert json.loads(config.read_text("utf-8")) == diff_outputs.TRAINING
    assert len({tuple(argv) for argv in matrix}) == len(matrix)
    assert {argv[0] for argv in matrix} == {"summarize", "features", "evaluate"}
    assert sum("--output" in argv for argv in matrix) == len(matrix) // 2
    assert {argv[argv.index("--layers") + 1] for argv in matrix} == {"1", "2"}
    anchored = [argv for argv in matrix if "--similarity-anchor" in argv]
    assert {argv[argv.index("--similarity-anchor") + 1] for argv in anchored} == {"first", "latest"}
    assert [argv for argv in matrix if argv not in anchored and argv[0] != "features"] == []
    # past the top half: 0.9 of N outruns the ceil(N / 2) candidates
    past_half = [argv for argv in matrix if "--ratio" in argv]
    assert len(past_half) == 2 * 2 * 2 * 2
    assert {argv[argv.index("--ratio") + 1] for argv in past_half} == {"0.9"}
    assert {argv[0] for argv in past_half} == {"summarize"}


def test_identical_copies_match_and_a_stop_word_edit_is_reported(tmp_path):
    parent = _copy_package(tmp_path / "parent")
    change = _copy_package(tmp_path / "change")
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    documents, corpora = diff_outputs.build_inputs(inputs, generated=False)
    article, corpus = str(documents[0]), str(corpora[0])
    matrix = [
        ["summarize", article, "--format", "json", "--output", diff_outputs.OUTPUT],
        ["features", article],
        ["evaluate", corpus, "--compare", "--output", diff_outputs.OUTPUT],
    ]
    assert diff_outputs.differences(parent, change, matrix) == []

    stopwords = change / "rbmsumm" / "assets" / "stopwords.txt"
    lines = stopwords.read_text("utf-8").splitlines(keepends=True)
    stopwords.write_text("".join(line for line in lines if line != "the\n"), "utf-8")
    assert len(stopwords.read_text("utf-8").splitlines()) == len(lines) - 1
    summarize, features, evaluate = (" ".join(argv) for argv in matrix)
    found = diff_outputs.differences(parent, change, matrix)
    assert [line.partition(" (")[0] for line in found] == [
        f"{summarize}: file out/result differ",
        f"{features}: stdout differ",
        f"{evaluate}: file out/result, file out/result.compare.csv differ",
    ]
    # the JSON outputs say how far their floats moved; the CSVs do not
    assert re.fullmatch(
        r".* \(largest float distance \d+ ULP; selected changed; rank order changed\)", found[0]
    )
    assert re.fullmatch(r".* \(largest float distance \d+ ULP\)", found[1])
    assert "(" not in found[2]


def test_the_line_report_counts_the_package_modules_of_both_trees(tmp_path):
    parent = _copy_package(tmp_path / "parent")
    change = _copy_package(tmp_path / "change")
    lines = sum(len(path.read_text("utf-8").splitlines()) for path in PACKAGE.glob("*.py"))
    same = f"src/rbmsumm/*.py: {lines} lines at HEAD, {lines} in the working tree (+0)"
    assert diff_outputs.line_report(parent, change) == same
    # three lines more in a module, and a file that is not a module
    with (change / "rbmsumm" / "cli.py").open("a", encoding="utf-8") as module:
        module.write("\n# one\n# two\n")
    (change / "rbmsumm" / "notes.txt").write_text("not counted\n", "utf-8")
    assert diff_outputs.line_report(parent, change) == (
        f"src/rbmsumm/*.py: {lines} lines at HEAD, {lines + 3} in the working tree (+3)"
    )
    assert diff_outputs.line_report(change, parent).endswith(f"{lines} in the working tree (-3)")


def _summary(selected, ranked, text="t"):
    """A ``summarize --format json`` output of (doc_index, score) pairs,
    best first."""
    scores = [{"doc_index": i, "score": score} for i, score in ranked]
    payload = {"selected_indices": selected, "scores": scores, "text": text}
    return (json.dumps(payload, indent=2) + "\n").encode()


def _up(x: float, n: int) -> float:
    """``x`` moved ``n`` doubles toward +inf."""
    for _ in range(n):
        x = math.nextafter(x, math.inf)
    return x


def test_ulps_counts_doubles_across_zero():
    ulps = diff_outputs.ulps
    assert ulps(1.0, 1.0) == 0
    assert ulps(1.0, _up(1.0, 5)) == ulps(_up(1.0, 5), 1.0) == 5
    assert ulps(0.0, -0.0) == 0
    tiny = math.ulp(0.0)  # the smallest subnormal
    assert ulps(-tiny, tiny) == 2
    assert ulps(_up(-1.0, 3), -1.0) == 3


def test_a_summary_that_moved_by_a_few_ulps_keeps_its_picks_and_ranks():
    parent = _summary([4, 5], [(4, 4.7), (5, 4.6), (2, 4.5)])
    change = _summary([4, 5], [(4, _up(4.7, 3)), (5, 4.6), (2, _up(4.5, 1))])
    argv = ["summarize", "doc.txt", "--format", "json"]
    assert diff_outputs.float_report(argv, parent, change) == (
        "largest float distance 3 ULP; selected unchanged; rank order unchanged"
    )


def test_a_summary_whose_ranks_swapped_pairs_scores_by_sentence():
    # sentences 5 and 2 trade places; each keeps its own score bits but one
    parent = _summary([4], [(4, 4.7), (5, 4.6), (2, 4.6)])
    change = _summary([4], [(4, 4.7), (2, 4.6), (5, _up(4.6, 2))], text="u")
    argv = ["summarize", "doc.txt", "--format", "json", "--output", "out/result"]
    assert diff_outputs.float_report(argv, parent, change) == (
        "largest float distance 2 ULP; selected unchanged; rank order changed"
    )
    moved = _summary([5], [(5, 4.8), (4, 4.7), (2, 4.6)])
    assert diff_outputs.float_report(argv, parent, moved).endswith(
        "; selected changed; rank order changed"
    )


def test_features_report_the_largest_distance_and_text_outputs_none():
    rows = [
        {"doc_index": 0, "thematic": 0.375, "position": 1.0},
        {"doc_index": 1, "thematic": 0.5, "position": 0.25},
    ]
    moved = [dict(rows[0], position=_up(1.0, 7)), dict(rows[1], thematic=_up(0.5, 2))]
    features = ["features", "doc.txt"]
    parent, change, short = (json.dumps(v, indent=2).encode() for v in (rows, moved, rows[:1]))
    assert diff_outputs.float_report(features, parent, change) == "largest float distance 7 ULP"
    assert diff_outputs.float_report(features, parent, short) == (
        "floats not paired: the outputs differ in shape"
    )
    text = ["summarize", "doc.txt", "--format", "text"]
    assert diff_outputs.float_report(text, b"One.\n", b"Two.\n") is None
    evaluate = ["evaluate", "corpus"]
    assert diff_outputs.float_report(evaluate, b"a,b\n1.0,2.0\n", b"a,b\n1.0,2.5\n") is None
