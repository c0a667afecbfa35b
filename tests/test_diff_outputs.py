"""``tools/diff_outputs.py`` on two copies of the package."""

import importlib.util
import json
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
    assert diff_outputs.differences(parent, change, matrix) == [
        f"{summarize}: file out/result differ",
        f"{features}: stdout differ",
        f"{evaluate}: file out/result, file out/result.compare.csv differ",
    ]
