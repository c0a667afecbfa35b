import argparse
import inspect
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rbmsumm
import rbmsumm.summarizer
from rbmsumm import RawDocument, run_pipeline
from rbmsumm.cli import _KEYS, _build_parser, _choices, _CliSettings, _parameter, main
from rbmsumm.rbm import MAX_CHAINS, TrainConfig
from rbmsumm.summarizer import DEFAULT_LIMIT_RATIO

DATA = Path(__file__).parent / "data"
ARTICLE = str(DATA / "article_market.txt")
CORPUS = str(DATA / "corpus")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(err, fragment):
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment in err


def assert_main_ends_cleanly(capsys, *argv):
    """``main`` exits with a code the CLI documents, with no traceback and
    no warning, and on failure with exactly one ``error:`` line, the last."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, *argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    assert [str(w.message) for w in caught] == []
    lines = err.splitlines(keepends=True)
    assert sum(line.startswith("error: ") for line in lines) == (1 if code else 0), err
    if code:
        assert lines[-1].startswith("error: ") and lines[-1].endswith("\n"), err
    return code


class TestSummarizeCommand:
    def test_matches_golden_summary(self, capsys):
        code, out, err = run_cli(
            capsys, "summarize", ARTICLE, "--ratio", "0.33", "--seed", "42"
        )
        assert code == 0
        assert out == (DATA / "golden_summary.txt").read_text("utf-8")

    def test_metadata_line_on_stderr(self, capsys):
        _, _, err = run_cli(capsys, "summarize", ARTICLE, "--seed", "42")
        assert "seed=42" in err
        assert "sentences=6" in err
        assert "limit=2" in err

    def test_limit_one_prints_top_ranked_sentence(self, capsys, article_raw):
        code, out, _ = run_cli(capsys, "summarize", ARTICLE, "--limit", "1")
        top = run_pipeline(article_raw).ranked[0].doc_index
        doc = run_pipeline(article_raw).doc
        assert code == 0
        assert out.strip() == doc.sentences[top].original_text

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "summarize", ARTICLE, "--format", "json", "--seed", "42"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"selected_indices", "scores", "text"}
        assert payload["selected_indices"] == sorted(payload["selected_indices"])
        assert len(payload["scores"]) == 6

    def test_empty_document_exits_3(self, capsys, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("   \n  \n")
        code, _, err = run_cli(capsys, "summarize", str(empty))
        assert code == 3
        assert "error" in err

    def test_unreadable_input_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "summarize", str(tmp_path / "missing.txt"))
        assert code == 2
        assert "error" in err

    def test_limit_zero_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "summarize", ARTICLE, "--limit", "0")
        assert code == 2
        assert out == ""
        assert_one_error_line(err, "limit_sentences")

    def test_latin1_input_exits_2(self, capsys, tmp_path):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("Caf\u00e9 prices rose again.".encode("latin-1"))
        code, _, err = run_cli(capsys, "summarize", str(latin1))
        assert code == 2
        assert_one_error_line(err, "UTF-8")

    def test_extreme_learning_rate_is_warning_free(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"learning_rate": 1000}))
        code, out, _ = run_cli(capsys, "summarize", ARTICLE, "--config", str(config))
        assert code == 0
        assert out.strip()

    @pytest.mark.parametrize("layers", ["1", "2"])
    def test_float_max_learning_rate_is_warning_free(self, capsys, tmp_path, layers):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"learning_rate": 1e308}))
        code, out, _ = run_cli(
            capsys, "summarize", ARTICLE, "--config", str(config), "--layers", layers
        )
        assert code == 0
        assert out.strip()

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("One sentence from a pipe."))
        code, out, _ = run_cli(capsys, "summarize", "-")
        assert code == 0
        assert out.strip() == "One sentence from a pipe."

    def test_undecodable_stdin_exits_2(self, capsys, monkeypatch):
        # as in UTF-8 mode, where stdin decodes with surrogateescape
        stdin = io.TextIOWrapper(
            io.BytesIO(b"Caf\xe9 prices rose."), encoding="utf-8", errors="surrogateescape"
        )
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run_cli(capsys, "summarize", "-")
        assert code == 2
        assert out == ""
        assert_one_error_line(err, "is not UTF-8")

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        for out in (out_a, out_b):
            assert main(
                ["summarize", ARTICLE, "--seed", "7", "--output", str(out)]
            ) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_can_change_output(self, capsys):
        _, base, _ = run_cli(capsys, "summarize", ARTICLE, "--seed", "42")
        _, other, _ = run_cli(capsys, "summarize", ARTICLE, "--seed", "0")
        assert base != other


class TestFeaturesCommand:
    def test_record_shape(self, capsys):
        code, out, _ = run_cli(capsys, "features", ARTICLE, "--seed", "42")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 6
        for i, record in enumerate(records):
            assert record["doc_index"] == i
            for name in (
                "thematic", "position", "length", "pos_in_para", "proper_nouns",
                "numerals", "named_entities", "tf_isf", "centroid_sim",
            ):
                assert name in record
            assert len(record["normalized"]) == 9
            assert len(record["enhanced"]) == 9
            assert "feature_sum" in record and "enhanced_sum" in record

    def test_no_enhance_omits_enhanced_fields(self, capsys):
        code, out, _ = run_cli(capsys, "features", ARTICLE, "--no-enhance")
        assert code == 0
        for record in json.loads(out):
            assert "enhanced" not in record
            assert "enhanced_sum" not in record
            assert "feature_sum" in record

    @pytest.mark.parametrize("layers", ["1", "2"])
    def test_no_enhance_drops_only_the_enhanced_fields(self, capsys, layers):
        _, full, _ = run_cli(capsys, "features", ARTICLE, "--layers", layers)
        _, bare, _ = run_cli(capsys, "features", ARTICLE, "--layers", layers, "--no-enhance")
        expected = [
            {k: v for k, v in r.items() if k not in ("enhanced", "enhanced_sum")}
            for r in json.loads(full)
        ]
        assert json.loads(bare) == expected

    @pytest.mark.parametrize("flags", [[], ["--no-enhance"]])
    def test_never_selects_a_summary(self, capsys, monkeypatch, flags):
        def select(*args, **kwargs):
            raise AssertionError("features ran sentence selection")

        monkeypatch.setattr(rbmsumm.summarizer, "select", select)
        code, _, _ = run_cli(capsys, "features", ARTICLE, *flags)
        assert code == 0

    @pytest.mark.parametrize(
        "flag", [["--similarity-anchor", "first"], ["--limit", "2"], ["--ratio", "0.9"]]
    )
    def test_rejects_the_summary_flags(self, capsys, flag):
        # features never reads them, so argparse rejects them as unknown
        with pytest.raises(SystemExit) as exc:
            main(["features", ARTICLE, *flag])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: rbmsumm features [-h]")
        assert f"rbmsumm features: error: unrecognized arguments: {' '.join(flag)}" in captured.err

    def test_config_file_may_hold_the_summary_keys(self, capsys, tmp_path):
        # one config file may serve every subcommand
        config = tmp_path / "c.json"
        config.write_text('{"similarity_anchor": "first", "limit": 2}')
        code, out, _ = run_cli(capsys, "features", ARTICLE, "--config", str(config))
        assert code == 0
        assert out == run_cli(capsys, "features", ARTICLE)[1]

    def test_sums_match_pipeline(self, capsys, article_raw):
        _, out, _ = run_cli(capsys, "features", ARTICLE, "--seed", "42")
        records = json.loads(out)
        result = run_pipeline(article_raw)
        for i, record in enumerate(records):
            assert record["feature_sum"] == pytest.approx(
                float(result.normalized.values[i].sum())
            )
            assert record["enhanced_sum"] == pytest.approx(
                float(result.enhanced.values[i].sum())
            )
            assert record["enhanced_sum"] == pytest.approx(
                result.summary.scores[
                    [r.doc_index for r in result.summary.scores].index(i)
                ].score
            )


class TestEvaluateCommand:
    def test_matches_golden_metrics(self, capsys):
        code, out, _ = run_cli(capsys, "evaluate", CORPUS, "--seed", "42")
        assert code == 0
        assert out == (DATA / "golden_metrics.csv").read_text("utf-8")

    def test_missing_reference_exits_4(self, capsys, tmp_path):
        (tmp_path / "lone.txt").write_text("A sentence without a reference.")
        code, _, err = run_cli(capsys, "evaluate", str(tmp_path))
        assert code == 4
        assert "lone" in err

    def test_latin1_document_exits_2(self, capsys, tmp_path):
        (tmp_path / "cafe.txt").write_bytes("Caf\u00e9 prices rose.".encode("latin-1"))
        (tmp_path / "cafe.ref").write_text("0\n")
        code, out, err = run_cli(capsys, "evaluate", str(tmp_path))
        assert code == 2
        assert out == ""
        assert_one_error_line(err, "utf-8")
        assert "cafe.txt" in err

    @pytest.mark.parametrize(
        "ref, fragment",
        [
            ("99\n", "out-of-range indices [99]"),
            ("No sentence of the battery story reads like this.\n", "not found in 'battery'"),
        ],
        ids=["index", "literal"],
    )
    def test_reference_that_does_not_fit_exits_2(self, capsys, tmp_path, ref, fragment):
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS, corpus)
        (corpus / "battery.ref").write_text(ref)
        code, out, err = run_cli(capsys, "evaluate", str(corpus))
        assert code == 2
        assert out == ""
        assert_one_error_line(err, fragment)

    def test_empty_corpus_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "evaluate", str(tmp_path))
        assert code == 2
        assert out == ""
        assert_one_error_line(err, "no .txt documents")

    def test_compare_writes_both_files(self, capsys, tmp_path):
        out = tmp_path / "metrics.csv"
        code, _, _ = run_cli(
            capsys, "evaluate", CORPUS, "--seed", "42", "--compare",
            "--output", str(out),
        )
        assert code == 0
        compare = tmp_path / "metrics.compare.csv"
        assert out.exists() and compare.exists()
        lines = compare.read_text().strip().split("\n")
        assert lines[0] == "metric,proposed_1layer,existing_2layer"
        assert len(lines) == 4

    def test_compare_one_layer_column_matches_standalone_mean(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.csv"
        assert main(
            ["evaluate", CORPUS, "--seed", "42", "--compare", "--output", str(metrics)]
        ) == 0
        capsys.readouterr()
        mean_row = [
            line for line in metrics.read_text().splitlines() if line.startswith("MEAN,")
        ][0]
        mean_cells = mean_row.split(",")[1:]
        compare_rows = (tmp_path / "metrics.compare.csv").read_text().splitlines()[1:]
        one_layer_cells = [row.split(",")[1] for row in compare_rows]
        assert one_layer_cells == mean_cells


    def test_compare_preprocesses_each_document_once(self, capsys, monkeypatch):
        calls = []
        preprocess = rbmsumm.summarizer.preprocess

        def counting(raw, *args, **kwargs):
            calls.append(raw.source_id)
            return preprocess(raw, *args, **kwargs)

        monkeypatch.setattr(rbmsumm.summarizer, "preprocess", counting)
        code, _, _ = run_cli(capsys, "evaluate", CORPUS, "--compare")
        assert code == 0
        ids = [p.stem for p in sorted(Path(CORPUS).glob("*.txt"))]
        assert sorted(calls) == sorted(ids)

    def test_compare_keeps_the_metrics_of_the_chosen_layers(self, capsys, tmp_path):
        plain = tmp_path / "plain" / "m.csv"
        compared = tmp_path / "compared" / "m.csv"
        for out, extra in ((plain, []), (compared, ["--compare"])):
            out.parent.mkdir()
            argv = ["evaluate", CORPUS, "--layers", "2", "--output", str(out), *extra]
            assert main(argv) == 0
        capsys.readouterr()
        assert compared.read_bytes() == plain.read_bytes()


class TestConfigPrecedence:
    def test_flags_beat_config_beats_defaults(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"limit": 3, "seed": 7}))
        # three-way conflict on the limit: default ratio 0.33 (-> 2),
        # config limit 3, flag limit 2; and a two-way conflict on seed
        code, _, err = run_cli(
            capsys, "summarize", ARTICLE, "--config", str(config), "--limit", "2"
        )
        assert code == 0
        assert "limit=2" in err
        assert "seed=7" in err  # config wins over the default 42

    def test_config_alone_overrides_default(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"limit": 3}))
        code, _, err = run_cli(capsys, "summarize", ARTICLE, "--config", str(config))
        assert code == 0
        assert "limit=3" in err
        assert "seed=42" in err

    def test_flag_ratio_clears_config_limit(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"limit": 5}))
        code, _, err = run_cli(
            capsys, "summarize", ARTICLE, "--config", str(config), "--ratio", "0.5"
        )
        assert code == 0
        assert "limit=3" in err  # ceil(0.5 * 6)

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lmiit": 3}))
        code, _, err = run_cli(capsys, "summarize", ARTICLE, "--config", str(config))
        assert code == 2
        assert "lmiit" in err

    def test_config_with_both_limits_rejected(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"limit": 2, "ratio": 0.4}))
        code, _, _ = run_cli(capsys, "summarize", ARTICLE, "--config", str(config))
        assert code == 2

    def test_custom_stopwords_flag(self, capsys, tmp_path):
        stopwords = tmp_path / "stop.txt"
        stopwords.write_text("market\nthe\n")
        code, out, _ = run_cli(
            capsys, "features", ARTICLE, "--no-enhance", "--stopwords", str(stopwords)
        )
        assert code == 0
        records = json.loads(out)
        # "market" flagged as a stop word: no sentence can count it as thematic
        assert all(r["thematic"] <= 0.5 for r in records)


@pytest.mark.parametrize(
    "config, flags, fragment",
    [
        ({"seed": "x"}, [], "'seed' must be int"),
        ({"epochs": 2.5}, [], "'epochs' must be int"),
        ({"layers": 3}, [], "'layers' must be one of"),
        ({"similarity_anchor": "middle"}, [], "'similarity_anchor' must be one of"),
        ([{"seed": 1}], [], "must hold a JSON object"),
        ({"format": "xml"}, [], "'format' must be one of"),
        ({"limit": True}, [], "'limit' must be int or null"),
        ({"stopwords": "{missing}"}, [], "cannot read word list"),
        (None, ["--stopwords", "{missing}"], "cannot read word list"),
        ({"lexicon_dir": "{missing}"}, [], "lexicon directory '{missing}'"),
        (None, ["--lexicon-dir", "{missing}"], "lexicon directory '{missing}'"),
        ({"learning_rate": math.nan}, [], "learning_rate must be finite"),
        ({"learning_rate": math.inf}, [], "learning_rate must be finite"),
        ({"learning_rate": 10**400}, [], "learning_rate must be finite"),
        # the first update moves a weight past the float maximum
        (
            {"learning_rate": 1.79e308, "epochs": 1, "batch_size": 1, "chains": 1},
            ["--seed", "1"],
            "non-finite RBM parameter",
        ),
        # rejected before any chain array is allocated
        ({"chains": 10**30}, [], "n_chains must be in [1, 65536]"),
        ({"chains": MAX_CHAINS + 1}, [], "n_chains must be in [1, 65536]"),
        # an epoch or Gibbs step count this large would never finish training
        ({"epochs": 10**20}, [], "epochs must be in [0, 65536]"),
        ({"gibbs_steps": 10**20}, [], "gibbs_steps_per_update must be in [1, 65536]"),
        # 1 / (2 * th_fraction * N) would overflow in the position feature
        ({"th_fraction": 1e-310}, [], "th_fraction must be in [2.2250738585072014e-308, 0.5)"),
        # the generator would reduce these modulo 2**64, onto legal seeds
        (None, ["--seed=-1"], "invalid setting: seed must be in [0, 2**64)"),
        (None, ["--seed", str(2**64)], "invalid setting: seed must be in [0, 2**64)"),
        ({"seed": -1}, [], "invalid setting: seed must be in [0, 2**64)"),
        ({"seed": 2**64}, [], "invalid setting: seed must be in [0, 2**64)"),
    ],
    ids=[
        "seed-str", "epochs-float", "layers-3", "anchor-middle", "top-level-list",
        "format-xml", "limit-bool", "stopwords-key-missing", "stopwords-flag-missing",
        "lexicon-dir-key-missing", "lexicon-dir-flag-missing", "learning-rate-nan",
        "learning-rate-infinity", "learning-rate-int-past-float-range",
        "learning-rate-overflows-a-parameter", "chains-1e30", "chains-past-bound",
        "epochs-1e20", "gibbs-steps-1e20", "th-fraction-below-normal-floats",
        "seed-flag-negative", "seed-flag-2-to-the-64", "seed-key-negative",
        "seed-key-2-to-the-64",
    ],
)
def test_bad_setting_exits_2(capsys, tmp_path, config, flags, fragment):
    missing = str(tmp_path / "missing.txt")
    argv = ["summarize", ARTICLE] + [f.format(missing=missing) for f in flags]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config).replace("{missing}", missing))
        argv += ["--config", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert_one_error_line(err, fragment.format(missing=missing))


_FUZZ_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400, -0.5, 0.0, 1e-300, 0.2, 0.5, 2.5]
)
# small counts keep each run fast; the large ones lie past every bound
# that a count has, and at and past the ends of int64 and uint64
_FUZZ_INTS = st.one_of(
    st.integers(-3, 6), st.sampled_from([2**16 + 1, 2**63, 2**64 - 1, 2**64, 10**20])
)
# relative paths land in the test's working directory
_FUZZ_STRINGS = st.sampled_from(["", "missing.txt"])
_FUZZ_SCALARS = st.one_of(st.none(), st.booleans(), _FUZZ_INTS, _FUZZ_FLOATS, _FUZZ_STRINGS)
_FUZZ_VALUES = st.one_of(
    _FUZZ_SCALARS, st.lists(st.one_of(_FUZZ_SCALARS, st.lists(_FUZZ_SCALARS, max_size=2)), max_size=2)
)


def _values_of_the_type(key):
    """Values of the type the key's parameter is annotated with: a
    ``Literal``'s own values, or values of each type it names."""
    choices = _choices(key)
    if choices:
        return st.sampled_from(choices)
    annotation = _parameter(key).annotation
    types = typing.get_args(annotation) or (annotation,)
    options = {
        type(None): st.none(), bool: st.booleans(), int: _FUZZ_INTS,
        float: _FUZZ_FLOATS, str: _FUZZ_STRINGS,
    }
    return st.one_of([v for t, v in options.items() if t in types])


@st.composite
def _fuzzed_configs(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_KEYS)), unique=True, max_size=6))
    mistyped = draw(st.sets(st.sampled_from(keys))) if keys else set()
    return {
        key: draw(_FUZZ_VALUES if key in mistyped else _values_of_the_type(key))
        for key in keys
    }


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from([["summarize", ARTICLE], ["features", ARTICLE], ["evaluate", CORPUS]]),
    config=_fuzzed_configs(),
)
def test_fuzzed_config_never_escapes_main(capsys, tmp_path, monkeypatch, command, config):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert_main_ends_cleanly(capsys, *command, "--config", str(path))


# pieces of document bytes: whitespace, punctuation, NUL, bytes that are
# not UTF-8, stop words, and sentences that may repeat
_DOCUMENT_PIECES = st.sampled_from([
    b" ", b"\n", b"\n\n", b"\t", b".", b"?!", b"...", b"-- ;", b"\x00", b"\xff", b"\xc3(",
    b"\xed\xa0\x80", b"The of and a in. ", b"Markets rose in Nairobi. ", b"Prices fell 12 points. ",
])
_DOCUMENT_COMMANDS = {
    "summarize-file": ["summarize", "{doc}"],
    "summarize-stdin": ["summarize", "-"],
    "features-file": ["features", "{doc}"],
    "features-stdin": ["features", "-"],
    "evaluate-one-document": ["evaluate", "{corpus}"],
}


@pytest.mark.parametrize("command", sorted(_DOCUMENT_COMMANDS))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(document=st.one_of(st.lists(_DOCUMENT_PIECES, max_size=8).map(b"".join), st.binary(max_size=12)))
@example(document=b"")
@example(document=b" \n\n\t ")
@example(document=b"... ?! -- ;")
@example(document=b"Markets\x00rose. \x00")
@example(document=b"Caf\xe9 prices rose.")
@example(document=b"Markets rose in Nairobi.")
@example(document=b"Markets rose. Markets rose. Markets rose.")
@example(document=b"The of and a in. It was the.")
def test_fuzzed_document_never_escapes_main(capsys, tmp_path, monkeypatch, command, document):
    doc = tmp_path / "doc.txt"
    corpus = tmp_path / "corpus"
    corpus.mkdir(exist_ok=True)
    doc.write_bytes(document)
    (corpus / "doc.txt").write_bytes(document)
    (corpus / "doc.ref").write_text("0\n")
    # as in UTF-8 mode, where stdin decodes with surrogateescape
    stdin = io.TextIOWrapper(io.BytesIO(document), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    assert_main_ends_cleanly(
        capsys, *[a.format(doc=doc, corpus=corpus) for a in _DOCUMENT_COMMANDS[command]]
    )


def _broken_symlink(path):
    path.symlink_to(path.with_name("missing" + path.suffix))


@pytest.mark.parametrize(
    "name, make, code, fragment",
    [
        ("doc.ref", Path.mkdir, 2, "Is a directory"),
        ("doc.ref", _broken_symlink, 4, "no reference file for document 'doc'"),
        ("doc.txt", _broken_symlink, 2, "No such file or directory"),
        ("doc.ref", lambda p: p.write_bytes(b"\xff\n"), 2, "doc.ref is not UTF-8"),
        # only a line of ASCII digits is an index; the rest are sentences
        ("doc.ref", lambda p: p.write_text("-1\n"), 2, "reference sentence not found"),
        ("doc.ref", lambda p: p.write_text(f"{10**30}\n"), 2, f"indices [{10**30}]"),
        ("doc.ref", lambda p: p.write_text("\u0661\n"), 2, "reference sentence not found"),
        ("doc.ref", lambda p: p.write_text("1_0\n"), 2, "not found in 'doc': '1_0'"),
    ],
    ids=[
        "ref-is-a-directory", "ref-is-a-broken-symlink", "txt-is-a-broken-symlink",
        "ref-not-utf-8", "negative-index", "huge-index", "arabic-indic-digit",
        "underscore-digits",
    ],
)
def test_odd_corpus_exits_with_one_error_line(capsys, tmp_path, name, make, code, fragment):
    """A one-document corpus whose file ``name`` ``make`` replaces."""
    (tmp_path / "doc.txt").write_text("Markets rose in Nairobi. Prices fell sharply.\n")
    (tmp_path / "doc.ref").write_text("0\n")
    (tmp_path / name).unlink()
    make(tmp_path / name)
    got, out, err = run_cli(capsys, "evaluate", str(tmp_path))
    assert got == code
    assert out == ""
    assert_one_error_line(err, fragment)


def test_the_largest_seed_runs_and_is_echoed(capsys):
    code, _, err = run_cli(capsys, "summarize", ARTICLE, "--seed", str(2**64 - 1))
    assert code == 0
    assert f"seed={2**64 - 1} " in err


# reference lines: indices in and out of the document's two sentences, a
# sign, a "_", non-ASCII digits, spaces, and sentences in and not in it
_REF_LINES = st.sampled_from([
    "0", "1", "2", "00", " 1 ", "", "-1", "+1", "1_0", "\u0660", "\u0661", "\u00b9",
    "\uff11", "Markets rose in Nairobi.", "prices fell sharply", "x",
])


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(lines=st.lists(_REF_LINES, max_size=4))
def test_fuzzed_reference_never_escapes_main(capsys, tmp_path, lines):
    """Lines that are all ASCII digits name indices, which must be in
    range; any other reference is sentences, which must be found."""
    (tmp_path / "doc.txt").write_text("Markets rose in Nairobi. Prices fell sharply.\n")
    (tmp_path / "doc.ref").write_text("\n".join(lines) + "\n")
    kept = [line.strip() for line in lines if line.strip()]
    if not kept:
        expected = 4
    elif all(line.isascii() and line.isdigit() for line in kept):
        expected = 0 if all(int(line) < 2 for line in kept) else 2
    else:
        found = {"Markets rose in Nairobi.", "prices fell sharply"}
        expected = 0 if set(kept) <= found else 2
    assert assert_main_ends_cleanly(capsys, "evaluate", str(tmp_path)) == expected


def test_each_settings_signature_is_read_once(capsys, monkeypatch):
    calls = []
    signature = inspect.signature

    def counting(owner, **kwargs):
        calls.append(owner)
        return signature(owner, **kwargs)

    _parameter.cache_clear()
    monkeypatch.setattr(inspect, "signature", counting)
    for _ in range(2):
        assert main(["summarize", ARTICLE, "--limit", "2"]) == 0
    capsys.readouterr()
    # one evaluation per key at most: 35 per main call before the cache
    assert 0 < len(calls) <= len(_KEYS)


def _subcommand_actions() -> dict[str, list[argparse.Action]]:
    """Each subcommand's actions, as the parser that ``main`` builds has them."""
    (subparsers,) = [
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {name: parser._actions for name, parser in subparsers.choices.items()}


_ARGV_ACTIONS = _subcommand_actions()
# one short document, and a corpus of it, keep each run fast
_ARGV_TEXT = "Markets rose in Nairobi. Prices fell 12 points. Markets rose again.\n"
# values inside and outside each flag's range, words, paths relative to
# the test's working directory, and strings with a newline or a NUL
_ARGV_INTS = ["0", "1", "2", "3", "-1", str(2**64 - 1), str(2**64), "1_0"]
_ARGV_FLOATS = ["0.5", "0.9", "1", "1.5", "0", "nan", "inf", "1e400"]
_ARGV_STRINGS = [
    "doc.txt", "corpus", "config.json", "missing.txt", "out/result", "doc.txt/x",
    "", " ", "-", "--", "x", "text", "json", "first", "latest", "a\nb", "a\x00b",
]
_ARGV_VALUES = st.sampled_from(_ARGV_INTS + _ARGV_FLOATS + _ARGV_STRINGS)
_ARGV_JUNK = st.sampled_from(
    ["--bogus", "-x", "--seed=", "--limit=2", "--layers=3", "--help=1", "-", "--", "summarize"]
)


def _flag_values(action: argparse.Action):
    """Mostly values that the flag's ``choices`` or type accept."""
    if action.choices:
        legal = [str(c) for c in action.choices]
    else:
        legal = {int: _ARGV_INTS, float: _ARGV_FLOATS}.get(action.type, _ARGV_STRINGS)
    return st.one_of(st.sampled_from(legal), st.sampled_from(legal), _ARGV_VALUES)


@st.composite
def _fuzzed_argv(draw):
    """Mostly a subcommand and its input, then flags of the parser's own
    actions with their values, and now and then no subcommand or a wrong
    one, a missing input, a stray value or a junk token."""
    commands = sorted(_ARGV_ACTIONS)
    command = draw(st.sampled_from(commands) if draw(st.integers(0, 9)) else st.sampled_from(
        ["summarise", None]
    ))
    actions = [a for a in _ARGV_ACTIONS.get(command, _ARGV_ACTIONS["summarize"]) if a.option_strings]
    argv = [] if command is None else [command]
    inputs = {"summarize": ["doc.txt", "-"], "features": ["doc.txt", "-"], "evaluate": ["corpus"]}
    if command in inputs and draw(st.integers(0, 9)):
        argv.append(draw(st.sampled_from(inputs[command])))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            argv.append(draw(_ARGV_VALUES))
        elif kind == 1:
            argv.append(draw(_ARGV_JUNK))
        else:
            action = draw(st.sampled_from(actions))
            flag = draw(st.sampled_from(action.option_strings))
            if action.nargs == 0:
                argv.append(flag)
                continue
            value = draw(_flag_values(action))
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=_fuzzed_argv())
@example(argv=[])
@example(argv=["summarize", "doc.txt", "--ratio", "nan"])
@example(argv=["evaluate", "corpus", "--compare", "--limit", "1", "--ratio", "0.5"])
@example(argv=["features", "-", "--similarity-anchor", "first"])
@example(argv=["summarize", "doc.txt", "--stopwords=--"])
@example(argv=["evaluate", "corpus", "--compare", "--output", ""])
@example(argv=["evaluate", "a\nb", "--output", "a\x00b"])
def test_fuzzed_argv_never_escapes_main(capsys, tmp_path, monkeypatch, argv):
    """``main`` exits with a code the CLI documents, with no traceback and
    no warning, and on failure with exactly one error line, the last:
    its own ``error:`` line or argparse's ``rbmsumm ...: error:`` one."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "doc.txt").write_text(_ARGV_TEXT)
    (tmp_path / "corpus").mkdir(exist_ok=True)
    (tmp_path / "corpus" / "doc.txt").write_text(_ARGV_TEXT)
    (tmp_path / "corpus" / "doc.ref").write_text("0\n")
    (tmp_path / "config.json").write_text('{"layers": 2}')
    (tmp_path / "out").mkdir(exist_ok=True)
    monkeypatch.setattr("sys.stdin", io.StringIO(_ARGV_TEXT))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    assert [str(w.message) for w in caught] == []
    lines = err.splitlines(keepends=True)
    errors = [line for line in lines if re.match(r"(rbmsumm( \w+)?: )?error: ", line)]
    assert len(errors) == (1 if code else 0), err
    if code:
        assert lines[-1] == errors[0] and lines[-1].endswith("\n"), err


@pytest.mark.parametrize(
    "argv",
    [
        ["summarize", ARTICLE],
        ["features", ARTICLE],
        ["evaluate", CORPUS],
        ["evaluate", CORPUS, "--compare"],
    ],
    ids=["summarize", "features", "evaluate", "evaluate-compare"],
)
def test_unwritable_output_exits_2(capsys, tmp_path, argv):
    target = tmp_path / "no-such-dir" / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert code == 2
    assert out == ""
    error = err.splitlines(keepends=True)[-1]  # after the seed= line
    assert_one_error_line(error, "cannot write output")
    assert str(target) in error


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["summarize", "a\x00b"], "cannot read input: embedded null byte"),
        (["features", "a\x00b"], "cannot read input: embedded null byte"),
        (["summarize", ARTICLE, "--output", "a\x00b"], "cannot write output: embedded null byte"),
        (["evaluate", CORPUS, "--output", "a\x00b"], "cannot write output: embedded null byte"),
        (["summarize", ARTICLE, "--config", "a\x00b"], "cannot read config file: embedded null"),
    ],
    ids=["input", "features-input", "output", "evaluate-output", "config"],
)
def test_a_nul_in_a_path_exits_2(capsys, argv, fragment):
    """``open`` refuses a path that holds a NUL with a ValueError, not an
    OSError; a real command line cannot carry one, but a caller of
    ``main`` can."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("error: ") == 1
    assert_one_error_line(err.splitlines(keepends=True)[-1], fragment)  # after any seed= line


def _latin1_document(path: Path) -> Path:
    path.write_bytes("Caf\xe9 prices rose. Markets fell.\n".encode("latin-1"))
    return path


# each case gives a command on a path that holds ``name``, and the
# fragment of its error line where the path shows as ``shown``
def _undecodable_input(tmp_path, name, shown):
    path = _latin1_document(tmp_path / f"{name}.txt")
    return ["summarize", str(path)], f"input {tmp_path}/{shown}.txt is not UTF-8"


def _missing_corpus(tmp_path, name, shown):
    return ["evaluate", str(tmp_path / name)], f"no .txt documents found in {tmp_path}/{shown}"


def _undecodable_corpus_document(tmp_path, name, shown):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    _latin1_document(corpus / f"{name}.txt")
    (corpus / f"{name}.ref").write_text("0\n")
    return ["evaluate", str(corpus)], f"cannot read corpus: {corpus}/{shown}.txt is not UTF-8"


@pytest.mark.parametrize("name, shown", [("a\nb", "a\\nb"), ("café", "café")])
@pytest.mark.parametrize(
    "case", [_undecodable_input, _missing_corpus, _undecodable_corpus_document]
)
def test_an_error_line_escapes_the_control_characters_of_a_path(
    capsys, tmp_path, case, name, shown
):
    """A newline in a path shows as ``\\n``, so the error stays one line;
    printable characters, accented letters too, keep their bytes."""
    argv, fragment = case(tmp_path, name, shown)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert_one_error_line(err, fragment)


def test_an_error_line_escapes_a_nul(capsys):
    code, _, err = run_cli(capsys, "evaluate", "a\x00b")
    assert code == 2
    assert_one_error_line(err, "no .txt documents found in a\\x00b")
    assert "\x00" not in err


def test_an_unrecognized_argument_is_escaped_in_the_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["summarize", ARTICLE, "a\nb", "c\x00d"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines(keepends=True)[-1] == (
        "rbmsumm summarize: error: unrecognized arguments: a\\nb c\\x00d\n"
    )


def test_an_ambiguous_option_is_escaped_in_the_usage_error(capsys):
    # argparse formats this one with %s before main sees the arguments
    with pytest.raises(SystemExit) as exc:
        main(["summarize", ARTICLE, "--s=a\nb"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines(keepends=True)[-1] == (
        "rbmsumm summarize: error: ambiguous option: --s=a\\nb could match "
        "--seed, --stopwords, --similarity-anchor\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["summarize", ARTICLE],
        ["features", ARTICLE],
        ["evaluate", CORPUS],
        ["evaluate", CORPUS, "--compare"],
    ],
    ids=["summarize", "features", "evaluate", "evaluate-compare"],
)
def test_closed_stdout_exits_2(argv):
    """Standard output is a pipe whose reader is gone before the run
    starts: one error line, no traceback, nothing more at exit."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    package_root = str(Path(rbmsumm.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rbmsumm", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    seed_line, error = proc.stderr.splitlines(keepends=True)
    assert seed_line.startswith("seed=")
    assert_one_error_line(error, "cannot write output")
    assert "Broken pipe" in error


@pytest.mark.parametrize(
    "argv",
    [
        ["features", ARTICLE, "--layers", "3"],
        ["summarize", ARTICLE, "--no-enhance"],
        ["evaluate", CORPUS, "--format", "json"],
        ["summarize", ARTICLE, "--seed=--"],  # which argparse reads as []
    ],
)
def test_a_rejected_flag_prints_the_subcommands_usage(capsys, argv):
    # a bad value or an unknown flag, with the usage line of the subcommand
    # given, not the root's
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: rbmsumm {argv[0]} [-h]"), err
    assert err.splitlines()[-1].startswith(f"rbmsumm {argv[0]}: error: ")


@pytest.mark.parametrize("command", ["summarize", "features", "evaluate"])
def test_help_shows_the_library_defaults(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
    anchor = inspect.signature(run_pipeline).parameters["anchor"].default
    layers = inspect.signature(run_pipeline).parameters["layers"].default
    assert f"RNG seed (default {TrainConfig().seed})" in text
    assert f"stacked (default {layers})" in text
    if command == "features":  # it selects no summary, so it takes neither flag
        assert "compares against" not in text and "fraction of N" not in text
    else:
        assert f"compares against (default {anchor})" in text
        assert f"fraction of N (default {DEFAULT_LIMIT_RATIO})" in text
    if command == "summarize":
        assert f"output format (default {_CliSettings().format})" in text


class TestLayersFlag:
    def test_layers_change_output_bytes(self, capsys):
        _, one, _ = run_cli(capsys, "summarize", ARTICLE, "--seed", "42", "--layers", "1")
        _, two, _ = run_cli(capsys, "summarize", ARTICLE, "--seed", "42", "--layers", "2")
        # both deterministic; they may or may not select the same
        # sentences, but each mode reproduces itself
        _, one_again, _ = run_cli(
            capsys, "summarize", ARTICLE, "--seed", "42", "--layers", "1"
        )
        assert one == one_again

    def test_similarity_anchor_flag_accepted(self, capsys):
        code, _, _ = run_cli(
            capsys, "summarize", ARTICLE, "--similarity-anchor", "first"
        )
        assert code == 0
