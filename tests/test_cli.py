import io
import json
import math
import shutil
import typing
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rbmsumm.summarizer
from rbmsumm import RawDocument, run_pipeline
from rbmsumm.cli import _KEYS, _parameter, main
from rbmsumm.rbm import MAX_CHAINS

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
    ],
    ids=[
        "seed-str", "epochs-float", "layers-3", "anchor-middle", "top-level-list",
        "format-xml", "limit-bool", "stopwords-key-missing", "stopwords-flag-missing",
        "lexicon-dir-key-missing", "lexicon-dir-flag-missing", "learning-rate-nan",
        "learning-rate-infinity", "learning-rate-int-past-float-range",
        "learning-rate-overflows-a-parameter", "chains-1e30", "chains-past-bound",
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
# relative paths land in the test's working directory
_FUZZ_STRINGS = st.sampled_from(["", "first", "latest", "json", "text", "missing.txt"])
_FUZZ_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), _FUZZ_FLOATS, _FUZZ_STRINGS
)
_FUZZ_VALUES = st.one_of(
    _FUZZ_SCALARS, st.lists(st.one_of(_FUZZ_SCALARS, st.lists(_FUZZ_SCALARS, max_size=2)), max_size=2)
)


def _values_of_the_type(key):
    """Values of the type the key's parameter is annotated with."""
    annotation = _parameter(key).annotation
    types = typing.get_args(annotation) or (annotation,)
    options = {
        type(None): st.none(), bool: st.booleans(), int: st.integers(-3, 6),
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
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(config=_fuzzed_configs())
def test_fuzzed_config_never_escapes_main(capsys, tmp_path, monkeypatch, config):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "summarize", ARTICLE, "--config", str(path))
    assert code in (0, 2, 3, 4)
    if code:
        assert err.splitlines()[-1].startswith("error: ")


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
