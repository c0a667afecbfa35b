"""Command-line interface: summarize, features, evaluate.

Settings are merged from built-in defaults, then an optional JSON
config file whose keys mirror the flag names, then explicit flags.
Every run resolves to a concrete seed (default 42) which is echoed on
standard error so results can be reproduced.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .assets import load_lexicons
from .errors import DegenerateDocument, EmptyDocument, MissingReference
from .document import RawDocument
from .evaluation import (
    compare_modes,
    evaluate_corpus,
    load_corpus,
    render_comparison_csv,
    render_metrics_csv,
)
from .features import FEATURE_NAMES, FeatureConfig
from .rbm import TrainConfig
from .summarizer import SummaryConfig, run_pipeline

EXIT_OK = 0
EXIT_UNREADABLE = 2
EXIT_EMPTY = 3
EXIT_MISSING_REFERENCE = 4

_DEFAULTS = {
    "seed": 42,
    "layers": 1,
    "similarity_anchor": "latest",
    "format": "text",
    "limit": None,
    "ratio": None,
    "thematic_count": 10,
    "th_fraction": 0.2,
    "short_sentence_min_words": 3,
    "learning_rate": 0.1,
    "epochs": 5,
    "batch_size": 4,
    "chains": 4,
    "gibbs_steps": 1,
    "stopwords": None,
    "abbreviations": None,
    "lexicon_dir": None,
    "output": None,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbmsumm",
        description="Extractive summarizer with RBM feature enhancement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, help="RNG seed (default 42)")
        p.add_argument("--layers", type=int, choices=(1, 2),
                       help="RBM layers: 1 (default) or 2 (stacked)")
        p.add_argument("--similarity-anchor", dest="similarity_anchor",
                       choices=("first", "latest"),
                       help="sentence the Jaccard pick compares against")
        p.add_argument("--config", help="JSON config file mirroring flag names")
        p.add_argument("--stopwords", help="override stop-word list file")
        p.add_argument("--abbreviations", help="override abbreviation list file")
        p.add_argument("--lexicon-dir", dest="lexicon_dir",
                       help="directory overriding the tagger lexicons")
        p.add_argument("--output", help="write output to this path instead of stdout")
        limits = p.add_mutually_exclusive_group()
        limits.add_argument("--limit", type=int, help="summary length in sentences")
        limits.add_argument("--ratio", type=float,
                            help="summary length as a fraction of N (default 0.33)")

    p_sum = sub.add_parser("summarize", help="summarize one document")
    p_sum.add_argument("input", help="input text file, or - for stdin")
    p_sum.add_argument("--format", choices=("text", "json"),
                       help="output format (default text)")
    add_common(p_sum)

    p_feat = sub.add_parser("features", help="dump per-sentence feature records")
    p_feat.add_argument("input", help="input text file, or - for stdin")
    p_feat.add_argument("--no-enhance", action="store_true", default=None,
                        help="skip RBM training; omit enhanced fields")
    add_common(p_feat)

    p_eval = sub.add_parser("evaluate", help="score a corpus of <id>.txt/<id>.ref pairs")
    p_eval.add_argument("corpus", help="directory with document/reference pairs")
    p_eval.add_argument("--compare", action="store_true", default=None,
                        help="also run the stacked two-layer mode")
    add_common(p_eval)
    return parser


def _merge_settings(args: argparse.Namespace) -> dict:
    settings = dict(_DEFAULTS)
    settings.update({"no_enhance": False, "compare": False, "format": "text"})
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text("utf-8"))
        except OSError as exc:
            raise _CliError(EXIT_UNREADABLE, f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise _CliError(EXIT_UNREADABLE, f"config file is not valid JSON: {exc}")
        unknown = set(loaded) - set(settings)
        if unknown:
            raise _CliError(
                EXIT_UNREADABLE, f"unknown config keys: {sorted(unknown)}"
            )
        if loaded.get("limit") is not None and loaded.get("ratio") is not None:
            raise _CliError(EXIT_UNREADABLE, "config sets both limit and ratio")
        settings.update(loaded)
    for key in settings:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    # an explicit flag wins over the config file's choice of the pair
    if getattr(args, "limit", None) is not None:
        settings["ratio"] = None
    elif getattr(args, "ratio", None) is not None:
        settings["limit"] = None
    return settings


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _configs(settings: dict):
    try:
        feature_config = FeatureConfig(
            thematic_count=settings["thematic_count"],
            th_fraction=settings["th_fraction"],
            short_sentence_min_words=settings["short_sentence_min_words"],
        )
        train_config = TrainConfig(
            learning_rate=settings["learning_rate"],
            epochs=settings["epochs"],
            batch_size=settings["batch_size"],
            n_chains=settings["chains"],
            gibbs_steps_per_update=settings["gibbs_steps"],
            seed=settings["seed"],
        )
        summary_config = SummaryConfig(
            limit_sentences=settings["limit"], limit_ratio=settings["ratio"]
        )
    except ValueError as exc:
        raise _CliError(EXIT_UNREADABLE, f"invalid setting: {exc}")
    lexicons = load_lexicons(
        stopwords_path=settings["stopwords"],
        abbreviations_path=settings["abbreviations"],
        lexicon_dir=settings["lexicon_dir"],
    )
    return feature_config, train_config, summary_config, lexicons


def _read_input(path: str) -> str:
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text("utf-8")
    except OSError as exc:
        raise _CliError(EXIT_UNREADABLE, f"cannot read input: {exc}")
    except UnicodeDecodeError as exc:
        raise _CliError(EXIT_UNREADABLE, f"input {path} is not UTF-8: {exc}")


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8", newline="\n")


def _cmd_summarize(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    feature_config, train_config, summary_config, lexicons = _configs(settings)
    text = _read_input(args.input)
    result = run_pipeline(
        RawDocument(text=text, source_id=Path(args.input).stem if args.input != "-" else "stdin"),
        feature_config,
        train_config,
        summary_config,
        layers=settings["layers"],
        anchor=settings["similarity_anchor"],
        lexicons=lexicons,
    )
    summary = result.summary
    n = result.doc.n_sentences
    limit = summary_config.effective_limit(n)
    print(
        f"seed={settings['seed']} sentences={n} limit={limit}",
        file=sys.stderr,
    )
    if settings["format"] == "json":
        payload = {
            "selected_indices": list(summary.selected),
            "scores": [
                {"doc_index": r.doc_index, "score": r.score} for r in summary.scores
            ],
            "text": summary.text,
        }
        _write_output(json.dumps(payload, indent=2) + "\n", settings["output"])
    else:
        _write_output(summary.text + "\n", settings["output"])
    return EXIT_OK


def _cmd_features(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    feature_config, train_config, summary_config, lexicons = _configs(settings)
    text = _read_input(args.input)
    raw = RawDocument(
        text=text, source_id=Path(args.input).stem if args.input != "-" else "stdin"
    )
    if settings["no_enhance"]:
        from .features import build_feature_matrix, normalize_columns
        from .preprocess import preprocess

        doc = preprocess(raw, lexicons)
        raw_matrix = build_feature_matrix(doc, feature_config)
        normalized = normalize_columns(raw_matrix)
        enhanced = None
    else:
        result = run_pipeline(
            raw,
            feature_config,
            train_config,
            summary_config,
            layers=settings["layers"],
            anchor=settings["similarity_anchor"],
            lexicons=lexicons,
        )
        doc = result.doc
        raw_matrix, normalized, enhanced = (
            result.raw_matrix,
            result.normalized,
            result.enhanced,
        )
    records = []
    for i in range(doc.n_sentences):
        record: dict = {"doc_index": i}
        for j, name in enumerate(FEATURE_NAMES):
            record[name] = raw_matrix.values[i, j]
        record["normalized"] = [float(x) for x in normalized.values[i]]
        record["feature_sum"] = float(normalized.values[i].sum())
        if enhanced is not None:
            record["enhanced"] = [float(x) for x in enhanced.values[i]]
            record["enhanced_sum"] = float(enhanced.values[i].sum())
        records.append(record)
    print(
        f"seed={settings['seed']} sentences={doc.n_sentences}",
        file=sys.stderr,
    )
    _write_output(json.dumps(records, indent=2) + "\n", settings["output"])
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    feature_config, train_config, summary_config, lexicons = _configs(settings)
    try:
        entries = load_corpus(args.corpus)
    except (OSError, ValueError) as exc:  # ValueError includes UnicodeDecodeError
        raise _CliError(EXIT_UNREADABLE, f"cannot read corpus: {exc}")
    result = evaluate_corpus(
        entries,
        feature_config,
        train_config,
        summary_config,
        layers=settings["layers"],
        anchor=settings["similarity_anchor"],
        lexicons=lexicons,
    )
    metrics_csv = render_metrics_csv(result)
    print(
        f"seed={settings['seed']} documents={len(entries)}",
        file=sys.stderr,
    )
    comparison_csv = None
    if settings["compare"]:
        comparison = compare_modes(
            entries,
            feature_config,
            train_config,
            summary_config,
            anchor=settings["similarity_anchor"],
            lexicons=lexicons,
        )
        comparison_csv = render_comparison_csv(comparison)
    if settings["output"] is None:
        sys.stdout.write(metrics_csv)
        if comparison_csv is not None:
            sys.stdout.write(comparison_csv)
    else:
        _write_output(metrics_csv, settings["output"])
        if comparison_csv is not None:
            out = Path(settings["output"])
            _write_output(
                comparison_csv, str(out.with_name(out.stem + ".compare.csv"))
            )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "summarize": _cmd_summarize,
        "features": _cmd_features,
        "evaluate": _cmd_evaluate,
    }
    try:
        return handlers[args.command](args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (EmptyDocument, DegenerateDocument) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except MissingReference as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_REFERENCE


if __name__ == "__main__":
    sys.exit(main())
