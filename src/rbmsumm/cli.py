"""Command-line interface: summarize, features, evaluate.

Settings are merged from the defaults, then an optional JSON config
file whose keys mirror the flag names, then explicit flags.  Each key
sets one parameter of a config class or library call, whose default is
the key's default and whose annotation is the type a config value must
have, or, as a ``Literal``, its legal values.  Every run resolves to a
concrete seed, which is echoed on standard error so results can be
reproduced.  Each subcommand makes one pass through the library;
``evaluate --compare`` runs both layer counts and prints the metrics of
the one ``--layers`` names.

Handlers return their stderr facts and their outputs, each a text and
a path or None for stdout; ``main`` alone prints the ``seed=`` line,
writes the outputs and maps each error to its exit code, escaping any
unprintable character so that its ``error:`` line stays one line.  The
parsers escape their usage errors the same way.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import typing
from dataclasses import dataclass, fields
from pathlib import Path

from . import assets
from .assets import load_lexicons
from .errors import DegenerateDocument, EmptyDocument, MissingReference, NonFiniteParameter
from .document import RawDocument
from .evaluation import (
    compare_modes,
    evaluate_corpus,
    load_corpus,
    render_comparison_csv,
    render_metrics_csv,
)
from .features import FEATURE_NAMES, FeatureConfig
from .rbm import TrainConfig, stack_enhance
from .summarizer import DEFAULT_LIMIT_RATIO, SummaryConfig, featurize, run_pipeline

@dataclass(frozen=True)
class _CliSettings:
    """The settings that no library call takes."""

    format: typing.Literal["text", "json"] = "text"
    output: str | None = None
    no_enhance: bool = False
    compare: bool = False


# config key -> (class or function, parameter).  These are the legal
# config keys; the parameter's default is the key's default and its
# annotation the key's type.
_KEYS = {
    "seed": (TrainConfig, "seed"),
    "learning_rate": (TrainConfig, "learning_rate"),
    "epochs": (TrainConfig, "epochs"),
    "batch_size": (TrainConfig, "batch_size"),
    "chains": (TrainConfig, "n_chains"),
    "gibbs_steps": (TrainConfig, "gibbs_steps_per_update"),
    "thematic_count": (FeatureConfig, "thematic_count"),
    "th_fraction": (FeatureConfig, "th_fraction"),
    "short_sentence_min_words": (FeatureConfig, "short_sentence_min_words"),
    "limit": (SummaryConfig, "limit_sentences"),
    "ratio": (SummaryConfig, "limit_ratio"),
    "layers": (run_pipeline, "layers"),
    "similarity_anchor": (run_pipeline, "anchor"),
    "stopwords": (load_lexicons, "stopwords_path"),
    "abbreviations": (load_lexicons, "abbreviations_path"),
    "lexicon_dir": (load_lexicons, "lexicon_dir"),
    **{f.name: (_CliSettings, f.name) for f in fields(_CliSettings)},
}


@functools.cache  # _KEYS is fixed, so each key's signature is read once
def _parameter(key: str) -> inspect.Parameter:
    owner, name = _KEYS[key]
    return inspect.signature(owner, eval_str=True).parameters[name]


def _choices(key: str) -> tuple:
    """The legal values of a key annotated with a ``Literal``; () for
    any other key."""
    annotation = _parameter(key).annotation
    return typing.get_args(annotation) if typing.get_origin(annotation) is typing.Literal else ()


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors, and its subparsers', are one line."""

    def error(self, message: str) -> typing.NoReturn:
        super().error(_escaped(message))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rbmsumm",
        description="Extractive summarizer with RBM feature enhancement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def default(key: str) -> str:
        return f"(default {_parameter(key).default})"

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, help=f"RNG seed {default('seed')}")
        p.add_argument("--layers", type=int, choices=_choices("layers"),
                       help=f"RBM layers, 2 being stacked {default('layers')}")
        p.add_argument("--config", help="JSON config file mirroring flag names")
        p.add_argument("--stopwords", help="override stop-word list file")
        p.add_argument("--abbreviations", help="override abbreviation list file")
        p.add_argument("--lexicon-dir", dest="lexicon_dir",
                       help="directory overriding the name lexicons")
        p.add_argument("--output", help="write output to this path instead of stdout")
        p.set_defaults(command_parser=p)

    def add_selection(p: argparse.ArgumentParser) -> None:
        """The flags that only a summary reads; ``features`` has none."""
        p.add_argument("--similarity-anchor", dest="similarity_anchor",
                       choices=_choices("similarity_anchor"),
                       help=f"sentence the Jaccard pick compares against "
                       f"{default('similarity_anchor')}")
        limits = p.add_mutually_exclusive_group()
        limits.add_argument("--limit", type=int, help="summary length in sentences")
        limits.add_argument("--ratio", type=float, help="summary length as a fraction of "
                            f"N (default {DEFAULT_LIMIT_RATIO})")

    p_sum = sub.add_parser("summarize", help="summarize one document")
    p_sum.add_argument("input", help="input text file, or - for stdin")
    p_sum.add_argument("--format", choices=_choices("format"),
                       help=f"output format {default('format')}")
    add_common(p_sum)
    add_selection(p_sum)

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
    add_selection(p_eval)
    return parser


def _check_value(key: str, value) -> None:
    """Reject a config value of the wrong type or outside the choices;
    a ``Literal``'s types are those of its values."""
    annotation = _parameter(key).annotation
    choices = _choices(key)
    types = tuple(dict.fromkeys(map(type, choices))) or typing.get_args(annotation)
    types = types or (annotation,)
    names = " or ".join("null" if t is type(None) else t.__name__ for t in types)
    if float in types:
        types += (int,)
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise _CliError(f"config key {key!r} must be {names}, not {value!r}")
    if choices and value not in choices:
        raise _CliError(f"config key {key!r} must be one of {choices}, not {value!r}")


def _read_config(path: str) -> dict:
    try:
        text = Path(path).read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise _CliError(f"config file is not valid JSON: {exc}")
    except (OSError, ValueError) as exc:  # a NUL in the path is a ValueError
        raise _CliError(f"cannot read config file: {exc}")
    try:
        loaded = json.loads(text)
    except ValueError as exc:  # includes JSONDecodeError
        raise _CliError(f"config file is not valid JSON: {exc}")
    if not isinstance(loaded, dict):
        raise _CliError("config file must hold a JSON object")
    unknown = set(loaded) - set(_KEYS)
    if unknown:
        raise _CliError(f"unknown config keys: {sorted(unknown)}")
    for key, value in loaded.items():
        _check_value(key, value)
    return loaded


def _merge_settings(args: argparse.Namespace) -> dict:
    settings = {key: _parameter(key).default for key in _KEYS}
    if getattr(args, "config", None):
        settings.update(_read_config(args.config))
    flags = {key: v for key in _KEYS if (v := getattr(args, key, None)) is not None}
    settings.update(flags)
    # an explicit flag wins over the config file's choice of the pair
    if "limit" in flags:
        settings["ratio"] = None
    elif "ratio" in flags:
        settings["limit"] = None
    return settings


class _CliError(Exception):
    """A bad setting, path, file or reference that the CLI reports."""


# each error that main reports, with its exit code: 2 for a bad setting,
# path or learning rate, 3 for an empty document, 4 for a missing reference
_EXIT_CODES = {
    _CliError: 2,
    NonFiniteParameter: 2,
    EmptyDocument: 3,
    DegenerateDocument: 3,
    MissingReference: 4,
}


def _library_kwargs(settings: dict) -> dict:
    """The keyword arguments that every pipeline entry point takes."""

    def build(owner, call=None):
        """``call``, by default ``owner``, given the settings of ``owner``'s keys."""
        own = {name: settings[key] for key, (o, name) in _KEYS.items() if o is owner}
        return (call or owner)(**own)

    try:
        kwargs = {
            "feature_config": build(FeatureConfig),
            "train_config": build(TrainConfig),
            "summary_config": build(SummaryConfig),
        }
    except ValueError as exc:
        raise _CliError(f"invalid setting: {exc}")
    try:
        # assets' function owns the keys; the call reads this module's name, which tracers wrap
        kwargs["lexicons"] = build(assets.load_lexicons, load_lexicons)
    except (OSError, ValueError) as exc:  # ValueError includes UnicodeDecodeError
        raise _CliError(f"cannot read word list: {exc}")
    kwargs["anchor"] = settings["similarity_anchor"]
    return kwargs


def _read_input(path: str) -> RawDocument:
    try:
        if path == "-":
            # stdin may decode with surrogateescape; decode its bytes strictly
            text = sys.stdin.read().encode("utf-8", "surrogateescape").decode("utf-8")
            return RawDocument(text=text, source_id="stdin")
        return RawDocument(text=Path(path).read_text("utf-8"), source_id=Path(path).stem)
    except UnicodeDecodeError as exc:
        raise _CliError(f"input {path} is not UTF-8: {exc}")
    except (OSError, ValueError) as exc:  # a NUL in the path is a ValueError
        raise _CliError(f"cannot read input: {exc}")


def _write_output(text: str, output: str | None) -> None:
    try:
        if output is None:
            sys.stdout.write(text)
            sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        else:
            Path(output).write_text(text, encoding="utf-8", newline="\n")
    except (OSError, ValueError) as exc:  # BrokenPipeError, or a NUL in the path
        raise _CliError(f"cannot write output: {exc}")


def _cmd_summarize(args: argparse.Namespace, settings: dict, kwargs: dict) -> tuple[str, list]:
    result = run_pipeline(_read_input(args.input), layers=settings["layers"], **kwargs)
    summary = result.summary
    n = result.doc.n_sentences
    limit = kwargs["summary_config"].effective_limit(n)
    if settings["format"] == "json":
        payload = {
            "selected_indices": list(summary.selected),
            "scores": [
                {"doc_index": r.doc_index, "score": r.score} for r in summary.scores
            ],
            "text": summary.text,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = summary.text + "\n"
    return f"sentences={n} limit={limit}", [(text, settings["output"])]


def _cmd_features(args: argparse.Namespace, settings: dict, kwargs: dict) -> tuple[str, list]:
    raw = _read_input(args.input)
    doc, raw_matrix, normalized = featurize(raw, kwargs["feature_config"], kwargs["lexicons"])
    enhanced = None
    if not settings["no_enhance"]:
        enhanced = stack_enhance(normalized, kwargs["train_config"], settings["layers"])
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
    text = json.dumps(records, indent=2) + "\n"
    return f"sentences={doc.n_sentences}", [(text, settings["output"])]


def _cmd_evaluate(args: argparse.Namespace, settings: dict, kwargs: dict) -> tuple[str, list]:
    try:
        entries = load_corpus(args.corpus)
    except (OSError, ValueError) as exc:  # ValueError includes undecodable files
        raise _CliError(f"cannot read corpus: {exc}")
    comparison = None
    try:
        if settings["compare"]:
            comparison = compare_modes(entries, **kwargs)
            result = comparison.by_layers[settings["layers"]]
        else:
            result = evaluate_corpus(entries, layers=settings["layers"], **kwargs)
    except ValueError as exc:  # a reference that does not fit its document
        raise _CliError(str(exc))
    output = settings["output"]
    outputs = [(render_metrics_csv(result), output)]
    if comparison is not None:
        if output is not None:
            # not with_name, which raises on "" or "/", where the metrics' write fails first
            output = str(Path(output).parent / f"{Path(output).stem}.compare.csv")
        outputs.append((render_comparison_csv(comparison), output))
    return f"documents={len(entries)}", outputs


def _escaped(text: str) -> str:
    """``text`` with each unprintable character, such as a newline or a
    NUL, escaped as a Python literal writes it, so a message is one line."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:  # with the subcommand's usage line, not the root's
        args.command_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    for action in args.command_parser._actions:  # argparse reads "--flag=--" as []
        if action.option_strings and getattr(args, action.dest, None) == []:
            args.command_parser.error(f"argument {action.option_strings[0]}: expected one argument")
    handlers = {
        "summarize": _cmd_summarize,
        "features": _cmd_features,
        "evaluate": _cmd_evaluate,
    }
    try:
        settings = _merge_settings(args)
        facts, outputs = handlers[args.command](args, settings, _library_kwargs(settings))
        print(f"seed={settings['seed']} {facts}", file=sys.stderr)
        for text, path in outputs:
            _write_output(text, path)
        return 0
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {_escaped(str(exc))}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
