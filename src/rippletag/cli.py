"""Command line: train, tag, eval and xval subcommands.

Exit codes: 0 on success, 1 for bad invocations, 2 when input files
are missing or malformed.  Diagnostics go to stderr; only requested
output (the eval report) goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import NoReturn

from . import __version__
from .corpus import read_lines, read_tagged_corpus, write_tagged_corpus

# Unused here; the benchmark's trace probe looks the name up in this module.
from .corpus import read_raw  # noqa: F401
from .evaluation import cross_validate, score_tagging
from .initial_tagger import DEFAULT_ENGLISH_RULES, MODES, parse_regex_rules
from .learner import Thresholds, TrainOptions, train_model
from .scrdr import count_rules
from .tagger import Tagger, load_model, save_model

USAGE_EXIT = 1
DATA_EXIT = 2

# Hard defaults for options that may also come from a --config file;
# the training ones are those of TrainOptions.
_TRAIN_DEFAULTS = TrainOptions()
_DEFAULTS = {
    "threshold1": _TRAIN_DEFAULTS.thresholds.layer2,
    "threshold2": _TRAIN_DEFAULTS.thresholds.deeper,
    "separator": _TRAIN_DEFAULTS.separator,
    "mode": _TRAIN_DEFAULTS.mode,
    "max_level": _TRAIN_DEFAULTS.max_level,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this tool reserves 2 for bad data."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _fold_count(text: str) -> int:
    value = _positive_int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 folds, got {value}")
    return value


def _separator(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("the separator must not be empty")
    return text


_SEPARATOR_HELP = f"word/tag separator character (default {_DEFAULTS['separator']})"


def _add_train_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threshold1",
        type=_positive_int,
        help="minimum score for rules directly under the seed layer "
        f"(default {_DEFAULTS['threshold1']})",
    )
    parser.add_argument(
        "--threshold2",
        type=_positive_int,
        help="minimum score for rules at deeper layers "
        f"(default {_DEFAULTS['threshold2']})",
    )
    parser.add_argument("--separator", type=_separator, help=_SEPARATOR_HELP)
    parser.add_argument(
        "--mode",
        choices=MODES,
        help="unknown-word handling: generic suffix guessing, or regex rules "
        f"for English first (default {_DEFAULTS['mode']})",
    )
    parser.add_argument(
        "--max-level",
        type=_positive_int,
        help=f"deepest exception layer to grow (default {_DEFAULTS['max_level']})",
    )
    parser.add_argument(
        "--regex-rules",
        metavar="FILE",
        help="replace the built-in English regex rules "
        "(one 'pattern<TAB>tag' per line)",
    )
    parser.add_argument(
        "--config",
        metavar="FILE",
        help="JSON file with option defaults; explicit flags win",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="rippletag", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="learn a model from a tagged corpus")
    p_train.add_argument("--corpus", required=True, help="training corpus file")
    p_train.add_argument("--model", required=True, help="directory to write the model")
    _add_train_options(p_train)
    p_train.set_defaults(func=cmd_train)

    p_tag = sub.add_parser("tag", help="tag raw text with a trained model")
    p_tag.add_argument("--model", required=True, help="model directory")
    p_tag.add_argument("--input", required=True, help="raw text, one sentence per line")
    p_tag.add_argument("--output", required=True, help="tagged output file")
    p_tag.set_defaults(func=cmd_tag)

    p_eval = sub.add_parser("eval", help="score predicted tags against gold")
    p_eval.add_argument("--gold", required=True, help="gold corpus file")
    p_eval.add_argument("--pred", required=True, help="predicted corpus file")
    p_eval.add_argument(
        "--train-corpus",
        help="training corpus; enables the known/unknown word split",
    )
    p_eval.add_argument("--separator", type=_separator, help=_SEPARATOR_HELP)
    p_eval.set_defaults(func=cmd_eval)

    p_xval = sub.add_parser("xval", help="k-fold cross-validation on one corpus")
    p_xval.add_argument("--corpus", required=True, help="tagged corpus file")
    p_xval.add_argument("--folds", type=_fold_count, required=True)
    p_xval.add_argument("--report", required=True, help="JSON report output file")
    _add_train_options(p_xval)
    p_xval.set_defaults(func=cmd_xval)

    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    raw = Path(path).read_text(encoding="utf-8")
    try:
        config = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    for key, value in config.items():
        if key not in _DEFAULTS:
            raise ValueError(f"{path}: unknown option {key!r}")
        if not isinstance(value, type(_DEFAULTS[key])) or isinstance(value, bool):
            raise ValueError(f"{path}: option {key!r} has the wrong type")
    return config


def _resolve(args: argparse.Namespace, key: str, config: dict):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return _DEFAULTS[key]


def _train_options(args: argparse.Namespace, config: dict) -> TrainOptions:
    t1 = _resolve(args, "threshold1", config)
    t2 = _resolve(args, "threshold2", config)
    max_level = _resolve(args, "max_level", config)
    positive = (("threshold1", t1), ("threshold2", t2), ("max_level", max_level))
    for name, value in positive:
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    separator = _resolve(args, "separator", config)
    if not separator:
        raise ValueError("separator must not be empty")
    mode = _resolve(args, "mode", config)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    regex_rules = DEFAULT_ENGLISH_RULES
    if args.regex_rules is not None:
        regex_rules = parse_regex_rules(
            Path(args.regex_rules).read_text(encoding="utf-8")
        )
    return TrainOptions(
        thresholds=Thresholds(layer2=t1, deeper=t2),
        mode=mode,
        regex_rules=regex_rules,
        max_level=max_level,
        separator=separator,
    )


def _read_text(path: str) -> str:
    """A text file as is: only ``\n`` ends a line, so a lone ``\r`` stays put.

    ``Path.read_text`` would turn every ``\r`` into a line break.
    """
    with open(path, encoding="utf-8", newline="") as handle:
        return handle.read()


def cmd_train(args: argparse.Namespace) -> int:
    options = _train_options(args, _load_config(args.config))
    gold = read_tagged_corpus(_read_text(args.corpus), options.separator)
    start = time.perf_counter()
    model = train_model(gold, options)
    elapsed = time.perf_counter() - start
    save_model(model, args.model)
    print(
        f"trained {count_rules(model.tree)} rules from {gold.token_count} tokens "
        f"in {elapsed:.1f}s -> {args.model}",
        file=sys.stderr,
    )
    return 0


def cmd_tag(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    tagger = Tagger(model)
    # Output line N is input line N, blank lines included.
    lines = read_lines(_read_text(args.input))
    text = write_tagged_corpus(
        [(words, tagger.tag_sentence(words)) for words in lines], model.separator
    )
    with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    print(
        f"tagged {sum(map(len, lines))} tokens in {sum(map(bool, lines))} sentences "
        f"-> {args.output}",
        file=sys.stderr,
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    separator = args.separator if args.separator is not None else _DEFAULTS["separator"]
    gold = read_tagged_corpus(_read_text(args.gold), separator)
    pred = read_tagged_corpus(_read_text(args.pred), separator)
    vocabulary = None
    if args.train_corpus is not None:
        train = read_tagged_corpus(_read_text(args.train_corpus), separator)
        vocabulary = train.vocabulary()
    metrics = score_tagging(gold, pred, vocabulary)
    print(json.dumps(metrics.as_dict(), indent=2, sort_keys=True))
    return 0


def cmd_xval(args: argparse.Namespace) -> int:
    options = _train_options(args, _load_config(args.config))
    corpus = read_tagged_corpus(_read_text(args.corpus), options.separator)
    report = cross_validate(corpus, k=args.folds, options=options)
    with open(args.report, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    mean = report["mean"]
    print(
        f"{args.folds}-fold: first-guess accuracy {mean['initial']['accuracy']:.4f}, "
        f"final accuracy {mean['final']['accuracy']:.4f} -> {args.report}",
        file=sys.stderr,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"rippletag: error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
