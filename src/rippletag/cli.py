"""Command line: train, tag, eval and xval subcommands.

Exit codes: 0 on success, 1 for bad invocations, 2 when input files
are missing or malformed.  Diagnostics go to stderr; only requested
output (the eval report) goes to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import secrets
import stat
import sys
import time
from itertools import chain, islice
from pathlib import Path
from typing import Iterator, NoReturn, TextIO

from . import __version__
from .corpus import check_separator, read_tagged_corpus, render_tagged

# Unused here; the benchmark's trace probe looks the names up in this module.
from .corpus import read_raw, write_tagged_corpus  # noqa: F401
from .evaluation import cross_validate, score_tagging
from .initial_tagger import DEFAULT_ENGLISH_RULES, MODES, parse_regex_rules
from .learner import Thresholds, TrainOptions, train_model
from .scrdr import count_rules
from .tagger import TAG_BLOCK_LINES, Tagger, load_model, save_model

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
    try:
        check_separator(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
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
    regex_rules = DEFAULT_ENGLISH_RULES
    if args.regex_rules is not None:
        regex_rules = parse_regex_rules(
            Path(args.regex_rules).read_text(encoding="utf-8")
        )
    return TrainOptions(
        thresholds=Thresholds(
            layer2=_resolve(args, "threshold1", config),
            deeper=_resolve(args, "threshold2", config),
        ),
        mode=_resolve(args, "mode", config),
        regex_rules=regex_rules,
        max_level=_resolve(args, "max_level", config),
        separator=_resolve(args, "separator", config),
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


@contextlib.contextmanager
def _replacing(path: str) -> Iterator[TextIO]:
    """A text handle whose contents replace ``path`` once the block ends.

    Writes go to a new file beside ``path``, moved onto it only when the
    block ends without an error; on an error it is removed, so an
    existing ``path`` stays as it was.  The new file gets the mode that
    ``open(path, "w")`` would give: an existing file's, or else the one
    the umask leaves.  A ``path`` that exists but is not a regular file
    (a FIFO, a device such as /dev/stdout, a symlink) is written in place.
    """
    try:
        existing = os.lstat(path)
    except FileNotFoundError:
        existing = None
    if existing is not None and not stat.S_ISREG(existing.st_mode):
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        return
    directory, name = os.path.split(path)
    temp = os.path.join(directory, f".{name}.{secrets.token_hex(4)}.tmp")
    # 0o666 under the umask, as open(path, "w") creates a file
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    handle = open(os.open(temp, flags, 0o666), "w", encoding="utf-8", newline="\n")
    try:
        with handle:
            if existing is not None:
                os.chmod(temp, stat.S_IMODE(existing.st_mode))
            yield handle
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def cmd_tag(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    tagger = Tagger(model)
    tokens = sentences = 0
    # Only "\n" ends a line, so a lone "\r" stays inside its line, and
    # output line N is input line N, blank lines included.  Each block of
    # lines is read, tagged and written before the next is read, so memory
    # does not grow with the input.  A block's words are flattened into
    # one list, with one length per line, so that one tag_block call tags
    # them all into one flat list of tags and one render_tagged call
    # writes them, with no tags cut per line.  The blocks are rendered
    # without write_tagged_corpus's checks, as every token reads back: its
    # word comes from str.split(), so it is non-empty and holds no
    # whitespace, and its tag is a lexicon tag (a regex rule fires only
    # with one) or a tree conclusion, each of which load_model has checked
    # against the separator.
    with open(args.input, encoding="utf-8", newline="\n") as source, _replacing(
        args.output
    ) as sink:
        while block := list(islice(source, TAG_BLOCK_LINES)):
            lines = [line.split() for line in block]
            lengths = list(map(len, lines))
            words = list(chain.from_iterable(lines))
            tokens += len(words)
            sentences += len(lengths) - lengths.count(0)
            tags = tagger.tag_block(words, lengths)
            sink.write(render_tagged(words, tags, lengths, model.separator))
    print(
        f"tagged {tokens} tokens in {sentences} sentences -> {args.output}",
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
    with _replacing(args.report) as handle:
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
