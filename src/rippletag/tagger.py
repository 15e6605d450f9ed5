"""Applying a trained model to text, and model persistence.

Tagging walks the exception tree once per token.  For throughput the
tree is compiled first: every if-not chain becomes one first-test
index, which maps each value of a field that some entry tests first to
those entries, in chain order.  A token probes each indexed field once
and checks only the entries its own values select.  The compiled walk
returns exactly what the plain tree walk returns; it just skips
conditions that cannot fire.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Callable, Sequence

from .corpus import TaggedCorpus
from .initial_tagger import (
    DEFAULT_ENGLISH_RULES,
    MODE_GENERIC,
    MODES,
    InitialTagger,
    InitialTaggerOptions,
)
from .lexicon import Lexicon, parse_lexicon, serialize_lexicon
from .scrdr import Node, context_columns, iter_nodes, parse_tree, serialize_tree

# Unused here; the benchmark's trace probe looks the name up in this module.
from .scrdr import make_tag_objects  # noqa: F401

TREE_FILE = "model.rdr"
LEXICON_FILE = "model.lex"
META_FILE = "model.json"
AUDIT_FILE = "audit.jsonl"

# One compiled entry: (chain position, tests after the first,
# label of the node, compiled exception chain).
_Entry = tuple[int, tuple[tuple[int, str], ...], object, "_Chain | None"]
# A compiled chain: its length, then one (position of its first entry,
# field, value -> entries in chain order) table per field that some
# entry tests first, ordered by that position.
_Chain = tuple[int, tuple[tuple[int, int, dict[str, list[_Entry]]], ...]]


class ModelFormatError(ValueError):
    """A model directory is missing files or contains malformed ones."""


@dataclass(frozen=True)
class Model:
    lexicon: Lexicon
    tree: Node
    mode: str = MODE_GENERIC
    regex_rules: tuple[tuple[str, str], ...] = DEFAULT_ENGLISH_RULES
    separator: str = "/"
    audit: tuple[dict, ...] = ()


def compile_chain(
    first: Node | None, label: Callable[[Node], object]
) -> _Chain | None:
    """Compile one if-not chain (a node and its if-not siblings).

    Each entry holds ``label(node)``, which ``run_chain`` returns for
    the node that decides a token: ``Tagger`` labels each node with its
    conclusion, the learner's self-check with the node itself.

    The chains' first nodes come from ``iter_nodes``, whose pre-order
    lists each chain before the chains under it; compiling them in
    reverse compiles exception chains before the chain that holds them,
    so a tree of any depth compiles without recursion.  Raises
    ValueError for an always-true rule, which only the root may hold.
    """
    if first is None:
        return None
    heads = [first]
    heads += (n.except_child for n in iter_nodes(first) if n.except_child is not None)
    compiled: dict[Node, _Chain] = {}
    for head in reversed(heads):
        tables: dict[int, dict[str, list[_Entry]]] = {}
        starts: dict[int, int] = {}
        pos = 0
        node: Node | None = head
        while node is not None:
            tests = node.rule.tests
            if not tests:
                raise ValueError(f"always-true rule below the root: {node!r}")
            field_idx, value = tests[0]
            sub = compiled.pop(node.except_child, None)
            entry = (pos, tests[1:], label(node), sub)
            tables.setdefault(field_idx, {}).setdefault(value, []).append(entry)
            starts.setdefault(field_idx, pos)
            pos += 1
            node = node.ifnot_child
        # in order of each field's first entry, as the dicts keep insertion order
        compiled[head] = pos, tuple((starts[f], f, t) for f, t in tables.items())
    return compiled[first]


def run_chain(
    compiled: _Chain | None, cols: Sequence[Sequence[str | None]], i: int
) -> object:
    """The label of the deepest node fired in this chain for token ``i``.

    None if no node fires; the label is what ``compile_chain`` stored.
    ``cols`` are ``context_columns`` or ``corpus_columns``: field ``f``
    of the token is ``cols[f][i]``.  In each chain the earliest entry whose
    tests all hold fires, and the walk goes on into its exceptions; a
    field whose first entry comes after the entry found so far is not
    probed.
    """
    label = None
    chain: _Chain | None = compiled
    while chain is not None:
        cutoff, tables = chain
        fired = None
        for start, field_idx, table in tables:
            if start >= cutoff:
                break
            entries = table.get(cols[field_idx][i])
            if entries is None:
                continue
            for entry in entries:
                if entry[0] >= cutoff:
                    break
                for f, value in entry[1]:
                    if cols[f][i] != value:
                        break
                else:
                    cutoff = entry[0]
                    fired = entry
                    break
        if fired is None:
            break
        _, _, label, chain = fired
    return label


class Tagger:
    """Tags sentences with a model: first guesses, then tree corrections.

    A token whose first-guess tag has no layer-1 node falls through
    the whole tree and keeps that first guess.
    """

    def __init__(self, model: Model) -> None:
        self.model = model
        self.initial = InitialTagger(
            model.lexicon,
            InitialTaggerOptions(mode=model.mode, regex_rules=model.regex_rules),
        )
        if model.tree.rule.tests:
            raise ValueError("model tree has a non-default root")
        self._compiled = compile_chain(
            model.tree.except_child, attrgetter("rule.conclusion")
        )

    def tag_sentence(self, words: list[str]) -> list[str]:
        initial_tags = self.initial.tag_sentence(words)
        compiled = self._compiled
        if compiled is None:
            return initial_tags
        cols = context_columns(words, initial_tags)
        return [
            run_chain(compiled, cols, i) or guess
            for i, guess in enumerate(initial_tags)
        ]

    def tag_sentences(self, sentences: list[list[str]]) -> TaggedCorpus:
        return TaggedCorpus.from_pairs(
            [zip(words, self.tag_sentence(words)) for words in sentences]
        )


def save_model(model: Model, directory: str | Path) -> None:
    """Write the model files; nothing is created if serializing fails.

    A model without an audit removes any ``audit.jsonl`` an older model
    left in the directory, so loading it never returns a stale audit.
    """
    meta = {
        "format": 1,
        "mode": model.mode,
        "separator": model.separator,
        "regex_rules": [list(rule) for rule in model.regex_rules],
    }
    files = {
        TREE_FILE: serialize_tree(model.tree),
        LEXICON_FILE: serialize_lexicon(model.lexicon),
        META_FILE: json.dumps(meta, indent=2, sort_keys=True) + "\n",
    }
    if model.audit:
        lines = [json.dumps(entry, sort_keys=True) for entry in model.audit]
        files[AUDIT_FILE] = "".join(line + "\n" for line in lines)
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        _write(path / name, text)
    if AUDIT_FILE not in files:
        (path / AUDIT_FILE).unlink(missing_ok=True)


def load_model(directory: str | Path) -> Model:
    path = Path(directory)
    meta_path = path / META_FILE
    try:
        meta = json.loads(_read(meta_path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ModelFormatError(f"{meta_path}: {exc}") from exc
    version = meta.get("format") if isinstance(meta, dict) else None
    # compared by type too, since True == 1.0 == 1
    if type(version) is not int or version != 1:
        raise ModelFormatError(f"{meta_path}: unsupported model format")
    mode = meta.get("mode", MODE_GENERIC)
    if mode not in MODES:
        raise ModelFormatError(f"{meta_path}: 'mode' must be one of {MODES}")
    separator = meta.get("separator", "/")
    if not isinstance(separator, str) or not separator:
        raise ModelFormatError(f"{meta_path}: 'separator' must be a non-empty string")
    regex_rules = meta.get("regex_rules", [])
    if not isinstance(regex_rules, list) or not all(
        isinstance(rule, list)
        and len(rule) == 2
        and all(isinstance(part, str) for part in rule)
        for rule in regex_rules
    ):
        raise ModelFormatError(
            f"{meta_path}: 'regex_rules' must be a list of [pattern, tag] strings"
        )
    for pattern, _ in regex_rules:
        try:
            re.compile(pattern)
        except (re.error, OverflowError, RecursionError) as exc:
            raise ModelFormatError(
                f"{meta_path}: 'regex_rules': bad pattern {pattern!r}: {exc}"
            ) from exc
    lexicon = parse_lexicon(_read(path / LEXICON_FILE))
    tree = parse_tree(_read(path / TREE_FILE))
    audit: tuple[dict, ...] = ()
    audit_path = path / AUDIT_FILE
    if audit_path.exists():
        try:
            audit = tuple(
                json.loads(line)
                for line in _read(audit_path).splitlines()
                if line.strip()
            )
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ModelFormatError(f"{audit_path}: {exc}") from exc
    return Model(
        lexicon=lexicon,
        tree=tree,
        mode=mode,
        regex_rules=tuple((pattern, tag) for pattern, tag in regex_rules),
        separator=separator,
        audit=audit,
    )


def _write(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _read(path: Path) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        raise ModelFormatError(f"missing model file: {path}") from None
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: not UTF-8 text: {exc}") from None
