"""Applying a trained model to text, and model persistence.

Tagging walks the exception tree once per token.  For throughput the
tree is compiled first: every if-not chain becomes a flat entry list,
and long chains get a per-field value index so only entries whose
first test can possibly hold are checked.  The compiled walk returns
exactly what the plain tree walk returns; it just skips conditions
that cannot fire.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from .corpus import TaggedCorpus
from .initial_tagger import (
    DEFAULT_ENGLISH_RULES,
    MODE_GENERIC,
    MODES,
    InitialTagger,
    InitialTaggerOptions,
    compile_regex_rules,
)
from .lexicon import Lexicon, parse_lexicon, serialize_lexicon
from .scrdr import Node, TagObject, make_tag_objects, parse_tree, serialize_tree

TREE_FILE = "model.rdr"
LEXICON_FILE = "model.lex"
META_FILE = "model.json"
AUDIT_FILE = "audit.jsonl"

# Chains shorter than this are cheaper to scan than to index.
_INDEX_MIN_LEN = 8

_Entry = tuple[tuple[tuple[int, str], ...], str, "_Chain | None"]
_Index = dict[int, dict[str, list[int]]]
_Chain = tuple[list[_Entry], "_Index | None"]


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


def compile_chain(first: Node | None) -> _Chain | None:
    """Compile one if-not chain (a node and its if-not siblings)."""
    if first is None:
        return None
    entries: list[_Entry] = []
    node: Node | None = first
    while node is not None:
        entries.append(
            (node.rule.tests, node.rule.conclusion, compile_chain(node.except_child))
        )
        node = node.ifnot_child
    if len(entries) < _INDEX_MIN_LEN:
        return entries, None
    index: _Index = {}
    for pos, (tests, _, _) in enumerate(entries):
        field_idx, value = tests[0]
        index.setdefault(field_idx, {}).setdefault(value, []).append(pos)
    return entries, index


def run_chain(compiled: _Chain, obj: TagObject) -> str | None:
    """Deepest conclusion fired in this chain, or None if nothing fired."""
    entries, index = compiled
    if index is None:
        positions: "range | list[int]" = range(len(entries))
    else:
        lists = []
        for field_idx, table in index.items():
            hits = table.get(obj[field_idx])
            if hits is not None:
                lists.append(hits)
        if not lists:
            return None
        if len(lists) == 1:
            positions = lists[0]
        else:
            positions = sorted(p for hits in lists for p in hits)
    for pos in positions:
        tests, conclusion, sub = entries[pos]
        for field_idx, value in tests:
            if obj[field_idx] != value:
                break
        else:
            if sub is not None:
                deeper = run_chain(sub, obj)
                if deeper is not None:
                    return deeper
            return conclusion
    return None


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
        self._compiled = compile_chain(model.tree.except_child)

    def tag_sentence(self, words: list[str]) -> list[str]:
        initial_tags = self.initial.tag_sentence(words)
        compiled = self._compiled
        if compiled is None:
            return initial_tags
        tags = []
        for i, obj in enumerate(make_tag_objects(words, initial_tags)):
            conclusion = run_chain(compiled, obj)
            tags.append(conclusion if conclusion else initial_tags[i])
        return tags

    def tag_sentences(self, sentences: list[list[str]]) -> TaggedCorpus:
        return TaggedCorpus.from_pairs(
            [zip(words, self.tag_sentence(words)) for words in sentences]
        )


def save_model(model: Model, directory: str | Path) -> None:
    """Write the model files; nothing is created if serializing fails."""
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


def load_model(directory: str | Path) -> Model:
    path = Path(directory)
    meta_path = path / META_FILE
    try:
        meta = json.loads(_read(meta_path))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{meta_path}: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("format") != 1:
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
    try:
        compile_regex_rules(regex_rules)
    except re.error as exc:
        raise ModelFormatError(
            f"{meta_path}: 'regex_rules': bad pattern {exc.pattern!r}: {exc}"
        ) from exc
    lexicon = parse_lexicon(_read(path / LEXICON_FILE))
    tree = parse_tree(_read(path / TREE_FILE))
    audit: tuple[dict, ...] = ()
    audit_path = path / AUDIT_FILE
    if audit_path.exists():
        audit = tuple(
            json.loads(line)
            for line in _read(audit_path).splitlines()
            if line.strip()
        )
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
