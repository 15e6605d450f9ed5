"""Applying a trained model to text, and model persistence.

Text is tagged a block of sentences at a time.  A block gets its first
guesses from one call over all its tokens, and its context window,
in which row ``r`` is token ``r``, from ``scrdr.block_columns``: the
same window training builds.  One call of ``run_chain`` then walks the
exception tree for every row of the window, and the block's tags are
that walk's labels, one per token in block order, with no cut per
sentence; ``corpus.render_tagged`` writes them with the block's words
and sentence lengths.  One sentence is a block of one.

For throughput the tree is compiled first, each node's list of
exceptions (its chain) into one of two shapes, chosen from the chain
itself.  A chain whose entries all test one field first, and whose
first entry for each value tests nothing else, becomes a dispatch
table: one dict from that field's value to what the entry concludes
and its compiled exceptions, answered by one lookup.  Any other chain becomes a first-test index, which maps
each value of a field that some entry tests first to those entries, in
chain order; a token probes each indexed field once and checks only the
entries its own values select.  The compiled walk returns exactly what
the plain tree walk returns; it just skips conditions that cannot fire.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .corpus import DEFAULT_SEPARATOR, TaggedCorpus, check_separator, check_tag
from .initial_tagger import (
    DEFAULT_ENGLISH_RULES,
    MODE_GENERIC,
    InitialTagger,
    InitialTaggerOptions,
)
from .lexicon import Lexicon, parse_lexicon, serialize_lexicon
from .scrdr import (
    Node,
    block_columns,
    iter_nodes,
    parse_tree,
    serialize_tree,
)

# Unused here; the benchmark's trace probe looks the name up in this module.
from .scrdr import make_tag_objects  # noqa: F401

TREE_FILE = "model.rdr"
LEXICON_FILE = "model.lex"
META_FILE = "model.json"
AUDIT_FILE = "audit.jsonl"

# Sentences that ``Tagger.tag_sentences``, and the `tag` command as
# lines, tag in one block.  In `tag` a block keeps one list per line
# alive until it is written, the line's words from str.split(), and
# about twenty more for its flat words, lengths and tags, its window
# and its walk: 274 containers at 256 lines by ``gc.get_count()`` (285
# on 3.10), counted as the walk ends.  That stays below the cyclic
# collector's first threshold (``gc.get_threshold()[0]``: 700 on Python
# 3.10-3.12, 2000 on 3.13), so tagging a block runs no generation-0
# pass over it; a 1.5M-token text with blank lines makes 10 or 11 such
# passes on 3.10-3.12 and 2 on 3.13.  The block is still large enough
# that its per-block work is shared by many sentences, and memory does
# not grow with the input.
TAG_BLOCK_LINES = 256

# One entry of an indexed chain: (chain position, tests after the
# first, label of the node, compiled exception chain).
_Entry = tuple[int, tuple[tuple[int, str], ...], object, "_Chain | None"]
# An indexed chain: its length, then one (position of its first entry,
# field, value -> entries in chain order) table per field that some
# entry tests first, ordered by that position.
_Indexed = tuple[int, tuple[tuple[int, int, dict[str, list[_Entry]]], ...]]
# A compiled chain: (field, value -> (label, compiled exception chain))
# for a dispatch table, (None, indexed chain) for any other chain.
_Chain = (
    tuple[int, dict[str, tuple[object, "_Chain | None"]]] | tuple[None, _Indexed]
)
# A chain's node while its chain compiles: (its tests, its label, its
# compiled exception chain).
_Link = tuple[tuple[tuple[int, str], ...], object, "_Chain | None"]


class ModelFormatError(ValueError):
    """A model directory is missing files or contains malformed ones."""


@dataclass(frozen=True)
class Model:
    """A trained model: lexicon, exception tree, first-guess settings, audit.

    ``audit_text`` is the text of ``audit.jsonl``, one JSON entry per
    line, or "" for a model without an audit.  It is kept as text, and
    ``audit`` parses it on first read, so a model loaded only to tag
    never parses it.
    """

    lexicon: Lexicon
    tree: Node
    mode: str = MODE_GENERIC
    regex_rules: tuple[tuple[str, str], ...] = DEFAULT_ENGLISH_RULES
    separator: str = DEFAULT_SEPARATOR
    audit_text: str = ""

    @cached_property
    def audit(self) -> tuple[dict, ...]:
        """The audit's entries, one per non-blank line of ``audit_text``.

        Parsed on first read and kept; ``cached_property`` writes the
        instance's dict directly, so this works on the frozen class.
        Raises ModelFormatError naming ``audit.jsonl`` for a line that is
        not JSON.
        """
        try:
            return tuple(
                json.loads(line)
                for line in self.audit_text.splitlines()
                if line.strip()
            )
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ModelFormatError(f"{AUDIT_FILE}: {exc}") from exc


def compile_chain(parent: Node, label: Callable[[Node], object]) -> _Chain | None:
    """Compile the chain of ``parent``'s exceptions; None if it has none.

    ``label(node)`` is what ``run_chain`` yields for a row the node
    decides: ``Tagger`` labels each node with its conclusion, the
    learner's self-check with the node itself.

    A chain whose entries all test the same field first, and whose
    first entry for each value has no further test, compiles to a
    dispatch table from that value to the entry's label and exceptions.
    Such an entry fires whenever the token has its value, and no entry
    for another value can, so the table answers the chain exactly;
    later entries for the same value could never fire and are dropped.
    Every other chain compiles to a first-test index.

    The nodes with exceptions come from ``iter_nodes``, whose pre-order
    lists each node before the nodes under it; compiling their chains in
    reverse compiles a node's exceptions' chains before its own, so a
    tree of any depth compiles without recursion.  Raises ValueError
    for an always-true rule, which only the root may hold.
    """
    compiled: dict[Node, _Chain] = {}
    for node in reversed([n for n in iter_nodes(parent) if n.exceptions]):
        entries: list[_Link] = []
        for child in node.exceptions:
            tests = child.rule.tests
            if not tests:
                raise ValueError(f"always-true rule below the root: {child!r}")
            entries.append((tests, label(child), compiled.pop(child, None)))
        compiled[node] = _dispatch(entries) or (None, _indexed(entries))
    return compiled.get(parent)


def _dispatch(entries: list[_Link]) -> _Chain | None:
    """The dispatch table of a chain's entries, or None if it has none."""
    field_idx = entries[0][0][0][0]
    table: dict[str, tuple[object, _Chain | None]] = {}
    for tests, label, sub in entries:
        f, value = tests[0]
        if f != field_idx:
            return None
        if value not in table:
            if len(tests) > 1:
                return None
            table[value] = label, sub
    return field_idx, table


def _indexed(entries: list[_Link]) -> _Indexed:
    """The first-test index of a chain's entries."""
    tables: dict[int, dict[str, list[_Entry]]] = {}
    starts: dict[int, int] = {}
    for pos, (tests, label, sub) in enumerate(entries):
        field_idx, value = tests[0]
        entry = (pos, tests[1:], label, sub)
        tables.setdefault(field_idx, {}).setdefault(value, []).append(entry)
        starts.setdefault(field_idx, pos)
    # in order of each field's first entry, as the dicts keep insertion order
    return len(entries), tuple((starts[f], f, t) for f, t in tables.items())


def run_chain(
    compiled: _Chain | None,
    cols: Sequence[Sequence[str | None]],
    defaults: Iterable[object],
) -> Iterator[object]:
    """Walk every row of a window; yields one label per row, in row order.

    Row ``i`` yields the label of the deepest node fired in this chain
    for it, or else its default, item ``i`` of ``defaults``; the label
    is what ``compile_chain`` stored.  ``cols`` is a ``block_columns``
    window: field ``f`` of row ``i`` is ``cols[f][i]``.  ``Tagger``
    passes the first guesses as the defaults, so a token keeps its
    first guess when no node fires.

    In each chain the earliest entry whose tests all hold fires, and the
    walk goes on into its exceptions.  A dispatch table finds that entry
    with one lookup of the row's value.  An indexed chain probes its
    fields in order, and a field whose first entry comes after the entry
    found so far is not probed.  The walk is a loop, not a recursion, so
    a tree of any depth is walked.
    """
    for i, label in enumerate(defaults):
        chain = compiled
        while chain is not None:
            field_idx, body = chain
            if field_idx is not None:
                hit = body.get(cols[field_idx][i])
                if hit is None:
                    break
                label, chain = hit
                continue
            cutoff, tables = body
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
        yield label


class Tagger:
    """Tags sentences with a model: first guesses, then tree corrections.

    ``tag_block`` tags a block of sentences, given as its words and its
    sentence lengths, with one ``run_chain`` call over one context
    window, in which row ``r`` is token ``r``, and returns one tag per
    token; ``tag_sentence`` is the block of one sentence, and
    ``tag_sentences`` tags ``TAG_BLOCK_LINES`` sentences per block and
    cuts each sentence's tags from its block's.  A token's first-guess
    tag is its default in the walk, so a token whose first guess has no
    layer-1 node falls through the whole tree and keeps it.
    """

    def __init__(self, model: Model) -> None:
        self.model = model
        self.initial = InitialTagger(
            model.lexicon,
            InitialTaggerOptions(mode=model.mode, regex_rules=model.regex_rules),
        )
        if model.tree.rule.tests:
            raise ValueError("model tree has a non-default root")
        self._compiled = compile_chain(model.tree, attrgetter("rule.conclusion"))

    def tag_block(self, words: list[str], lengths: Iterable[int]) -> list[str]:
        """The tags of a block's tokens, walked over one ``block_columns`` window.

        ``words`` holds the block's sentences one after another, and
        ``lengths`` their lengths, in order; a length may be 0, for an
        empty sentence.  Returns one tag per word, in the same order;
        ``words`` is not copied.
        """
        guesses = self.initial.tag_sentence(words)
        cols = block_columns(words, guesses, lengths)
        return list(run_chain(self._compiled, cols, guesses))

    def tag_sentence(self, words: list[str]) -> list[str]:
        """The tags of the block of one sentence; ``words`` is not copied."""
        return self.tag_block(words, (len(words),))

    def tag_sentences(self, sentences: list[list[str]]) -> TaggedCorpus:
        tags: list[list[str]] = []
        for start in range(0, len(sentences), TAG_BLOCK_LINES):
            block = sentences[start : start + TAG_BLOCK_LINES]
            lengths = list(map(len, block))
            flat = self.tag_block(list(chain.from_iterable(block)), lengths)
            ends = accumulate(lengths)
            tags += [flat[end - n : end] for n, end in zip(lengths, ends)]
        return TaggedCorpus.from_pairs(map(zip, sentences, tags))


def save_model(model: Model, directory: str | Path) -> None:
    """Write the model files; nothing is created if serializing fails.

    ``audit.jsonl`` gets ``model.audit_text`` as it is.  A model without
    an audit removes any ``audit.jsonl`` an older model left in the
    directory, so loading it never returns a stale audit.
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
    if model.audit_text:
        files[AUDIT_FILE] = model.audit_text
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        _write(path / name, text)
    if AUDIT_FILE not in files:
        (path / AUDIT_FILE).unlink(missing_ok=True)


def load_model(directory: str | Path) -> Model:
    """Read a model directory; raises ModelFormatError naming the bad file.

    Besides each file's own format, every tag that tagging can write
    must read back after the model's separator, so that it never fails
    at write time: the lexicon's tags (a regex rule fires only with one
    of them) and the tree's conclusions, each distinct tag checked once.

    ``audit.jsonl``, if present, must be UTF-8 text; it is kept as
    ``Model.audit_text`` and not parsed here, so a malformed audit line
    raises only when ``Model.audit`` is read.
    """
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
    regex_rules = meta.get("regex_rules", [])
    if not isinstance(regex_rules, list) or not all(
        isinstance(rule, list) and len(rule) == 2 for rule in regex_rules
    ):
        raise ModelFormatError(
            f"{meta_path}: 'regex_rules' must be a list of [pattern, tag] pairs"
        )
    rules = tuple(map(tuple, regex_rules))
    mode = meta.get("mode", MODE_GENERIC)
    separator = meta.get("separator", DEFAULT_SEPARATOR)
    try:
        check_separator(separator)
        InitialTaggerOptions(mode, rules)
    except ValueError as exc:
        raise ModelFormatError(f"{meta_path}: {exc}") from exc
    lexicon = parse_lexicon(_read(path / LEXICON_FILE))
    _check_tags(path / LEXICON_FILE, lexicon.tagset, separator)
    tree = parse_tree(_read(path / TREE_FILE))
    # only the root concludes "", and its conclusion is never written
    conclusions = {node.rule.conclusion for node in iter_nodes(tree)} - {""}
    _check_tags(path / TREE_FILE, conclusions, separator)
    audit_path = path / AUDIT_FILE
    audit_text = _read(audit_path) if audit_path.exists() else ""
    return Model(
        lexicon=lexicon,
        tree=tree,
        mode=mode,
        regex_rules=rules,
        separator=separator,
        audit_text=audit_text,
    )


def _check_tags(path: Path, tags: Iterable[str], separator: str) -> None:
    """Raise ModelFormatError unless each of the distinct ``tags`` reads back."""
    try:
        for tag in sorted(tags):
            check_tag(tag, separator)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None


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
