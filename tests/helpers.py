"""Shared test utilities: an independent tree interpreter, random
model generators and shorthands over the package's own API that only
tests use.

The interpreter here deliberately re-implements evaluation from the
written description (recursive, attribute access by name) so tests can
cross-check the package's iterative, index-based implementations
against something with no shared code.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from itertools import islice
from operator import itemgetter
from types import SimpleNamespace
from typing import Iterator, NamedTuple
from unittest import mock

import rippletag.tagger as tagger_module

from rippletag.corpus import TaggedCorpus, _check_token, is_plain
from rippletag.initial_tagger import MODE_ENGLISH, InitialTagger, InitialTaggerOptions
from rippletag.learner import Selection
from rippletag.lexicon import (
    SUFFIX_LENGTHS,
    SUFFIX_MIN_COUNT,
    Lexicon,
    LexiconFormatError,
    is_capitalized,
)
from rippletag.scrdr import (
    FIELD_NAMES,
    Node,
    Rule,
    TagObject,
    TreeFormatError,
    evaluate,
    insert_exception,
    new_root,
)
from rippletag.templates import CATALOG, Template, instantiate

POOL = ("alpha", "beta", "gamma", "delta", "NN", "VB", "ing", "ed")

TEMPLATE_BY_ID = {t.id: t for t in CATALOG}


class Record(NamedTuple):
    """One token as the reference scorers read it: context and gold tag.

    The learner keeps tokens as rows of corpus-wide columns;
    ``records_of`` turns rows back into records.
    """

    obj: TagObject
    gold: str


def records_of(columns, gold, rows) -> list[Record]:
    """The records of ``rows`` of the context ``columns`` and ``gold`` tags."""
    return [Record(TagObject(*(col[r] for col in columns)), gold[r]) for r in rows]


def reference_make_tag_objects(words: list[str], tags: list[str]) -> list[TagObject]:
    """Per-token context build, every field by keyword.

    ``make_tag_objects`` and ``block_columns`` lay the same fields out
    as rows; this is the plain version both must agree with.
    """
    if len(words) != len(tags):
        raise ValueError(f"{len(words)} words but {len(tags)} tags")
    n = len(words)
    objects = []
    for i, word in enumerate(words):
        objects.append(
            TagObject(
                prev2Word=words[i - 2] if i >= 2 else None,
                prev2Tag=tags[i - 2] if i >= 2 else None,
                prev1Word=words[i - 1] if i >= 1 else None,
                prev1Tag=tags[i - 1] if i >= 1 else None,
                word=word,
                currentTag=tags[i],
                next1Word=words[i + 1] if i + 1 < n else None,
                next1Tag=tags[i + 1] if i + 1 < n else None,
                next2Word=words[i + 2] if i + 2 < n else None,
                next2Tag=tags[i + 2] if i + 2 < n else None,
                suffix2=word[-2:] if len(word) > 2 else None,
                suffix3=word[-3:] if len(word) > 3 else None,
                suffix4=word[-4:] if len(word) > 4 else None,
            )
        )
    return objects


def reference_write_tagged_corpus(sentences, separator: str) -> str:
    """Per-token writer: every token checked by ``_check_token`` in order.

    ``sentences`` holds lists of (word, tag) pairs, and an empty one
    renders as a blank line.  ``write_tagged_corpus`` checks each
    distinct token once, in the order it first occurs; on a corpus it
    must return the same text or raise the same error as this.
    """
    lines = []
    for sentence in sentences:
        for word, tag in sentence:
            _check_token(word, tag, separator)
        lines.append(" ".join(f"{word}{separator}{tag}" for word, tag in sentence))
    return "".join(line + "\n" for line in lines)


def reference_serialize_lexicon(lexicon: Lexicon) -> str:
    """Per-entry writer: every key and tag tested in order as it is written.

    ``serialize_lexicon`` scans the whole text once instead; it must
    return the same text or raise the same error as this.
    """

    def entry(key: str, tag: str) -> str:
        if not (is_plain(key) and is_plain(tag)):
            raise ValueError(f"lexicon entry {(key, tag)!r}: empty or with whitespace")
        return f"{key}\t{tag}"

    lines = [
        entry("%%NUM%%", lexicon.numeric_tag),
        entry("%%CAP%%", lexicon.capitalized_tag),
        entry("%%LOW%%", lexicon.lowercase_tag),
    ]
    for n in SUFFIX_LENGTHS:
        table = lexicon.suffix_tags.get(n, {})
        for suffix in sorted(table):
            lines.append(entry(f"%%S{n}%%{suffix}", table[suffix]))
    for word in sorted(lexicon.word_tags):
        if word.startswith("%%"):
            raise ValueError(f"word {word!r} collides with reserved %% keys")
        lines.append(entry(word, lexicon.word_tags[word]))
    return "".join(line + "\n" for line in lines)


def reference_parse_lexicon(text: str) -> Lexicon:
    """Line-by-line reader: every line split and tested in order.

    ``parse_lexicon`` reads text in ``serialize_lexicon``'s layout by
    whole-text calls; it must return an equal lexicon, with its tables
    in the same order, or raise the same error as this.
    """
    defaults_keys = ("%%NUM%%", "%%CAP%%", "%%LOW%%")
    suffix_keys = {f"%%S{n}%%": n for n in SUFFIX_LENGTHS}
    word_tags: dict[str, str] = {}
    suffix_tags: dict[int, dict[str, str]] = {n: {} for n in SUFFIX_LENGTHS}
    defaults: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        key, sep, tag = line.partition("\t")
        if not sep or not key or not tag or "\t" in tag:
            raise LexiconFormatError(f"line {lineno}: expected 'key<TAB>tag'")
        if not (is_plain(key) and is_plain(tag)):
            raise LexiconFormatError(f"line {lineno}: whitespace in {key!r} or {tag!r}")
        if key in defaults_keys:
            if key in defaults:
                raise LexiconFormatError(f"line {lineno}: duplicate {key}")
            defaults[key] = tag
        elif key[:6] in suffix_keys:
            n = suffix_keys[key[:6]]
            suffix = key[6:]
            if len(suffix) != n:
                raise LexiconFormatError(
                    f"line {lineno}: suffix {suffix!r} is not {n} characters"
                )
            if suffix in suffix_tags[n]:
                raise LexiconFormatError(f"line {lineno}: duplicate suffix {suffix!r}")
            suffix_tags[n][suffix] = tag
        elif key.startswith("%%"):
            raise LexiconFormatError(f"line {lineno}: unknown reserved key {key!r}")
        else:
            if key in word_tags:
                raise LexiconFormatError(f"line {lineno}: duplicate word {key!r}")
            word_tags[key] = tag
    missing = [k for k in defaults_keys if k not in defaults]
    if missing:
        raise LexiconFormatError(f"missing default entries: {', '.join(missing)}")
    return Lexicon(word_tags, suffix_tags, *(defaults[k] for k in defaults_keys))


def _reference_quoted(line: str, pos: int, where: str) -> tuple[str, int]:
    """The quoted value at ``pos``, read a character at a time, and the
    position after its closing quote."""
    if pos >= len(line) or line[pos] != '"':
        raise TreeFormatError(f'{where}: expected \'"\' at column {pos + 1}')
    chars = []
    i = pos + 1
    while i < len(line):
        c = line[i]
        if c == "\\":
            if i + 1 >= len(line) or line[i + 1] not in ("\\", '"'):
                raise TreeFormatError(f"{where}: bad escape at column {i + 1}")
            chars.append(line[i + 1])
            i += 2
        elif c == '"':
            return "".join(chars), i + 1
        else:
            chars.append(c)
            i += 1
    raise TreeFormatError(f"{where}: unterminated string")


def _reference_rule(line: str, pos: int, where: str) -> Rule:
    """The rule written in ``line`` from ``pos``; columns count from the
    line's first character."""
    if not line.startswith("if ", pos):
        raise TreeFormatError(f"{where}: rule must start with 'if '")
    pos += 3
    tests: list[tuple[int, str]] = []
    if line.startswith("True then tag = ", pos):
        pos += len("True then tag = ")
    else:
        while True:
            eq = line.find(" == ", pos)
            if eq < 0:
                raise TreeFormatError(f"{where}: expected 'field == \"value\"'")
            name = line[pos:eq]
            if name not in FIELD_NAMES:
                raise TreeFormatError(f"{where}: unknown field {name!r}")
            value, pos = _reference_quoted(line, eq + 4, where)
            tests.append((FIELD_NAMES.index(name), value))
            if line.startswith(" and ", pos):
                pos += len(" and ")
            elif line.startswith(" then tag = ", pos):
                pos += len(" then tag = ")
                break
            else:
                raise TreeFormatError(
                    f"{where}: expected ' and ' or ' then tag = ' at column {pos + 1}"
                )
        if len({i for i, _ in tests}) != len(tests):
            raise TreeFormatError(f"{where}: a field is tested twice")
    conclusion, pos = _reference_quoted(line, pos, where)
    if pos != len(line):
        raise TreeFormatError(f"{where}: trailing text after conclusion")
    return Rule(tuple(sorted(tests)), conclusion)


def reference_parse_tree(text: str) -> Node:
    """Line-by-line reader: every rule read a character at a time.

    ``parse_tree`` reads a line without escapes by one split at its
    quotes; it must return an equal tree or raise the same error as
    this.
    """
    root: Node | None = None
    last_at_depth: dict[int, Node] = {}
    prev_depth = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        depth = len(line) - len(line.lstrip("\t"))
        where = f"line {lineno}"
        rule = _reference_rule(line, depth, where)
        if root is None:
            if depth != 0:
                raise TreeFormatError(f"{where}: first rule must not be indented")
            if rule.tests or rule.conclusion:
                raise TreeFormatError(
                    f"{where}: the root rule must be 'if True then tag = \"\"'"
                )
            root = last_at_depth[0] = Node(rule, 0)
            prev_depth = 0
            continue
        if depth == 0:
            raise TreeFormatError(f"{where}: only one unindented rule is allowed")
        if depth > prev_depth + 1:
            raise TreeFormatError(
                f"{where}: indentation jumps from {prev_depth} to {depth}"
            )
        if not rule.tests:
            raise TreeFormatError(f"{where}: only the root may be always-true")
        if not rule.conclusion:
            raise TreeFormatError(f"{where}: empty conclusion outside the root")
        node = Node(rule, depth)
        last_at_depth[depth - 1].exceptions.append(node)
        last_at_depth[depth] = node
        prev_depth = depth
    if root is None:
        raise TreeFormatError("empty tree text")
    return root


def reference_tag_words(tagger, words: list[str]) -> list[str]:
    """The tags of one sentence by the plain walk of ``tagger``'s model.

    The first guesses come from ``tagger.initial``; each token then gets
    the conclusion of the last node ``scrdr.evaluate`` fires, or its
    first guess where only the root (which concludes "") fires.  Nothing
    here is shared with the tagger's padded block window or its compiled
    chains, and the walk is iterative, so a tree of any depth tags.
    """
    tree = tagger.model.tree
    guesses = tagger.initial.tag_sentence(words)
    objects = reference_make_tag_objects(words, guesses)
    return [conclude(tree, obj) or guess for obj, guess in zip(objects, guesses)]


def tag_block_by_sentence(tagger, sentences: list[list[str]]) -> list[list[str]]:
    """``tagger.tag_block`` over ``sentences``, cut into one list per sentence.

    The block's words are the sentences' words one after another, and
    the flat tags are cut back by each sentence's length.
    """
    lengths = [len(words) for words in sentences]
    tags = tagger.tag_block([word for words in sentences for word in words], lengths)
    assert len(tags) == sum(lengths)
    rest = iter(tags)
    return [list(islice(rest, n)) for n in lengths]


def reference_tag_text(tagger, text: str) -> str:
    """What ``rippletag tag`` writes for ``text``, from the whole text at once.

    ``cmd_tag`` reads, tags and renders in blocks of lines, without the
    writer's checks; its output must equal this one-pass rendering of
    every line, tagged by the plain walk, through the per-token checks
    of ``reference_write_tagged_corpus``, which writes an empty
    sentence as a blank line.
    """
    # only "\n" ends a line, and a final one ends the last line rather than
    # starting an empty one; blank lines stay, as empty sentences
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return reference_write_tagged_corpus(
        [
            list(zip(words, reference_tag_words(tagger, words)))
            for words in map(str.split, lines)
        ],
        tagger.model.separator,
    )


def reference_select_rule(
    wrong: list[Record], correct: list[Record] | None, floor: int
) -> Selection | None:
    """Select a node's rule by counting every candidate from the lists.

    ``select_rule`` scans tables it brings up to date lazily; this
    recounts all wrong records per template (and the correct ones for
    the veto) on every call, and must pick the same rule.  A rule must
    score above ``floor``.
    """
    objs = [r.obj for r in wrong]
    golds = [r.gold for r in wrong]
    correct_objs = None if correct is None else [r.obj for r in correct]
    best = None
    for template in CATALOG:
        get = itemgetter(*template.fields)
        # a one-field getter returns the bare value, not a 1-tuple;
        # within one template both sort alike, so the tie-break holds
        single = len(template.fields) == 1
        keys = list(map(get, objs))
        matched = Counter(keys)
        fixed = Counter(zip(keys, golds))
        blocked = None
        for (values, conclusion), a in fixed.items():
            if a <= floor:
                continue
            if (values is None) if single else (None in values):
                continue
            score = 2 * a - matched[values]
            if score <= floor:
                continue
            key = (-score, template.id, values, conclusion)
            if best is not None and key >= best[0]:
                continue
            if correct_objs is not None:
                if blocked is None:
                    blocked = set(map(get, correct_objs))
                if values in blocked:
                    continue
            best = (key, template, a, matched[values] - a)
    if best is None:
        return None
    (_, _, values, conclusion), template, a, b = best
    if len(template.fields) == 1:
        values = (values,)
    return Selection(instantiate(template, values, conclusion), template.id, a, b)


def reference_candidate_tables(
    wrong: list[Record], correct: list[Record] | None, floor: int
) -> dict[int, tuple[dict, dict]]:
    """A node's unvetoed hot candidate counts, one record and template at a time.

    Per template id with such a candidate: ``fixed[values, gold]`` for
    the hot candidates (count above ``floor``, no unset field) and
    ``matched[values]`` over ``wrong`` for their values.  Unless
    ``correct`` is None, both hold only the hot values that no record in
    ``correct`` has: a value is hot or not before the veto.  Values are
    always tuples.
    """
    tables = {}
    for template in CATALOG:
        counts: dict = {}
        for r in wrong:
            values = project(template, r.obj)
            if values is not None:
                counts[values, r.gold] = counts.get((values, r.gold), 0) + 1
        fixed = {key: a for key, a in counts.items() if a > floor}
        if correct is not None:
            vetoed = {project(template, r.obj) for r in correct}
            fixed = {key: a for key, a in fixed.items() if key[0] not in vetoed}
        if not fixed:
            continue
        hot = {values for values, _ in fixed}
        matched = {values: 0 for values in hot}
        for r in wrong:
            values = project(template, r.obj)
            if values in hot:
                matched[values] += 1
        tables[template.id] = (fixed, matched)
    return tables


def random_tagged_text(rng: random.Random, n_tokens: int) -> str:
    """A ``word/tag`` corpus of about ``n_tokens`` tokens from a small language.

    Tags follow a random transition table and each of 150 words takes
    one to three tags, so many words are ambiguous and their tag
    depends on the context: enough for rules several levels deep.
    """
    tags = ("DT", "NN", "VB", "JJ", "IN", "PRP", "MD", "RB", "CC")
    follow = {t: rng.sample(tags, 3) for t in tags}
    words_for: dict[str, list[str]] = {t: [] for t in tags}
    for i in range(150):
        word = "".join(rng.choice("aeioubdgklmnrst") for _ in range(rng.randint(2, 7)))
        own = tags[i % len(tags)]
        extra = [t for t in rng.sample(tags, rng.choice((0, 0, 1, 2))) if t != own]
        for tag in [own, *extra]:
            words_for[tag].append(f"{word}{i}")
    lines, count = [], 0
    while count < n_tokens:
        tag = rng.choice(tags)
        sentence = []
        for _ in range(rng.randint(3, 15)):
            options = words_for[tag]
            sentence.append(f"{rng.choice(options[:rng.randint(1, len(options))])}/{tag}")
            tag = rng.choice(follow[tag])
        lines.append(" ".join(sentence))
        count += len(sentence)
    return "\n".join(lines) + "\n"


def conclude(root: Node, obj: TagObject) -> str:
    return evaluate(root, obj).node.rule.conclusion


def project(template: Template, obj: TagObject) -> tuple[str, ...] | None:
    """Field values of obj for this template; None if any field is unset."""
    values = []
    for i in template.fields:
        v = obj[i]
        if v is None:
            return None
        values.append(v)
    return tuple(values)


def candidate_rules(obj: TagObject, conclusion: str) -> list[tuple[Template, Rule]]:
    """Every template filled from obj; templates touching unset fields skip."""
    out = []
    for template in CATALOG:
        values = project(template, obj)
        if values is not None:
            out.append((template, instantiate(template, values, conclusion)))
    return out


def ref_matches(rule: Rule, obj: TagObject) -> bool:
    for field_idx, value in rule.tests:
        if getattr(obj, FIELD_NAMES[field_idx]) != value:
            return False
    return True


def reference_iter_nodes(root: Node) -> Iterator[Node]:
    """Recursive pre-order: a node, then each of its exceptions' subtrees.

    ``iter_nodes`` walks with its own stack; this is the plain version
    it must agree with on trees shallower than the recursion limit.
    """
    yield root
    for child in root.exceptions:
        yield from reference_iter_nodes(child)


def node_at(root: Node, address: str) -> Node:
    """The node an audit address names, read one step at a time.

    From the root, "e" steps to the current node's first exception and
    each "i" to the next of its parent's exceptions; "" is the root.
    """
    node = root
    for step in address.split(".") if address else ():
        if step == "e":
            parent, k = node, 0
        else:
            assert step == "i", address
            k += 1
        node = parent.exceptions[k]
    return node


def strip_tags(corpus: TaggedCorpus) -> str:
    """Raw text with the same sentence/token layout, tags removed."""
    return "".join(
        " ".join(t.word for t in sentence) + "\n" for sentence in corpus.sentences
    )


def trees_equal(a: Node, b: Node) -> bool:
    """Structural equality: same rules, levels and wiring."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x.rule != y.rule or x.level != y.level:
            return False
        if len(x.exceptions) != len(y.exceptions):
            return False
        stack += zip(x.exceptions, y.exceptions)
    return True


def reference_evaluate(root: Node, obj: TagObject):
    """Plain walk: try each exception, descend on the first that fires."""
    path = [root]

    def walk(last: Node) -> Node:
        for node in last.exceptions:
            path.append(node)
            if ref_matches(node.rule, obj):
                return walk(node)
        return last

    last = walk(root)
    return last, tuple(path)


def random_rule(rng: random.Random, pool=POOL) -> Rule:
    n_tests = rng.randint(1, 3)
    fields = rng.sample(range(len(FIELD_NAMES)), n_tests)
    tests = tuple(sorted((f, rng.choice(pool)) for f in fields))
    return Rule(tests, rng.choice(pool))


def random_tree(rng: random.Random, n_rules: int, pool=POOL) -> Node:
    root = new_root()
    nodes = [root]
    for _ in range(n_rules):
        parent = rng.choice(nodes)
        nodes.append(insert_exception(parent, random_rule(rng, pool)))
    return root


def random_object(rng: random.Random, pool=POOL, none_rate=0.2) -> TagObject:
    def maybe() -> str | None:
        return None if rng.random() < none_rate else rng.choice(pool)

    return TagObject(
        prev2Word=maybe(),
        prev2Tag=maybe(),
        prev1Word=maybe(),
        prev1Tag=maybe(),
        word=rng.choice(pool),
        currentTag=rng.choice(pool),
        next1Word=maybe(),
        next1Tag=maybe(),
        next2Word=maybe(),
        next2Tag=maybe(),
        suffix2=maybe(),
        suffix3=maybe(),
        suffix4=maybe(),
    )


def random_lexicon(rng: random.Random) -> Lexicon:
    tags = ("NN", "VB", "JJ", "CD")
    words = rng.sample(
        [f"word{i}" for i in range(40)] + ["x", "Price", "39-year", 'odd"one', "a\\b"],
        rng.randint(1, 20),
    )
    suffix_tags = {}
    for n in SUFFIX_LENGTHS:
        table = {}
        for _ in range(rng.randint(0, 5)):
            suffix = "".join(rng.choice("abcdefg") for _ in range(n))
            table[suffix] = rng.choice(tags)
        suffix_tags[n] = table
    return Lexicon(
        word_tags={w: rng.choice(tags) for w in words},
        suffix_tags=suffix_tags,
        numeric_tag=rng.choice(tags),
        capitalized_tag=rng.choice(tags),
        lowercase_tag=rng.choice(tags),
    )


def _majority(counter: Counter[str], first_seen: dict[str, int]) -> str:
    """Highest count; ties go to the tag seen earliest in the corpus."""
    return min(counter, key=lambda t: (-counter[t], first_seen[t]))


def reference_build_lexicon(corpus: TaggedCorpus) -> Lexicon:
    """Per-token lexicon build: one counter update per token and table.

    ``build_lexicon`` counts each distinct (word, tag) pair once; this
    is the plain version it must agree with.
    """
    word_tag_counts: dict[str, Counter[str]] = {}
    suffix_tag_counts: dict[int, dict[str, Counter[str]]] = {
        n: {} for n in SUFFIX_LENGTHS
    }
    class_counts = {"num": Counter(), "cap": Counter(), "low": Counter()}
    all_tag_counts: Counter[str] = Counter()
    first_seen: dict[str, int] = {}

    for index, (word, tag) in enumerate(corpus.tokens()):
        first_seen.setdefault(tag, index)
        word_tag_counts.setdefault(word, Counter())[tag] += 1
        all_tag_counts[tag] += 1
        for n in SUFFIX_LENGTHS:
            if len(word) > n:
                suffix_tag_counts[n].setdefault(word[-n:], Counter())[tag] += 1
        if reference_contains_digit(word):
            class_counts["num"][tag] += 1
        elif is_capitalized(word):
            class_counts["cap"][tag] += 1
        else:
            class_counts["low"][tag] += 1

    if not all_tag_counts:
        raise ValueError("cannot build a lexicon from an empty corpus")

    word_tags = {
        word: _majority(tags, first_seen) for word, tags in word_tag_counts.items()
    }

    suffix_tags: dict[int, dict[str, str]] = {}
    for n in SUFFIX_LENGTHS:
        table = {}
        for suffix, tags in suffix_tag_counts[n].items():
            winner = _majority(tags, first_seen)
            if tags[winner] >= SUFFIX_MIN_COUNT[n]:
                table[suffix] = winner
        suffix_tags[n] = table

    fallback = _majority(all_tag_counts, first_seen)

    def class_default(key: str) -> str:
        counter = class_counts[key]
        return _majority(counter, first_seen) if counter else fallback

    return Lexicon(
        word_tags=word_tags,
        suffix_tags=suffix_tags,
        numeric_tag=class_default("num"),
        capitalized_tag=class_default("cap"),
        lowercase_tag=class_default("low"),
    )


def reference_contains_digit(word: str) -> bool:
    """Per-character digit test; ``lexicon.contains_digit`` is one regex."""
    return any(c.isdecimal() for c in word)


def reference_suffix_tag(lexicon: Lexicon, word: str, n: int) -> str | None:
    """Majority tag for the last n characters, proper suffixes only."""
    if len(word) <= n:
        return None
    return lexicon.suffix_tags.get(n, {}).get(word[-n:])


def reference_default_tag(lexicon: Lexicon, word: str) -> str:
    """The class default: digit, else capitalized, else lowercase."""
    if reference_contains_digit(word):
        return lexicon.numeric_tag
    if is_capitalized(word):
        return lexicon.capitalized_tag
    return lexicon.lowercase_tag


def reference_guess_unknown(
    lexicon: Lexicon, options: InitialTaggerOptions, word: str
) -> str:
    """The unknown-word chain with every regex rule run by ``search``.

    ``InitialTagger.guess_unknown`` answers affix rules by dict lookups,
    runs other anchored rules with ``match`` and keeps its tables
    ready-made; it must answer as this does.
    """
    if options.mode == MODE_ENGLISH:
        known_tags = lexicon.tagset
        for pattern, tag in options.regex_rules:
            if tag in known_tags and re.search(pattern, word):
                return tag
    if reference_contains_digit(word):
        return lexicon.numeric_tag
    for n in sorted(SUFFIX_LENGTHS, reverse=True):
        tag = reference_suffix_tag(lexicon, word, n)
        if tag is not None:
            return tag
    return reference_default_tag(lexicon, word)


def reference_initialize_corpus(gold: TaggedCorpus, tagger: InitialTagger) -> list[str]:
    """Per-token first guesses for training, one per token, in token order.

    A word that occurs once in gold gets ``reference_guess_unknown``;
    any other word its lexicon tag, or that guess if it has none.
    ``initialize_corpus`` re-guesses such words after
    ``InitialTagger.tag_sentence``; it must answer as this does.
    """
    counts = Counter(t.word for t in gold.tokens())
    lexicon, options = tagger.lexicon, tagger.options
    first_guesses = []
    for word, _ in gold.tokens():
        tag = None if counts[word] == 1 else lexicon.word_tags.get(word)
        if tag is None:
            tag = reference_guess_unknown(lexicon, options, word)
        first_guesses.append(tag)
    return first_guesses


def deep_tree_text(depth: int) -> str:
    """Model text for a tree nested ``depth`` levels deep.

    Level k holds two rules: ``word == "wk"`` concluding ``Lk``, then
    ``prev1Word == "x"`` concluding ``Ck``, under which level k + 1
    hangs.  So after an ``x`` the word ``wk`` is tagged ``Lk``, another
    ``x`` is tagged ``C<depth>``, and nothing else fires.
    """
    lines = ['if True then tag = ""']
    for k in range(1, depth + 1):
        tabs = "\t" * k
        lines.append(f'{tabs}if word == "w{k}" then tag = "L{k}"')
        lines.append(f'{tabs}if prev1Word == "x" then tag = "C{k}"')
    return "".join(line + "\n" for line in lines)


def count_tagger_json_loads(monkeypatch) -> mock.Mock:
    """Replace ``rippletag.tagger``'s ``json`` with one whose ``loads``
    is a Mock wrapping the real ``json.loads``; returns that Mock."""
    loads = mock.Mock(wraps=json.loads)
    stand_in = SimpleNamespace(
        loads=loads, dumps=json.dumps, JSONDecodeError=json.JSONDecodeError
    )
    monkeypatch.setattr(tagger_module, "json", stand_in)
    return loads
