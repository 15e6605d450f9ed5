"""Exception-structured rule tree: the data structure behind the tagger.

Each node holds a rule, a condition over a 13-field context object and a
conclusion tag, and its exceptions, a list of nodes in the order they
are tried.  Evaluation starts at an always-true root and, at each node
that fired, tries its exceptions in order and descends into the first
whose condition holds; the answer comes from the last node that fired.
New knowledge is added as an exception under the node that produced a
wrong answer, after the exceptions it already has, so earlier behaviour
is only ever overridden, never edited.
"""

from __future__ import annotations

import re
from functools import partial
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple, Sequence


class TreeFormatError(ValueError):
    """Malformed serialized tree."""


class TagObject(NamedTuple):
    """Context for one token: a two-word window each side plus suffixes.

    Fields outside the sentence, and suffixes as long as the word
    itself, are None.
    """

    prev2Word: str | None
    prev2Tag: str | None
    prev1Word: str | None
    prev1Tag: str | None
    word: str
    currentTag: str
    next1Word: str | None
    next1Tag: str | None
    next2Word: str | None
    next2Tag: str | None
    suffix2: str | None
    suffix3: str | None
    suffix4: str | None


FIELD_NAMES = TagObject._fields
FIELD_INDEX = {name: i for i, name in enumerate(FIELD_NAMES)}


class _Suffixes:
    """Column of one suffix length, cut from each word only when read.

    Item ``i`` is ``_suffixes(words, n)[i]``, without building the list.
    """

    __slots__ = ("words", "n")

    def __init__(self, words: Sequence[str], n: int) -> None:
        self.words = words
        self.n = n

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, i: int) -> str | None:
        word = self.words[i]
        n = self.n
        return word[-n:] if len(word) > n else None


def _suffixes(words: Sequence[str], n: int) -> list[str | None]:
    """The last ``n`` characters of each word, None unless it is longer."""
    return [word[-n:] if len(word) > n else None for word in words]


def block_columns(
    words: Sequence[str], tags: Sequence[str], lengths: Iterable[int]
) -> tuple[Sequence[str | None], ...]:
    """The context window of a block of sentences, one column per field.

    ``words`` and ``tags`` hold one word and one tag per token of the
    block, in sentence order, and ``lengths`` the length of each
    sentence.  Row ``r`` of every column is token ``r``: for a sentence
    that starts at row ``start``, row ``start + i`` is
    ``make_tag_objects(its words, its tags)[i]``.
    The ten neighbour columns are slices of the words and of the tags,
    each padded with two Nones at both ends; then, at each sentence
    edge, the cells whose neighbour lies across it are set to None, so
    no neighbour crosses a sentence edge.

    The word and current-tag columns are ``words`` and ``tags``
    themselves, so neither may change while the columns are in use.
    The three suffix columns cut a word's suffix only when it is read,
    since a tree walk reads few of them; ``corpus_columns`` cuts every
    suffix once per distinct word, for training.
    """
    n = len(words)
    if n != len(tags):
        raise ValueError(f"{n} words but {len(tags)} tags")
    w = [None, None, *words, None, None]
    t = [None, None, *tags, None, None]
    prev2w, prev2t, prev1w, prev1t = w[0:n], t[0:n], w[1 : n + 1], t[1 : n + 1]
    next1w, next1t, next2w, next2t = w[3 : n + 3], t[3 : n + 3], w[4:], t[4:]
    s = 0
    # each sentence ends where the next one starts, at row s
    for s in accumulate(lengths):
        if 0 < s < n:
            prev2w[s] = prev2t[s] = prev1w[s] = prev1t[s] = None
            next1w[s - 1] = next1t[s - 1] = next2w[s - 1] = next2t[s - 1] = None
            if s + 1 < n:
                prev2w[s + 1] = prev2t[s + 1] = None
            if s >= 2:
                next2w[s - 2] = next2t[s - 2] = None
    if s != n:
        raise ValueError(f"sentences of {s} words in a block of {n}")
    return (
        prev2w,
        prev2t,
        prev1w,
        prev1t,
        words,
        tags,
        next1w,
        next1t,
        next2w,
        next2t,
        _Suffixes(words, 2),
        _Suffixes(words, 3),
        _Suffixes(words, 4),
    )


def corpus_columns(
    words: Sequence[str], tags: Sequence[str], lengths: Iterable[int]
) -> tuple[Sequence[str | None], ...]:
    """The context window of many sentences, one column per field.

    The ten neighbour columns are ``block_columns(words, tags,
    lengths)``'s; the three suffix columns are lists, cut once per
    distinct word, so all tokens of a word share its suffix strings.
    """
    columns = list(block_columns(words, tags, lengths)[:10])
    distinct = list(set(words))
    for k in (2, 3, 4):
        cut = dict(zip(distinct, _suffixes(distinct, k)))
        columns.append(list(map(cut.__getitem__, words)))
    return tuple(columns)


_new_tag_object = partial(tuple.__new__, TagObject)


def make_tag_objects(words: Sequence[str], tags: Sequence[str]) -> list[TagObject]:
    """Build the per-token context objects for one sentence.

    Object ``i`` is row ``i`` of ``block_columns(words, tags,
    [len(words)])``.  It is built here on its own, so that a check of
    the tagger against these objects shares no window code with it.
    """
    if len(words) != len(tags):
        raise ValueError(f"{len(words)} words but {len(tags)} tags")
    w = [None, None, *words, None, None]
    t = [None, None, *tags, None, None]
    suffixes = [_suffixes(words, k) for k in (2, 3, 4)]
    # zip stops at the end of the sentence, the shortest of the columns
    columns = (w, t, w[1:], t[1:], words, tags, w[3:], t[3:], w[4:], t[4:])
    return list(map(_new_tag_object, zip(*columns, *suffixes)))


class Rule(NamedTuple):
    """Condition plus conclusion.

    ``tests`` is a tuple of (field index, required value) pairs, sorted
    by field index; the empty tuple is the always-true condition.  A
    None field value never satisfies a test.
    """

    tests: tuple[tuple[int, str], ...]
    conclusion: str

    def matches(self, obj: TagObject) -> bool:
        for i, value in self.tests:
            if obj[i] != value:
                return False
        return True


TRUE_RULE = Rule((), "")

_new_rule = partial(tuple.__new__, Rule)


class Node:
    """Tree node; level is its depth below the root.

    ``exceptions`` holds the nodes tried when this one fires, in the
    order they are tried, which is the order they were added.
    """

    __slots__ = ("rule", "level", "exceptions")

    def __init__(self, rule: Rule, level: int) -> None:
        self.rule = rule
        self.level = level
        self.exceptions: list[Node] = []

    def __repr__(self) -> str:
        return f"Node(level={self.level}, {render_rule(self.rule)!r})"


def new_root() -> Node:
    return Node(TRUE_RULE, 0)


class EvalResult(NamedTuple):
    node: Node
    path: tuple[Node, ...]


def evaluate(root: Node, obj: TagObject) -> EvalResult:
    """Walk the tree for one context object.

    Returns the last node whose condition held and the full visit
    path, failed nodes included.  The root always fires, so the result
    node is never None.
    """
    if root.rule.tests:
        raise ValueError("root rule must be the always-true rule")
    visited = [root]
    fired = root
    while True:
        for node in fired.exceptions:
            visited.append(node)
            if node.rule.matches(obj):
                fired = node
                break
        else:
            return EvalResult(fired, tuple(visited))


def insert_exception(parent: Node, rule: Rule) -> Node:
    """Attach a rule as parent's last exception.

    The new node sits one level below parent, is tried only when parent
    fires, and only after the exceptions parent already has.
    """
    if not rule.tests:
        raise ValueError("cannot insert an always-true rule")
    if not rule.conclusion:
        raise ValueError("cannot insert a rule with an empty conclusion")
    node = Node(rule, parent.level + 1)
    parent.exceptions.append(node)
    return node


def iter_nodes(root: Node) -> Iterator[Node]:
    """All nodes in serialization order: a node, then each of its exceptions
    with everything below it, in order.

    The walk keeps its own stack, so a tree of any depth is listed
    without recursion.
    """
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        # most nodes are leaves: testing the list costs less than extending by it
        if node.exceptions:
            stack += reversed(node.exceptions)


def count_rules(root: Node) -> int:
    """Non-root nodes in the tree."""
    return sum(1 for _ in iter_nodes(root)) - 1


def layer_census(root: Node) -> dict[int, int]:
    census: dict[int, int] = {}
    for node in iter_nodes(root):
        if node.level > 0:
            census[node.level] = census.get(node.level, 0) + 1
    return dict(sorted(census.items()))


def truncate(root: Node, max_level: int) -> Node:
    """Copy of the tree keeping only nodes at or below max_level."""
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    clones = {
        node: Node(node.rule, node.level)
        for node in iter_nodes(root)
        if node.level <= max_level
    }
    for node, clone in clones.items():
        if node.level < max_level:
            clone.exceptions = [clones[child] for child in node.exceptions]
    return clones[root]


# Every character str.splitlines breaks on, which parse_tree splits by.
_LINE_BREAK = re.compile("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _escape(value: str) -> str:
    # the text form is line-based, so values must stay on one line
    if _LINE_BREAK.search(value):
        raise ValueError(f"rule value {value!r} contains a line break")
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _parse_quoted(s: str, pos: int, where: str) -> tuple[str, int]:
    if pos >= len(s) or s[pos] != '"':
        raise TreeFormatError(f'{where}: expected \'"\' at column {pos + 1}')
    chars = []
    i = pos + 1
    while i < len(s):
        c = s[i]
        if c == "\\":
            if i + 1 >= len(s) or s[i + 1] not in ('\\', '"'):
                raise TreeFormatError(f"{where}: bad escape at column {i + 1}")
            chars.append(s[i + 1])
            i += 2
        elif c == '"':
            return "".join(chars), i + 1
        else:
            chars.append(c)
            i += 1
    raise TreeFormatError(f"{where}: unterminated string")


def render_rule(rule: Rule) -> str:
    if not rule.tests:
        condition = "True"
    else:
        condition = " and ".join(
            f'{FIELD_NAMES[i]} == "{_escape(v)}"' for i, v in rule.tests
        )
    return f'if {condition} then tag = "{_escape(rule.conclusion)}"'


def parse_rule_text(s: str, where: str = "rule", start: int = 0) -> Rule:
    """The rule written in ``s`` from index ``start`` to its end.

    Error columns count from the first character of ``s``, so that a
    tree line's columns include its indentation.
    """
    if not s.startswith("if ", start):
        raise TreeFormatError(f"{where}: rule must start with 'if '")
    pos = start + 3
    tests: list[tuple[int, str]] = []
    if s.startswith("True then tag = ", pos):
        pos += len("True then tag = ")
    else:
        while True:
            eq = s.find(" == ", pos)
            if eq < 0:
                raise TreeFormatError(f"{where}: expected 'field == \"value\"'")
            name = s[pos:eq]
            if name not in FIELD_INDEX:
                raise TreeFormatError(f"{where}: unknown field {name!r}")
            value, pos = _parse_quoted(s, eq + 4, where)
            tests.append((FIELD_INDEX[name], value))
            if s.startswith(" and ", pos):
                pos += len(" and ")
            elif s.startswith(" then tag = ", pos):
                pos += len(" then tag = ")
                break
            else:
                raise TreeFormatError(
                    f"{where}: expected ' and ' or ' then tag = ' at column {pos + 1}"
                )
        indices = [i for i, _ in tests]
        if len(set(indices)) != len(indices):
            raise TreeFormatError(f"{where}: a field is tested twice")
    conclusion, pos = _parse_quoted(s, pos, where)
    if pos != len(s):
        raise TreeFormatError(f"{where}: trailing text after conclusion")
    return Rule(tuple(sorted(tests)), conclusion)


def serialize_tree(root: Node) -> str:
    """Text form, one rule per line, indented by one tab per ``node.level``."""
    return "".join(
        "\t" * node.level + render_rule(node.rule) + "\n" for node in iter_nodes(root)
    )


# The parts between the quotes of a rule line as render_rule writes it:
# the part before the first value, by the field it tests; each part
# between two values, by the field of the next test; and the part
# before the conclusion, or the whole always-true condition.
_FIRST_TEST = {f"if {name} == ": i for i, name in enumerate(FIELD_NAMES)}
_NEXT_TEST = {f" and {name} == ": i for i, name in enumerate(FIELD_NAMES)}
_THEN = " then tag = "
_ALWAYS = "if True then tag = "


def _split_rule(parts: list[str], head: str) -> Rule | None:
    """The rule of a line with no backslash, from its ``split('"')``.

    ``head`` is ``parts[0]`` without its indentation.  Values and the
    conclusion are the odd parts, so a rule as ``render_rule`` writes it
    splits into an odd number of parts, the last of them empty.  Returns
    None for any other line, and for a rule that tests a field twice;
    ``parse_rule_text`` then reads the line or names its fault.
    """
    n = len(parts)
    if not n & 1 or parts[-1]:
        return None
    if n < 5:
        # the always-true rule, or an empty line
        return _new_rule(((), parts[1])) if head == _ALWAYS else None
    field = _FIRST_TEST.get(head)
    if field is None or parts[-3] != _THEN:
        return None
    tests = [(field, parts[1])]
    for i in range(2, n - 3, 2):
        field = _NEXT_TEST.get(parts[i])
        if field is None:
            return None
        tests.append((field, parts[i + 1]))
    if n > 5:
        tests.sort()
        if len({field for field, _ in tests}) != len(tests):
            return None
    return _new_rule((tuple(tests), parts[-2]))


def parse_tree(text: str) -> Node:
    """Inverse of serialize_tree; validates structure as it reads.

    A line with no backslash is read by one ``split('"')`` and table
    lookups (``_split_rule``); any other line, and one that does not
    split as ``render_rule`` writes, by ``parse_rule_text``, which reads
    escapes and names the column of a fault, counting indentation tabs.
    """
    root: Node | None = None
    last_at_depth: dict[int, Node] = {}
    prev_depth = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split('"')
        head = parts[0].lstrip("\t")
        depth = len(parts[0]) - len(head)
        rule = None if "\\" in line else _split_rule(parts, head)
        if rule is None:
            if not line.strip():
                continue
            rule = parse_rule_text(line, f"line {lineno}", depth)
        if root is None:
            if depth != 0:
                raise TreeFormatError(f"line {lineno}: first rule must not be indented")
            if rule.tests or rule.conclusion:
                raise TreeFormatError(
                    f"line {lineno}: the root rule must be 'if True then tag = \"\"'"
                )
            root = Node(rule, 0)
            last_at_depth[0] = root
            prev_depth = 0
            continue
        if depth == 0:
            raise TreeFormatError(f"line {lineno}: only one unindented rule is allowed")
        if depth > prev_depth + 1:
            raise TreeFormatError(
                f"line {lineno}: indentation jumps from {prev_depth} to {depth}"
            )
        if not rule.tests:
            raise TreeFormatError(f"line {lineno}: only the root may be always-true")
        if not rule.conclusion:
            raise TreeFormatError(f"line {lineno}: empty conclusion outside the root")
        node = Node(rule, depth)
        # the last node read one level up is this node's parent
        last_at_depth[depth - 1].exceptions.append(node)
        last_at_depth[depth] = node
        prev_depth = depth
    if root is None:
        raise TreeFormatError("empty tree text")
    return root
