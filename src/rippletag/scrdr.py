"""Exception-structured rule tree: the data structure behind the tagger.

Each node holds a rule, a condition over a 13-field context object and a
conclusion tag.  Evaluation starts at an always-true root and repeatedly
takes the "except" edge when a condition holds and the "if-not" edge
when it does not; the answer comes from the last node that fired.  New
knowledge is added as an exception under the node that produced a wrong
answer, so earlier behaviour is only ever overridden, never edited.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Iterable, Iterator, NamedTuple, Sequence

FIELD_NAMES = (
    "prev2Word",
    "prev2Tag",
    "prev1Word",
    "prev1Tag",
    "word",
    "currentTag",
    "next1Word",
    "next1Tag",
    "next2Word",
    "next2Tag",
    "suffix2",
    "suffix3",
    "suffix4",
)

FIELD_INDEX = {name: i for i, name in enumerate(FIELD_NAMES)}


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


def _window(words: Sequence[str], tags: Sequence[str]) -> tuple[list[str | None], ...]:
    """The ten neighbour columns of ``context_columns``."""
    if len(words) != len(tags):
        raise ValueError(f"{len(words)} words but {len(tags)} tags")
    n = len(words)
    w = [None, None, *words, None, None]
    t = [None, None, *tags, None, None]
    return (
        w[0:n],
        t[0:n],
        w[1 : n + 1],
        t[1 : n + 1],
        w[2 : n + 2],
        t[2 : n + 2],
        w[3 : n + 3],
        t[3 : n + 3],
        w[4 : n + 4],
        t[4 : n + 4],
    )


def context_columns(
    words: Sequence[str], tags: Sequence[str]
) -> tuple[Sequence[str | None], ...]:
    """The context window of one sentence, one column per field.

    Column ``FIELD_INDEX[name]`` holds field ``name`` of every token in
    sentence order, so ``columns[f][i]`` is ``make_tag_objects(words,
    tags)[i][f]``.  Neighbours outside the sentence, and suffixes as
    long as the word itself, are None.  The ten neighbour columns are
    lists; the three suffix columns cut a word's suffix only when it is
    read, since a tree walk reads few of them.  They read ``words``
    itself, so it must not change while the columns are in use.
    Training reads many sentences at once through ``corpus_columns``.
    """
    return (
        *_window(words, tags),
        _Suffixes(words, 2),
        _Suffixes(words, 3),
        _Suffixes(words, 4),
    )


def corpus_columns(
    pairs: Iterable[tuple[Sequence[str], Sequence[str]]],
) -> tuple[list[str | None], ...]:
    """The context window of many sentences, one column per field.

    ``pairs`` holds one ``(words, tags)`` pair per sentence.  Row ``r``
    of every column is token ``r`` of the whole input, and each
    sentence's window is cut as ``context_columns`` cuts it, so no
    neighbour crosses a sentence edge.  All thirteen columns are lists;
    the suffixes are cut in one pass over the word column.
    """
    columns: list[list[str | None]] = [[] for _ in range(10)]
    for words, tags in pairs:
        for column, part in zip(columns, _window(words, tags)):
            column += part
    words = columns[FIELD_INDEX["word"]]
    return (*columns, _suffixes(words, 2), _suffixes(words, 3), _suffixes(words, 4))


_new_tag_object = partial(tuple.__new__, TagObject)


def make_tag_objects(words: Sequence[str], tags: Sequence[str]) -> list[TagObject]:
    """Build the per-token context objects for one sentence.

    Object ``i`` is row ``i`` of ``corpus_columns([(words, tags)])``.
    """
    return list(map(_new_tag_object, zip(*corpus_columns([(words, tags)]))))


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


class Node:
    """Tree node; level is the number of except edges above it."""

    __slots__ = ("rule", "level", "except_child", "ifnot_child")

    def __init__(
        self,
        rule: Rule,
        level: int,
        except_child: "Node | None" = None,
        ifnot_child: "Node | None" = None,
    ) -> None:
        self.rule = rule
        self.level = level
        self.except_child = except_child
        self.ifnot_child = ifnot_child

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
    last_fired = root
    current = root.except_child
    while current is not None:
        visited.append(current)
        if current.rule.matches(obj):
            last_fired = current
            current = current.except_child
        else:
            current = current.ifnot_child
    return EvalResult(last_fired, tuple(visited))


def insert_exception(parent: Node, rule: Rule) -> Node:
    """Attach a rule as an exception to parent.

    Goes into the empty except slot if there is one, otherwise onto the
    end of the existing exception's if-not chain.  Either way the new
    node sits one level below parent and is tried only when parent
    fires.
    """
    if not rule.tests:
        raise ValueError("cannot insert an always-true rule")
    if not rule.conclusion:
        raise ValueError("cannot insert a rule with an empty conclusion")
    node = Node(rule, parent.level + 1)
    if parent.except_child is None:
        parent.except_child = node
    else:
        tail = parent.except_child
        while tail.ifnot_child is not None:
            tail = tail.ifnot_child
        tail.ifnot_child = node
    return node


def iter_nodes(root: Node) -> Iterator[Node]:
    """All nodes in serialization order: node, exceptions, then if-nots.

    The walk keeps its own stack, so a tree of any depth is listed
    without recursion.
    """
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if node.ifnot_child is not None:
            stack.append(node.ifnot_child)
        if node.except_child is not None:
            stack.append(node.except_child)


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
        clone.except_child = clones.get(node.except_child)
        clone.ifnot_child = clones.get(node.ifnot_child)
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


def parse_rule_text(s: str, where: str = "rule") -> Rule:
    if not s.startswith("if "):
        raise TreeFormatError(f"{where}: rule must start with 'if '")
    pos = 3
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


def parse_tree(text: str) -> Node:
    """Inverse of serialize_tree; validates structure as it reads."""
    root: Node | None = None
    last_at_depth: dict[int, Node] = {}
    prev_depth = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        stripped = line.lstrip("\t")
        depth = len(line) - len(stripped)
        where = f"line {lineno}"
        rule = parse_rule_text(stripped, where)
        if root is None:
            if depth != 0:
                raise TreeFormatError(f"{where}: first rule must not be indented")
            if rule.tests or rule.conclusion:
                raise TreeFormatError(
                    f"{where}: the root rule must be 'if True then tag = \"\"'"
                )
            root = Node(rule, 0)
            last_at_depth[0] = root
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
        if depth == prev_depth + 1:
            last_at_depth[depth - 1].except_child = node
        else:
            # the last node read at this depth is the tail of this chain:
            # each later one replaced it, and a new chain here resets it
            last_at_depth[depth].ifnot_child = node
        last_at_depth[depth] = node
        prev_depth = depth
    if root is None:
        raise TreeFormatError("empty tree text")
    return root
