"""Baseline tagger that assigns every token a first-guess tag.

Known words get their most frequent training tag.  Unknown words fall
through a chain of guesses: optional regex rules (English mode), a
digit check, suffix tables from longest to shortest, then a default
based on capitalization.  During training, words seen exactly once are
masked so the learner sees realistic unknown-word behaviour.

A regex rule fires when ``search`` finds it anywhere in the word, and
the first rule that fires gives the tag.  ``_classify`` parses each rule
once per process and gives its shape, which decides how the rule runs
on a word without a newline.  A word holding a newline runs every rule
with ``search``, in order.

An affix rule is answered without the regex engine.  It has the default
flags, and every top-level branch is either a suffix branch (an
optional ``.*`` or ``.*?``, a finite set of literal strings, then ``$``
or ``\\Z``) or a prefix branch (``^`` or ``\\A``, such a set, then an
optional ``.*`` or ``.*?``).  The set is built from literals, flag-free
groups, alternations and character classes of literals and ranges; a
rule's sets hold at most ``MAX_RULE_AFFIXES`` strings in all, none of
them empty.  On a word without a newline ``$`` and ``\\Z`` both match
only at its end and ``.`` matches every character, so ``search`` finds
a suffix branch exactly when the word ends with one of its strings, and
a prefix branch exactly when the word starts with one.  Two dicts map
every prefix and every suffix to the lowest rule that has it, and the
lowest rule hit is the first affix rule that fires.  Two edge tables
map a character to the lowest rule whose affix is that character alone
and to one slice per longer affix length with that character at the
edge: the last character for suffixes, the first for prefixes.  A word
looks up its last and its first character once each and is sliced only
at the lengths they select.  No hit is lost: a suffix the word ends with
ends with the word's last character, so its length is in that
character's entry, and likewise a prefix starts with the word's first
character.

Every other rule runs alone in the regex engine, in rule order, and only
when it comes before that hit; the first that fires is the lowest.
``search`` retries a failing pattern from every offset, which costs time
quadratic in the word's length, while ``match`` tries offset 0 only.
For a rule whose every top-level branch starts with ``^``/``\\A``
(without MULTILINE) or with an unbounded repeat of ``.`` such as ``.*``,
and which has no backreference, both give the same answer on a word
without a newline.  If ``search`` succeeds at offset i through an
anchored branch, i is 0.  If it succeeds through a branch whose repeat
of ``.`` spans word[i:j], the same repeat can span word[0:j] instead,
since ``.`` matches every character but a newline, and the rest of the
pattern then runs from j exactly as before: without a backreference
nothing after the repeat depends on where the match began.  Such rules
run with ``match``; the others with ``search``.  Without the regex
parser no rule has a shape, and every rule runs with ``search``.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple

from .corpus import TaggedCorpus
from .lexicon import SUFFIX_LENGTHS, Lexicon, contains_digit, is_capitalized

MODE_GENERIC = "generic"
MODE_ENGLISH = "english-regex"
MODES = (MODE_GENERIC, MODE_ENGLISH)

# Ordered unknown-word rules for English text: first match wins.  Only
# rules whose tag exists in the training lexicon are applied, so the
# output tagset never grows beyond what training saw.
DEFAULT_ENGLISH_RULES: tuple[tuple[str, str], ...] = (
    (r"(.*ness$)|(.*ment$)|(.*ship$)|(^[Ee]x-.*)|(^[Ss]elf-.*)", "NN"),
    (r".*(ion|ity|ism|ance|ence|hood)$", "NN"),
    (r".*(able|ible)$", "JJ"),
    (r".*(ous|ful|ish|less|ive|ic|al)$", "JJ"),
    (r".*ly$", "RB"),
    (r".*ing$", "VBG"),
    (r".*ed$", "VBN"),
    (r".*est$", "JJS"),
    (r".*(ize|ise)$", "VB"),
    (r".*s$", "NNS"),
    (r"^[A-Z].*", "NNP"),
)


# ``re`` parses and compiles nested groups by recursion, so a rule nested
# near the recursion limit compiles where it is checked and fails a few
# frames deeper, where ``InitialTagger`` compiles it again once ``re``'s
# cache has dropped it.  Every group opens with a "(", so capping them
# caps the nesting, far below the limit.
MAX_RULE_PARENS = 100


def check_regex_rule(pattern: str) -> None:
    """Raise ValueError unless ``pattern`` compiles, at any call depth."""
    try:
        if pattern.count("(") > MAX_RULE_PARENS:
            raise ValueError(f"more than {MAX_RULE_PARENS} '(' in one rule")
        re.compile(pattern)
    except (ValueError, re.error, OverflowError, RecursionError) as exc:
        raise ValueError(f"bad pattern {pattern!r}: {exc}") from exc


def parse_regex_rules(text: str) -> tuple[tuple[str, str], ...]:
    """One 'pattern<TAB>tag' per line; blank lines are skipped."""
    rules = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        pattern, sep, tag = line.partition("\t")
        if not sep or not pattern or not tag.strip():
            raise ValueError(f"line {lineno}: expected 'pattern<TAB>tag'")
        try:
            check_regex_rule(pattern)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        rules.append((pattern, tag.strip()))
    return tuple(rules)


@dataclass(frozen=True)
class InitialTaggerOptions:
    mode: str = MODE_GENERIC
    regex_rules: tuple[tuple[str, str], ...] = DEFAULT_ENGLISH_RULES

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"'mode' must be one of {MODES}, got {self.mode!r}")
        # in every mode, as a saved model keeps its rules and loading checks them
        for pattern, tag in self.regex_rules:
            if not isinstance(pattern, str) or not isinstance(tag, str):
                raise ValueError(
                    f"'regex_rules': bad rule {(pattern, tag)!r}: expected two strings"
                )
            try:
                check_regex_rule(pattern)
            except ValueError as exc:
                raise ValueError(f"'regex_rules': {exc}") from exc


# An affix rule expands to at most this many prefixes and suffixes in
# all; past it, the rule runs in the regex engine.
MAX_RULE_AFFIXES = 256

_DEFAULT_FLAGS = re.compile("").flags


class _Shape(NamedTuple):
    """How a rule runs on a word without a newline (see the module docstring)."""

    exact: bool  # ``match`` answers as ``search`` does
    # an affix rule's strings; both empty for every other rule
    prefixes: frozenset[str] = frozenset()
    suffixes: frozenset[str] = frozenset()


_UNKNOWN_SHAPE = _Shape(exact=False)


@lru_cache(maxsize=1024)
def _classify(pattern: str, flags: int) -> _Shape:
    """The shape of the rule ``pattern`` compiled with ``flags``.

    One parse and walk per rule and process: every ``Tagger`` built
    from a model classifies the same rules again.  Anything not
    recognised gets the shape that runs the rule with ``search``.
    """
    try:
        if sys.version_info >= (3, 11):
            import re._parser as parser
        else:
            import sre_parse as parser
    except ImportError:
        return _UNKNOWN_SHAPE
    starts = ((parser.AT, parser.AT_BEGINNING), (parser.AT, parser.AT_BEGINNING_STRING))
    ends = ((parser.AT, parser.AT_END), (parser.AT, parser.AT_END_STRING))

    def dot_repeat_min(item) -> int | None:
        """The least count of an unbounded repeat of ``.``, else None."""
        op, av = item
        if op == parser.MAX_REPEAT or op == parser.MIN_REPEAT:
            low, high, sub = av
            if high == parser.MAXREPEAT and list(sub) == [(parser.ANY, None)]:
                return low
        return None

    def flag_free_group(op, av) -> bool:
        return op == parser.SUBPATTERN and not av[1] and not av[2]

    def starts_anchored(items) -> bool:
        if not len(items):
            return False
        op, av = items[0]
        if op == parser.AT:
            return av == parser.AT_BEGINNING_STRING or (
                av == parser.AT_BEGINNING and not multiline
            )
        if op == parser.SUBPATTERN:
            return flag_free_group(op, av) and starts_anchored(av[3])
        if op == parser.BRANCH:
            return all(starts_anchored(branch) for branch in av[1])
        return dot_repeat_min(items[0]) is not None

    def refers_back(node) -> bool:
        if isinstance(node, parser.SubPattern):
            return any(
                op in (parser.GROUPREF, parser.GROUPREF_EXISTS) or refers_back(av)
                for op, av in node
            )
        if isinstance(node, (tuple, list)):
            return any(map(refers_back, node))
        return False

    def branches(items) -> list:
        """The top-level branches of ``items``, through flag-free groups."""
        if len(items) == 1:
            op, av = items[0]
            if op == parser.BRANCH:
                return [b for sub in av[1] for b in branches(sub)]
            if flag_free_group(op, av):
                return branches(av[3])
        return [items]

    def strings(items) -> set[str] | None:
        """The strings ``items`` matches, if a finite literal set within the cap."""
        found = {""}
        for op, av in items:
            if op == parser.LITERAL:
                item = {chr(av)}
            elif op == parser.IN:
                item = set()
                for kind, value in av:
                    if kind == parser.LITERAL:
                        item.add(chr(value))
                    elif kind == parser.RANGE and value[1] < value[0] + MAX_RULE_AFFIXES:
                        item.update(map(chr, range(value[0], value[1] + 1)))
                    else:
                        return None
            elif op == parser.BRANCH:
                item = set()
                for branch in av[1]:
                    sub = strings(branch)
                    if sub is None:
                        return None
                    item |= sub
            elif flag_free_group(op, av):
                item = strings(av[3])
                if item is None:
                    return None
            else:
                return None
            if len(found) * len(item) > MAX_RULE_AFFIXES:
                return None
            found = {head + tail for head in found for tail in item}
        return found

    def affixes(items) -> tuple[frozenset[str], ...]:
        """An affix rule's prefixes and suffixes; () for any other rule."""
        prefixes: set[str] = set()
        suffixes: set[str] = set()
        for branch in branches(items):
            body = list(branch)
            if body and body[0] in starts:
                found = prefixes
                del body[0]
                if body and dot_repeat_min(body[-1]) == 0:
                    del body[-1]
            elif body and body[-1] in ends:
                found = suffixes
                del body[-1]
                if body and dot_repeat_min(body[0]) == 0:
                    del body[0]
            else:
                return ()
            literals = strings(body)
            if literals is None or "" in literals:
                return ()
            found |= literals
        if len(prefixes) + len(suffixes) > MAX_RULE_AFFIXES:
            return ()
        return frozenset(prefixes), frozenset(suffixes)

    try:
        parsed = parser.parse(pattern, flags)
        state = parsed.state
        multiline = state.flags & re.MULTILINE
        exact = starts_anchored(parsed) and not refers_back(parsed)
        default = state.flags == _DEFAULT_FLAGS
        return _Shape(exact, *(affixes(parsed) if default else ()))
    except (re.error, RecursionError):
        # RecursionError: groups nested deeper than these walks reach,
        # which ``re.compile`` may still accept
        return _UNKNOWN_SHAPE


# A matcher is (index, test): ``index`` is its rule's, and ``test(word)``
# returns a match or None.
_Matcher = tuple[int, Callable[[str], "re.Match[str] | None"]]


def _lowest_rules(affixes_by_rule: Iterable[frozenset[str]]) -> dict[str, int]:
    """Each affix, mapped to the index of the first rule that has it."""
    lowest: dict[str, int] = {}
    for index, affixes in enumerate(affixes_by_rule):
        for affix in affixes:
            lowest.setdefault(affix, index)
    return lowest


def _edge_table(
    lowest: dict[str, int], edge: int, no_rule: int
) -> dict[str, tuple[int, tuple[slice, ...]]]:
    """Map each edge character ``affix[edge]`` of ``lowest``'s affixes to (rule, cuts).

    ``rule`` is the lowest rule whose affix is that character alone, else
    ``no_rule``; ``cuts`` holds one slice per longer affix length with
    that character at the edge, shortest first.
    """
    table = {char: (rule, ()) for char, rule in lowest.items() if len(char) == 1}
    lengths: dict[str, set[int]] = {}
    for affix in lowest:
        if len(affix) > 1:
            lengths.setdefault(affix[edge], set()).add(len(affix))
    cut = slice if edge == 0 else lambda n: slice(-n, None)
    for char, ns in lengths.items():
        table[char] = (lowest.get(char, no_rule), tuple(map(cut, sorted(ns))))
    return table


class InitialTagger:
    """Assigns first-guess tags from a lexicon; see module docstring."""

    def __init__(
        self, lexicon: Lexicon, options: InitialTaggerOptions | None = None
    ) -> None:
        self.lexicon = lexicon
        self.options = options or InitialTaggerOptions()
        rules: tuple[tuple[re.Pattern[str], str], ...] = ()
        if self.options.mode == MODE_ENGLISH:
            known_tags = lexicon.tagset
            rules = tuple(
                (re.compile(pattern), tag)
                for pattern, tag in self.options.regex_rules
                if tag in known_tags
            )
        shapes = [_classify(p.pattern, p.flags) for p, _ in rules]
        no_rule = len(rules)  # one past the last rule: the index of no rule
        self._prefixes = _lowest_rules(shape.prefixes for shape in shapes)
        self._suffixes = _lowest_rules(shape.suffixes for shape in shapes)
        self._prefix_edges = _edge_table(self._prefixes, 0, no_rule)
        self._suffix_edges = _edge_table(self._suffixes, -1, no_rule)
        # a matcher for each rule that is not an affix rule, in order
        self._regex_rules: tuple[_Matcher, ...] = tuple(
            (index, p.match if shape.exact else p.search)
            for index, ((p, _), shape) in enumerate(zip(rules, shapes))
            if not (shape.prefixes or shape.suffixes)
        )
        # ``.`` stops at a newline, so a word holding one runs them all by search
        self._newline_rules: tuple[_Matcher, ...] = tuple(
            (index, p.search) for index, (p, _) in enumerate(rules)
        )
        self._rule_tags = tuple(tag for _, tag in rules)
        self._no_rule = no_rule
        self._suffix_tables = tuple(
            (n, lexicon.suffix_tags.get(n, {}))
            for n in sorted(SUFFIX_LENGTHS, reverse=True)
        )

    def guess_unknown(self, word: str) -> str:
        """First guess from the unknown-word chain, ignoring any lexicon entry."""
        hit = no_rule = self._no_rule
        if hit:  # there are rules
            if "\n" in word:
                matchers = self._newline_rules
            else:
                matchers = self._regex_rules
                # each side written out: a loop over the two costs a third more
                edge = self._suffix_edges.get(word[-1:])
                if edge is not None:
                    hit, cuts = edge  # hit was no rule until here
                    lowest = self._suffixes
                    for cut in cuts:
                        index = lowest.get(word[cut], hit)
                        if index < hit:
                            hit = index
                edge = self._prefix_edges.get(word[:1])
                if edge is not None:
                    index, cuts = edge
                    if index < hit:
                        hit = index
                    lowest = self._prefixes
                    for cut in cuts:
                        index = lowest.get(word[cut], hit)
                        if index < hit:
                            hit = index
            for index, test in matchers:
                if index >= hit:
                    break
                if test(word):
                    hit = index
                    break
            if hit < no_rule:
                return self._rule_tags[hit]
        lexicon = self.lexicon
        if contains_digit(word):
            return lexicon.numeric_tag
        # longest first; a suffix is proper, never the whole word
        length = len(word)
        for n, table in self._suffix_tables:
            if length > n:
                tag = table.get(word[-n:])
                if tag is not None:
                    return tag
        # the word has no digit, so only its case picks the default
        if is_capitalized(word):
            return lexicon.capitalized_tag
        return lexicon.lowercase_tag

    def tag_sentence(self, words: list[str]) -> list[str]:
        get, guess = self.lexicon.word_tags.get, self.guess_unknown
        return [tag if (tag := get(w)) is not None else guess(w) for w in words]


def initialize_corpus(gold: TaggedCorpus, tagger: InitialTagger) -> list[str]:
    """First-guess tags for the gold corpus, one per token, in token order.

    One ``tagger.tag_sentence`` call guesses every distinct word of gold
    once, so training and tagging share one first-guess path.  Words
    that occur once in gold then get the unknown-word guess instead, as
    they would in unseen text, so the learner also sees unknown-word
    errors.  Each token's tag is then read from these per-word guesses;
    ``learn_tree`` takes the list as its current-tag column.
    """
    counts = Counter(map(itemgetter(0), gold.tokens()))
    distinct = list(counts)
    guesses = dict(zip(distinct, tagger.tag_sentence(distinct)))
    guess = tagger.guess_unknown
    for word, count in counts.items():
        if count == 1:
            guesses[word] = guess(word)
    return list(map(guesses.__getitem__, map(itemgetter(0), gold.tokens())))
