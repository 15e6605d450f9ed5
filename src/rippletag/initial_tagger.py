"""Baseline tagger that assigns every token a first-guess tag.

Known words get their most frequent training tag.  Unknown words fall
through a chain of guesses: optional regex rules (English mode), a
digit check, suffix tables from longest to shortest, then a default
based on capitalization.  During training, words seen exactly once are
masked so the learner sees realistic unknown-word behaviour.

A regex rule fires when ``search`` finds it anywhere in the word.
``search`` retries a failing pattern from every offset, which costs
time quadratic in the word's length, while ``match`` tries offset 0
only.  For a rule whose every top-level branch starts with ``^``/``\\A``
(without MULTILINE) or with an unbounded repeat of ``.`` such as
``.*``, and which has no backreference, both give the same answer on a
word without a newline.  If ``search`` succeeds at offset i through an
anchored branch, i is 0.  If it succeeds through a branch whose repeat
of ``.`` spans word[i:j], the same repeat can span word[0:j] instead,
since ``.`` matches every character but a newline, and the rest of the
pattern then runs from j exactly as before: without a backreference
nothing after the repeat depends on where the match began.  Such rules
run with ``match``; every other rule, and every rule on a word with a
newline, runs with ``search``.

Each maximal run of consecutive joinable rules is compiled into one
pattern ``(r0)|(r1)|...`` run with ``match``, so a word costs one call
into the regex engine per run, not one per rule.  At offset 0 an
alternation tries its branches in order and leaves a branch only when
it cannot match there at all, which is when that rule's own ``match``
returns None; so the first rule that matches still wins.  Its tag is
read from ``lastindex``, which is the rule's wrapper group: that group
closes after every group inside it.
A rule is joinable when ``match`` is exact for it, it compiles with
the default flags, it has no named group (two rules could name the
same one) and its text holds no inline global-flag group such as
``(?u)`` (Python 3.11 rejects one inside a pattern, and 3.10 applies
it to the whole pattern).  Every other rule is a matcher of its own,
in its place in the order.  ``InitialTaggerOptions`` caps how deep a
rule nests, so a joined pattern, one group deeper, always compiles.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, groupby
from typing import Callable

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


@lru_cache(maxsize=1024)
def _match_is_exact(pattern: str, flags: int) -> bool:
    """Whether ``match`` answers as ``search`` does on newline-free words.

    True when every top-level branch starts with an anchor or an
    unbounded repeat of ``.`` and nothing refers back to a group (see
    the module docstring).  Anything not recognised is False, so the
    rule keeps ``search``.  Cached, as every ``Tagger`` built from a
    model classifies the same rules again.
    """
    try:
        if sys.version_info >= (3, 11):
            import re._parser as parser
        else:
            import sre_parse as parser
    except ImportError:
        return False

    def starts_anchored(items) -> bool:
        if not len(items):
            return False
        op, av = items[0]
        if op == parser.AT:
            return av == parser.AT_BEGINNING_STRING or (
                av == parser.AT_BEGINNING and not multiline
            )
        if op == parser.MAX_REPEAT or op == parser.MIN_REPEAT:
            _, high, item = av
            return high == parser.MAXREPEAT and list(item) == [(parser.ANY, None)]
        if op == parser.SUBPATTERN:
            _, add_flags, del_flags, sub = av
            return not add_flags and not del_flags and starts_anchored(sub)
        if op == parser.BRANCH:
            return all(starts_anchored(branch) for branch in av[1])
        return False

    def refers_back(node) -> bool:
        if isinstance(node, parser.SubPattern):
            return any(
                op in (parser.GROUPREF, parser.GROUPREF_EXISTS) or refers_back(av)
                for op, av in node
            )
        if isinstance(node, (tuple, list)):
            return any(map(refers_back, node))
        return False

    try:
        parsed = parser.parse(pattern, flags)
        multiline = parsed.state.flags & re.MULTILINE
        return starts_anchored(parsed) and not refers_back(parsed)
    except (re.error, RecursionError):
        # RecursionError: groups nested deeper than these walks reach,
        # which ``re.compile`` may still accept
        return False


_DEFAULT_FLAGS = re.compile("").flags
# an inline global-flag group, as opposed to a scoped ``(?i:...)``
_GLOBAL_FLAG_GROUP = re.compile(r"\(\?[aiLmstux]+\)")


def _joinable(p: re.Pattern[str]) -> bool:
    """Whether ``p`` can be one branch of a joined alternation."""
    return (
        p.flags == _DEFAULT_FLAGS
        and not p.groupindex
        and not _GLOBAL_FLAG_GROUP.search(p.pattern)
        and _match_is_exact(p.pattern, p.flags)
    )


# A matcher is (test, tags): ``test(word)`` returns a match or None,
# and ``tags[match.lastindex]`` is the tag of the rule that matched.
_Matcher = tuple[Callable[[str], "re.Match[str] | None"], dict]


def _alone(test, p: re.Pattern[str], tag: str) -> _Matcher:
    """A matcher for one rule: its tag, whichever group closed last."""
    return test, dict.fromkeys([None, *range(1, p.groups + 1)], tag)


def _joined(rules: list[tuple[re.Pattern[str], str]]) -> _Matcher:
    """One matcher for consecutive joinable rules: ``(r0)|(r1)|...``."""
    tags = {}
    group = 1
    for p, tag in rules:
        tags[group] = tag
        group += 1 + p.groups
    joined = re.compile("|".join(f"({p.pattern})" for p, _ in rules))
    return joined.match, tags


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
        # matchers in rule order: one per run of joinable rules, one per other rule
        matchers: list[_Matcher] = []
        for joinable, group in groupby(rules, key=lambda rule: _joinable(rule[0])):
            if joinable:
                matchers.append(_joined(list(group)))
                continue
            for p, tag in group:
                exact = _match_is_exact(p.pattern, p.flags)
                matchers.append(_alone(p.match if exact else p.search, p, tag))
        self._regex_rules = tuple(matchers)
        # ``.`` stops at a newline, so a word holding one runs them all by search
        self._newline_rules = tuple(_alone(p.search, p, tag) for p, tag in rules)
        self._suffix_tables = tuple(
            (n, lexicon.suffix_tags.get(n, {}))
            for n in sorted(SUFFIX_LENGTHS, reverse=True)
        )

    def guess_unknown(self, word: str) -> str:
        """First guess from the unknown-word chain, ignoring any lexicon entry."""
        for test, tags in self._newline_rules if "\n" in word else self._regex_rules:
            m = test(word)
            if m:
                return tags[m.lastindex]
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


def initialize_corpus(gold: TaggedCorpus, tagger: InitialTagger) -> list[list[str]]:
    """First-guess tags for the gold corpus, one list per sentence.

    The guesses are those of ``tagger.tag_sentence``, except that words
    which occur once in gold get the unknown-word guess, as they would
    in unseen text, so the learner also sees unknown-word errors.
    """
    sentences = [[t.word for t in sentence] for sentence in gold.sentences]
    counts = Counter(chain.from_iterable(sentences))
    guess = tagger.guess_unknown
    return [
        [guess(w) if counts[w] == 1 else t for w, t in zip(s, tagger.tag_sentence(s))]
        for s in sentences
    ]
