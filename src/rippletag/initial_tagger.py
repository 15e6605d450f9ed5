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
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import lru_cache

from .corpus import TaggedCorpus, Token
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


def compile_regex_rules(
    rules: tuple[tuple[str, str], ...]
) -> tuple[tuple[re.Pattern[str], str], ...]:
    return tuple((re.compile(pattern), tag) for pattern, tag in rules)


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
            re.compile(pattern)
        except re.error as exc:
            raise ValueError(f"line {lineno}: bad pattern {pattern!r}: {exc}") from exc
        rules.append((pattern, tag.strip()))
    return tuple(rules)


@dataclass(frozen=True)
class InitialTaggerOptions:
    mode: str = MODE_GENERIC
    regex_rules: tuple[tuple[str, str], ...] = DEFAULT_ENGLISH_RULES

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")


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
    try:
        parsed = parser.parse(pattern, flags)
    except re.error:
        return False
    multiline = parsed.state.flags & re.MULTILINE

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

    return starts_anchored(parsed) and not refers_back(parsed)


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
                (pattern, tag)
                for pattern, tag in compile_regex_rules(self.options.regex_rules)
                if tag in known_tags
            )
        # (test, tag) per rule, in order; a test returns a match or None
        self._regex_rules = tuple(
            (p.match if _match_is_exact(p.pattern, p.flags) else p.search, tag)
            for p, tag in rules
        )
        # ``.`` stops at a newline, so a word holding one runs them all by search
        self._newline_rules = tuple((p.search, tag) for p, tag in rules)
        self._suffix_tables = tuple(
            (n, lexicon.suffix_tags.get(n, {}))
            for n in sorted(SUFFIX_LENGTHS, reverse=True)
        )

    def tag_word(self, word: str) -> str:
        known = self.lexicon.most_frequent_tag(word)
        if known is not None:
            return known
        return self.guess_unknown(word)

    def guess_unknown(self, word: str) -> str:
        """First guess from the unknown-word chain, ignoring any lexicon entry."""
        for test, tag in self._newline_rules if "\n" in word else self._regex_rules:
            if test(word):
                return tag
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

    def tag_corpus_words(self, sentences: list[list[str]]) -> TaggedCorpus:
        return TaggedCorpus.from_pairs(
            [zip(words, self.tag_sentence(words)) for words in sentences]
        )


def initialize_corpus(gold: TaggedCorpus, tagger: InitialTagger) -> TaggedCorpus:
    """Re-tag the gold corpus with first guesses, keeping its layout.

    Words that occur once in gold get the unknown-word guess, as they
    would in unseen text, so the learner also sees unknown-word errors.
    """
    counts = gold.word_counts()
    sentences = []
    for sentence in gold.sentences:
        tokens = []
        for t in sentence:
            guess = tagger.guess_unknown if counts[t.word] == 1 else tagger.tag_word
            tokens.append(Token(t.word, guess(t.word)))
        sentences.append(tuple(tokens))
    return TaggedCorpus(tuple(sentences))
