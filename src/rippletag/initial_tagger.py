"""Baseline tagger that assigns every token a first-guess tag.

Known words get their most frequent training tag.  Unknown words fall
through a chain of guesses: optional regex rules (English mode), a
digit check, suffix tables from longest to shortest, then a default
based on capitalization.  During training, words seen exactly once are
masked so the learner sees realistic unknown-word behaviour.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .corpus import TaggedCorpus, Token
from .lexicon import SUFFIX_LENGTHS, Lexicon, contains_digit

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


class InitialTagger:
    """Assigns first-guess tags from a lexicon; see module docstring."""

    def __init__(
        self, lexicon: Lexicon, options: InitialTaggerOptions | None = None
    ) -> None:
        self.lexicon = lexicon
        self.options = options or InitialTaggerOptions()
        if self.options.mode == MODE_ENGLISH:
            known_tags = lexicon.tagset
            self._regex_rules = tuple(
                (pattern, tag)
                for pattern, tag in compile_regex_rules(self.options.regex_rules)
                if tag in known_tags
            )
        else:
            self._regex_rules = ()

    def tag_word(self, word: str) -> str:
        known = self.lexicon.most_frequent_tag(word)
        if known is not None:
            return known
        return self.guess_unknown(word)

    def guess_unknown(self, word: str) -> str:
        """First guess from the unknown-word chain, ignoring any lexicon entry."""
        lexicon = self.lexicon
        for pattern, tag in self._regex_rules:
            if pattern.search(word):
                return tag
        if contains_digit(word):
            return lexicon.numeric_tag
        for n in sorted(SUFFIX_LENGTHS, reverse=True):
            tag = lexicon.suffix_tag(word, n)
            if tag is not None:
                return tag
        return lexicon.default_tag(word)

    def tag_sentence(self, words: list[str]) -> list[str]:
        return [self.tag_word(w) for w in words]

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
