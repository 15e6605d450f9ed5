"""Reading, writing and partitioning of word/tag corpora.

The on-disk format is one sentence per line, tokens separated by single
spaces, word and tag joined by a separator character (default ``/``).
Because words may themselves contain the separator (fractions, URLs),
tokens are split at the *rightmost* occurrence: ``1/2/CD`` parses as the
word ``1/2`` with tag ``CD``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

DEFAULT_SEPARATOR = "/"


class CorpusParseError(ValueError):
    """Malformed corpus text; the message names the offending line."""


class AlignmentError(ValueError):
    """Two corpora expected to be token-aligned are not."""


class Token(NamedTuple):
    word: str
    tag: str


Sentence = tuple[Token, ...]


@dataclass(frozen=True)
class TaggedCorpus:
    """An immutable sequence of tagged sentences.

    The tag inventory is derived from the tokens, so it can never drift
    out of sync with the sentence data.  ``sentences`` must hold tuples
    of ``Token``; build from plain (word, tag) pairs with ``from_pairs``.
    """

    sentences: tuple[Sentence, ...]

    def __post_init__(self) -> None:
        for s in self.sentences:
            if not s:
                raise ValueError("corpus contains an empty sentence")

    @classmethod
    def from_pairs(cls, sentences: Iterable[Iterable[tuple[str, str]]]) -> "TaggedCorpus":
        return cls(tuple(tuple(Token(w, t) for w, t in s) for s in sentences))

    def tokens(self) -> Iterator[Token]:
        for sentence in self.sentences:
            yield from sentence

    @cached_property
    def tagset(self) -> frozenset[str]:
        return frozenset(t.tag for t in self.tokens())

    def tags_in_order(self) -> tuple[str, ...]:
        """Distinct tags in order of first occurrence (deterministic)."""
        seen: dict[str, None] = {}
        for token in self.tokens():
            seen.setdefault(token.tag, None)
        return tuple(seen)

    @cached_property
    def token_count(self) -> int:
        return sum(len(s) for s in self.sentences)

    def vocabulary(self) -> set[str]:
        return {t.word for t in self.tokens()}

    def word_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for token in self.tokens():
            counts[token.word] = counts.get(token.word, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.sentences)


def read_tagged_corpus(text: str, separator: str = DEFAULT_SEPARATOR) -> TaggedCorpus:
    """Parse corpus text; empty lines are skipped, extra spaces collapsed.

    Only ``\n`` ends a line, so line numbers in errors count ``\n``
    and other Unicode line breaks inside a line act as spaces.

    Raises CorpusParseError when a token has no separator at all.
    """
    sentences: list[Sentence] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        parts = line.split()
        if not parts:
            continue
        tokens = []
        for part in parts:
            word, sep, tag = part.rpartition(separator)
            if not sep:
                raise CorpusParseError(
                    f"line {lineno}: token {part!r} has no {separator!r} separator"
                )
            if not word or not tag:
                raise CorpusParseError(
                    f"line {lineno}: token {part!r} has an empty word or tag"
                )
            tokens.append(Token(word, tag))
        sentences.append(tuple(tokens))
    return TaggedCorpus(tuple(sentences))


# Matches exactly the characters for which str.isspace() is true.
_WHITESPACE = re.compile(r"\s")


def write_tagged_corpus(
    corpus: TaggedCorpus | Iterable[Iterable[tuple[str, str]]],
    separator: str = DEFAULT_SEPARATOR,
) -> str:
    """Render sentences as text, one line each. Inverse of read_tagged_corpus.

    ``corpus`` is a TaggedCorpus or any iterable of sentences of
    (word, tag) pairs; a sentence with no pairs renders as an empty
    line.  Refuses tokens that could not round-trip (whitespace in a
    word or tag, separator inside a tag, empty strings), naming the
    first such token.
    """
    sentences = corpus.sentences if isinstance(corpus, TaggedCorpus) else corpus
    good_tags: set[str] = set()
    lines = []
    for sentence in sentences:
        columns = tuple(zip(*sentence))
        if not columns:
            lines.append("")
            continue
        words, tags = columns
        new_tags = set(tags).difference(good_tags)
        # Whole-sentence checks; the per-token loop runs only to name
        # the first bad token.
        if (
            "" in words
            or _WHITESPACE.search("".join(words))
            or any(
                not tag or _WHITESPACE.search(tag) or separator in tag
                for tag in new_tags
            )
        ):
            for word, tag in zip(words, tags):
                _check_token(word, tag, separator)
        good_tags.update(new_tags)
        lines.append(" ".join(map(separator.join, zip(words, tags))))
    return "".join(line + "\n" for line in lines)


def _check_token(word: str, tag: str, separator: str) -> None:
    if not word or not tag:
        raise ValueError(f"empty word or tag in token ({word!r}, {tag!r})")
    if any(c.isspace() for c in word) or any(c.isspace() for c in tag):
        raise ValueError(f"whitespace inside token ({word!r}, {tag!r})")
    if separator in tag:
        raise ValueError(f"separator {separator!r} inside tag {tag!r}")


def strip_tags(corpus: TaggedCorpus) -> str:
    """Raw text with the same sentence/token layout, tags removed."""
    return "".join(
        " ".join(t.word for t in sentence) + "\n" for sentence in corpus.sentences
    )


def read_lines(text: str) -> list[list[str]]:
    """Whitespace-tokenized lines, blank ones kept as empty lists.

    Only ``\n`` ends a line; a final ``\n`` ends the last line rather
    than starting an empty one.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line.split() for line in lines]


def read_raw(text: str) -> list[list[str]]:
    """Whitespace-tokenized sentences, one per ``\n``-ended line; empty lines skipped."""
    return [words for words in read_lines(text) if words]


def split_parts(corpus: TaggedCorpus, k: int) -> list[TaggedCorpus]:
    """Split into k contiguous, sentence-aligned parts.

    Part sizes differ by at most one sentence; the larger parts come
    first. Concatenating the parts in order reproduces the corpus.
    """
    n = len(corpus)
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    if k > n:
        raise ValueError(f"cannot split {n} sentences into {k} folds")
    base, extra = divmod(n, k)
    parts = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        parts.append(TaggedCorpus(corpus.sentences[start : start + size]))
        start += size
    return parts


def split_folds(
    corpus: TaggedCorpus, k: int
) -> list[tuple[TaggedCorpus, TaggedCorpus]]:
    """Contiguous k-fold splits: fold i tests on part i, trains on the rest.

    The training portion keeps the remaining parts in original order.
    """
    parts = split_parts(corpus, k)
    folds = []
    for i in range(k):
        train_sentences: list[Sentence] = []
        for j, part in enumerate(parts):
            if j != i:
                train_sentences.extend(part.sentences)
        folds.append((TaggedCorpus(tuple(train_sentences)), parts[i]))
    return folds


def check_aligned(a: TaggedCorpus, b: TaggedCorpus) -> None:
    """Verify both corpora have identical sentence/word layout."""
    if len(a) != len(b):
        raise AlignmentError(f"sentence counts differ: {len(a)} vs {len(b)}")
    for i, (sa, sb) in enumerate(zip(a.sentences, b.sentences), start=1):
        if len(sa) != len(sb):
            raise AlignmentError(
                f"sentence {i}: token counts differ ({len(sa)} vs {len(sb)})"
            )
        for j, (ta, tb) in enumerate(zip(sa, sb), start=1):
            if ta.word != tb.word:
                raise AlignmentError(
                    f"sentence {i}, token {j}: words differ ({ta.word!r} vs {tb.word!r})"
                )
