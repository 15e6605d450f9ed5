"""Reading, writing and partitioning of word/tag corpora.

The on-disk format is one sentence per line, tokens separated by single
spaces, word and tag joined by a separator character (default ``/``).
Because words may themselves contain the separator (fractions, URLs),
tokens are split at the *rightmost* occurrence: ``1/2/CD`` parses as the
word ``1/2`` with tag ``CD``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

DEFAULT_SEPARATOR = "/"


class CorpusParseError(ValueError):
    """Malformed corpus text; the message names the offending line."""


class AlignmentError(ValueError):
    """Two corpora expected to be token-aligned are not."""


def is_plain(text: str) -> bool:
    """Whether ``text`` is non-empty and holds no whitespace.

    The rule for every word, tag and separator in a corpus or model
    file, since whitespace delimits them there.
    """
    # ``split`` drops what ``str.isspace`` accepts, and gives [] for ""
    return text.split() == [text]


def check_separator(separator: object) -> None:
    """Raise ValueError unless ``separator`` is a string that ``is_plain``.

    Tokens are split at whitespace first, so a separator holding
    whitespace could never join a word and a tag inside one.
    """
    if not isinstance(separator, str) or not is_plain(separator):
        raise ValueError(
            "'separator' must be a non-empty string without whitespace, "
            f"got {separator!r}"
        )


def check_tag(tag: str, separator: str) -> None:
    """Raise ValueError unless a token written as word, ``separator``,
    ``tag`` reads back with ``tag``.

    The reader splits at the rightmost separator, so ``tag`` must be
    plain and no separator may start after the written one: with
    ``::``, the tag ``:x`` would read back as ``x``.
    """
    if not is_plain(tag) or separator in (separator + tag)[1:]:
        raise ValueError(f"tag {tag!r} does not read back after separator {separator!r}")


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
        """Every token, sentence after sentence, as one C-level iterator."""
        return chain.from_iterable(self.sentences)

    @cached_property
    def tagset(self) -> frozenset[str]:
        return frozenset(map(itemgetter(1), self.tokens()))

    @cached_property
    def token_count(self) -> int:
        return sum(len(s) for s in self.sentences)

    def vocabulary(self) -> set[str]:
        return {t.word for t in self.tokens()}

    def __len__(self) -> int:
        return len(self.sentences)


def read_tagged_corpus(text: str, separator: str = DEFAULT_SEPARATOR) -> TaggedCorpus:
    """Parse corpus text; empty lines are skipped, extra spaces collapsed.

    Only ``\n`` ends a line, so line numbers in errors count ``\n``
    and other Unicode line breaks inside a line act as spaces.

    Strings are interned per call, through dicts local to it: within
    one result, equal words are one object, equal tags are one object
    and equal tokens are one ``Token``.  Two calls share nothing.

    Raises CorpusParseError when a token has no separator at all, and
    ValueError for a separator that ``check_separator`` refuses.
    """
    check_separator(separator)
    strings: dict[str, str] = {}
    known: dict[str, Token] = {}
    sentences: list[Sentence] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        parts = line.split()
        if not parts:
            continue
        tokens = []
        for part in parts:
            token = known.get(part)
            if token is None:
                word, sep, tag = part.rpartition(separator)
                if not sep:
                    raise CorpusParseError(
                        f"line {lineno}: token {part!r} has no {separator!r} separator"
                    )
                if not word or not tag:
                    raise CorpusParseError(
                        f"line {lineno}: token {part!r} has an empty word or tag"
                    )
                token = known[part] = Token(
                    strings.setdefault(word, word), strings.setdefault(tag, tag)
                )
            tokens.append(token)
        sentences.append(tuple(tokens))
    return TaggedCorpus(tuple(sentences))


def write_tagged_corpus(corpus: TaggedCorpus, separator: str = DEFAULT_SEPARATOR) -> str:
    """Render a corpus as text, one line per sentence. Inverse of read_tagged_corpus.

    Refuses a separator that ``check_separator`` refuses, and a token
    that could not round-trip: a word that is not ``is_plain``, or a tag
    that ``check_tag`` refuses.  Like the reader, it checks each
    distinct token once, in the order the token first occurs, so the
    error names the corpus's first bad token.
    """
    check_separator(separator)
    for word, tag in dict.fromkeys(corpus.tokens()):
        _check_token(word, tag, separator)
    return render_tagged(
        list(map(itemgetter(0), corpus.tokens())),
        list(map(itemgetter(1), corpus.tokens())),
        list(map(len, corpus.sentences)),
        separator,
    )


def render_tagged(
    words: Sequence[str], tags: Sequence[str], lengths: Sequence[int], separator: str
) -> str:
    """The lines of a block of sentences, unchecked: the corpus line format.

    ``words`` and ``tags`` hold one word and one tag per token of the
    block, in sentence order, and ``lengths`` the length of each
    sentence, as ``Tagger.tag_block`` takes and returns them.  Each
    word is joined to its tag by ``separator``, tokens by single spaces,
    and each sentence ends with a newline, so an empty sentence is a
    blank line.  Only callers whose words and tags are known to read
    back may skip ``write_tagged_corpus``.  Raises ValueError when the
    lengths do not add up to the number of words, or there are not as
    many tags as words.

    The text is one join of one list, which holds word, separator, tag
    and then a space, or a line end after a sentence's last token, for
    each token: a blank line after a token adds one more line end to
    it, and blank lines before the first token are a prefix.
    """
    n = len(words)
    if sum(lengths) != n:
        raise ValueError(f"sentences of {sum(lengths)} words in a block of {n}")
    parts = [None, separator, None, " "] * n
    parts[::4] = words
    parts[2::4] = tags
    blank_head = last = 0
    for end in accumulate(lengths):
        if end != last:
            parts[4 * end - 1] = "\n"
            last = end
        elif end:
            parts[4 * end - 1] += "\n"
        else:
            blank_head += 1
    return "\n" * blank_head + "".join(parts)


def _check_token(word: str, tag: str, separator: str) -> None:
    if not (is_plain(word) and is_plain(tag)):
        raise ValueError(f"token {(word, tag)!r}: empty or with whitespace")
    check_tag(tag, separator)


def read_raw(text: str) -> list[list[str]]:
    """Whitespace-tokenized sentences, one per ``\n``-ended line; empty lines skipped.

    Only ``\n`` ends a line: a ``\r`` is whitespace within one.
    """
    return [words for line in text.split("\n") if (words := line.split())]


def split_folds(
    corpus: TaggedCorpus, k: int
) -> list[tuple[TaggedCorpus, TaggedCorpus]]:
    """Contiguous k-fold splits: fold i tests on part i, trains on the rest.

    The k parts are contiguous and sentence-aligned, their sizes differ
    by at most one sentence, and the larger parts come first, so the
    test parts in fold order reproduce the corpus.  The training portion
    keeps the remaining parts in original order.
    """
    n = len(corpus)
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    if k > n:
        raise ValueError(f"cannot split {n} sentences into {k} folds")
    base, extra = divmod(n, k)
    cuts = list(accumulate((base + (i < extra) for i in range(k)), initial=0))
    sentences = corpus.sentences
    return [
        (
            TaggedCorpus(sentences[:start] + sentences[end:]),
            TaggedCorpus(sentences[start:end]),
        )
        for start, end in zip(cuts, cuts[1:])
    ]


def check_aligned(a: TaggedCorpus, b: TaggedCorpus) -> None:
    """Verify both corpora have the same sentence lengths, then the same words."""
    if len(a) != len(b):
        raise AlignmentError(f"sentence counts differ: {len(a)} vs {len(b)}")
    for i, (sa, sb) in enumerate(zip(a.sentences, b.sentences), start=1):
        if len(sa) != len(sb):
            raise AlignmentError(
                f"sentence {i}: token counts differ ({len(sa)} vs {len(sb)})"
            )
    for i, (sa, sb) in enumerate(zip(a.sentences, b.sentences), start=1):
        for j, (ta, tb) in enumerate(zip(sa, sb), start=1):
            if ta.word != tb.word:
                raise AlignmentError(
                    f"sentence {i}, token {j}: words differ ({ta.word!r} vs {tb.word!r})"
                )
