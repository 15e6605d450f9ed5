"""Frequency lexicon: word and suffix statistics from a training corpus.

The lexicon stores, for every training word, its most frequent tag.  It
also keeps majority tags for word-final character n-grams (lengths 2..5)
when the winning count clears a per-length threshold, plus three default
tags used when nothing else matches: one for tokens containing a digit,
one for capitalized tokens and one for everything else.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import repeat

from .corpus import TaggedCorpus, is_plain

SUFFIX_LENGTHS = (2, 3, 4, 5)

# Minimum winning count for a suffix entry, per suffix length.  Longer
# suffixes are more specific, so they are admitted on less evidence.
SUFFIX_MIN_COUNT = {5: 2, 4: 3, 3: 4, 2: 5}

# Reserved keys in the serialized form.
_NUM_KEY = "%%NUM%%"
_CAP_KEY = "%%CAP%%"
_LOW_KEY = "%%LOW%%"
_SUFFIX_KEY = {n: f"%%S{n}%%" for n in SUFFIX_LENGTHS}
_KEY_SUFFIX = {v: k for k, v in _SUFFIX_KEY.items()}


class LexiconFormatError(ValueError):
    """Malformed serialized lexicon."""


# Whether a word holds a decimal digit, as one C call: for str patterns
# ``\d`` matches exactly the characters ``str.isdecimal`` accepts.
contains_digit = re.compile(r"\d").search


def is_capitalized(word: str) -> bool:
    return bool(word) and word[0].isupper()


@dataclass(frozen=True)
class Lexicon:
    word_tags: dict[str, str]
    suffix_tags: dict[int, dict[str, str]]
    numeric_tag: str
    capitalized_tag: str
    lowercase_tag: str

    @property
    def tagset(self) -> frozenset[str]:
        tags = set(self.word_tags.values())
        for table in self.suffix_tags.values():
            tags.update(table.values())
        tags.update((self.numeric_tag, self.capitalized_tag, self.lowercase_tag))
        return frozenset(tags)


def _reserved_word_error(word: str) -> ValueError:
    return ValueError(f"word {word!r} collides with reserved %% keys")


def _fold(
    counts: dict[tuple[str, str], int], rank: dict[str, int]
) -> dict[str, tuple[int, int, str]]:
    """Per key of the ``(key, tag)`` counts, the ``(count, -rank, tag)`` of
    its winning tag: the highest count, and on a tie the lowest rank."""
    best: dict[str, tuple[int, int, str]] = {}
    get = best.get
    for (key, tag), count in counts.items():
        entry = (count, -rank[tag], tag)
        old = get(key)
        if old is None or entry > old:
            best[key] = entry
    return best


def build_lexicon(corpus: TaggedCorpus) -> Lexicon:
    """Count each distinct (word, tag) pair once, then fold the counts.

    One pass over the distinct pairs adds their counts into plain dicts:
    per suffix length a count per ``(suffix, tag)``, and per word class
    and overall a count per tag.  Every winner, a word's tag, a suffix's
    tag or a default, is then the tag with the highest ``(count, -rank)``,
    where a tag's rank orders the tags as their first tokens do, so ties
    go to the tag seen first in the corpus.

    Tokens that ``serialize_lexicon`` could not write, or that would not
    read back, are rejected here, before any training work: words
    starting with ``%%``, and empty words or tags or ones with whitespace.
    The first such token in corpus order is the one named.
    """
    pair_counts = Counter(corpus.tokens())
    if not pair_counts:
        raise ValueError("cannot build a lexicon from an empty corpus")

    # A Counter keeps first-insertion order, so the first pair carrying a
    # tag sits at that tag's first token: ranking tags by their first pair
    # orders them as their first tokens do.
    rank: dict[str, int] = {}
    # (n, {(suffix, tag): count}) per suffix length, shortest first, so a
    # word too short for one length is too short for the rest
    suffix_counts: list[tuple[int, dict[tuple[str, str], int]]] = [
        (n, {}) for n in SUFFIX_LENGTHS
    ]
    class_counts: dict[str, dict[str, int]] = {"num": {}, "cap": {}, "low": {}}
    tag_counts: dict[str, int] = {}

    for (word, tag), count in pair_counts.items():
        if word.startswith("%%"):
            raise _reserved_word_error(word)
        if not (is_plain(word) and is_plain(tag)):
            raise ValueError(f"token {(word, tag)!r}: empty or with whitespace")
        if tag not in rank:
            rank[tag] = len(rank)
        length = len(word)
        for n, counts in suffix_counts:
            if length <= n:
                break
            key = (word[-n:], tag)
            counts[key] = counts.get(key, 0) + count
        if contains_digit(word):
            in_class = class_counts["num"]
        elif is_capitalized(word):
            in_class = class_counts["cap"]
        else:
            in_class = class_counts["low"]
        in_class[tag] = in_class.get(tag, 0) + count
        tag_counts[tag] = tag_counts.get(tag, 0) + count

    word_tags = {word: tag for word, (_, _, tag) in _fold(pair_counts, rank).items()}

    suffix_tags: dict[int, dict[str, str]] = {}
    for n, counts in suffix_counts:
        floor = SUFFIX_MIN_COUNT[n]
        suffix_tags[n] = {
            suffix: tag
            for suffix, (count, _, tag) in _fold(counts, rank).items()
            if count >= floor
        }

    def majority(counts: dict[str, int]) -> str:
        return max(counts, key=lambda tag: (counts[tag], -rank[tag]))

    fallback = majority(tag_counts)

    def class_default(key: str) -> str:
        counts = class_counts[key]
        return majority(counts) if counts else fallback

    return Lexicon(
        word_tags=word_tags,
        suffix_tags=suffix_tags,
        numeric_tag=class_default("num"),
        capitalized_tag=class_default("cap"),
        lowercase_tag=class_default("low"),
    )


# Whitespace besides tab and newline: the 27 other characters for which
# ``str.isspace`` holds.  They are written out, as finding them among all
# code points takes about 0.1 s; a test checks them against ``str.isspace``.
_STRAY_WHITESPACE = (
    "\v\f\r\x1c\x1d\x1e\x1f \x85\xa0"
    "\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
    "\u2028\u2029\u202f\u205f\u3000"
)


def _has_stray_whitespace(text: str) -> bool:
    """Whether text holds whitespace besides tab and newline.

    One substring test per stray character: each is a C search, which
    returns at once for a character wider than any in the text, so it
    beats a regex scan whatever the text's widest character.
    """
    return any(c in text for c in _STRAY_WHITESPACE)


def serialize_lexicon(lexicon: Lexicon) -> str:
    """Stable text form: defaults, then suffix tables, then words.

    Word entries starting with ``%%`` would collide with the reserved
    keys, so they are rejected, as are keys and tags that are empty or
    hold whitespace.  The first such entry in that order is named.
    """
    entries = [
        (_NUM_KEY, lexicon.numeric_tag),
        (_CAP_KEY, lexicon.capitalized_tag),
        (_LOW_KEY, lexicon.lowercase_tag),
    ]
    for n in SUFFIX_LENGTHS:
        table = lexicon.suffix_tags.get(n, {})
        key = _SUFFIX_KEY[n]
        entries += [(key + suffix, table[suffix]) for suffix in sorted(table)]
    reserved = len(entries)
    words = sorted(lexicon.word_tags)
    entries += zip(words, map(lexicon.word_tags.__getitem__, words))
    text = "".join([f"{key}\t{tag}\n" for key, tag in entries])
    # One test of the sorted words and one scan of the text, so that
    # entries are tested one by one only on a hit: the words starting
    # with "%%" sort together, from the first word at or after it, and as
    # each entry adds one tab and one newline, any other whitespace, any
    # further tab or newline, or a line (never the first, a default's)
    # starting or ending at its tab means an empty key or tag or one
    # holding whitespace.
    first = bisect_left(words, "%%")
    if (
        (first < len(words) and words[first].startswith("%%"))
        or _has_stray_whitespace(text)
        or text.count("\t") != len(entries)
        or text.count("\n") != len(entries)
        or "\n\t" in text
        or "\t\n" in text
    ):
        for i, (key, tag) in enumerate(entries):
            if i >= reserved and key.startswith("%%"):
                raise _reserved_word_error(key)
            if not (is_plain(key) and is_plain(tag)):
                raise ValueError(
                    f"lexicon entry {(key, tag)!r}: empty or with whitespace"
                )
    return text


# The three defaults as serialize_lexicon writes them, then, per suffix
# length, one of its suffix entries and a run of them.
_DEFAULT_LINES = re.compile(
    f"{_NUM_KEY}\t([^\t\n]+)\n{_CAP_KEY}\t([^\t\n]+)\n{_LOW_KEY}\t([^\t\n]+)\n"
)
_SUFFIX_LINE = {
    n: re.compile(f"{key}([^\t\n]{{{n}}})\t([^\t\n]+)\n")
    for n, key in _SUFFIX_KEY.items()
}
_SUFFIX_RUN = {
    n: re.compile(f"(?:{key}[^\t\n]{{{n}}}\t[^\t\n]+\n)*")
    for n, key in _SUFFIX_KEY.items()
}


def _parse_saved(text: str) -> Lexicon | None:
    """The lexicon of text in ``serialize_lexicon``'s layout, else None.

    The layout is the three defaults, then each suffix length's entries,
    then the words, one ``key<TAB>tag`` line each, ending in a newline,
    with no whitespace but those tabs and newlines.  It is read by a few
    calls over the whole text: the defaults and each suffix length's
    run by a regex, and the words by one ``dict`` of their split lines.
    A duplicate shows as a table shorter than its lines, a line without
    exactly one tab as a ``ValueError``.  Text in any other layout (a
    blank line, a reserved key among the words, a carriage return)
    gives None, so the line-by-line reader names its first fault or
    reads it.
    """
    defaults = _DEFAULT_LINES.match(text)
    if defaults is None or _has_stray_whitespace(text) or text[-1] != "\n":
        return None
    pos = defaults.end()
    suffix_tags: dict[int, dict[str, str]] = {}
    for n in SUFFIX_LENGTHS:
        end = _SUFFIX_RUN[n].match(text, pos).end()
        table = dict(_SUFFIX_LINE[n].findall(text, pos, end))
        if len(table) != text.count("\n", pos, end):
            return None
        suffix_tags[n] = table
        pos = end
    # pos - 1 is a newline, so these find a word line that starts with
    # "%%" or a tab, or ends in a tab
    if (
        text.find("\n%%", pos - 1) >= 0
        or text.find("\n\t", pos - 1) >= 0
        or text.find("\t\n", pos) >= 0
    ):
        return None
    lines = text[pos:].splitlines()
    try:
        word_tags = dict(map(str.split, lines, repeat("\t")))
    except ValueError:
        return None
    if len(word_tags) != len(lines):
        return None
    return Lexicon(word_tags, suffix_tags, *defaults.groups())


def parse_lexicon(text: str) -> Lexicon:
    """Inverse of ``serialize_lexicon``; refuses what it could not write.

    Text in the layout ``serialize_lexicon`` writes is read by whole-text
    calls (``_parse_saved``); any other text line by line, which reads
    hand-edited text to the same lexicon and names the first bad line.
    """
    saved = _parse_saved(text)
    if saved is not None:
        return saved
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
        if key in (_NUM_KEY, _CAP_KEY, _LOW_KEY):
            if key in defaults:
                raise LexiconFormatError(f"line {lineno}: duplicate {key}")
            defaults[key] = tag
        elif key.startswith("%%S") and len(key) >= 6 and key[:6] in _KEY_SUFFIX:
            n = _KEY_SUFFIX[key[:6]]
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

    missing = [k for k in (_NUM_KEY, _CAP_KEY, _LOW_KEY) if k not in defaults]
    if missing:
        raise LexiconFormatError(f"missing default entries: {', '.join(missing)}")

    return Lexicon(
        word_tags=word_tags,
        suffix_tags=suffix_tags,
        numeric_tag=defaults[_NUM_KEY],
        capitalized_tag=defaults[_CAP_KEY],
        lowercase_tag=defaults[_LOW_KEY],
    )
