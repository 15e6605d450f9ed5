"""Frequency lexicon: word and suffix statistics from a training corpus.

The lexicon stores, for every training word, its most frequent tag.  It
also keeps majority tags for word-final character n-grams (lengths 2..5)
when the winning count clears a per-length threshold, plus three default
tags used when nothing else matches: one for tokens containing a digit,
one for capitalized tokens and one for everything else.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass

from .corpus import TaggedCorpus

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

    def most_frequent_tag(self, word: str) -> str | None:
        return self.word_tags.get(word)

    @property
    def tagset(self) -> frozenset[str]:
        tags = set(self.word_tags.values())
        for table in self.suffix_tags.values():
            tags.update(table.values())
        tags.update((self.numeric_tag, self.capitalized_tag, self.lowercase_tag))
        return frozenset(tags)


def _majority(counter: Counter[str], first_seen: dict[str, int]) -> str:
    """Highest count; ties go to the tag seen earliest in the corpus."""
    return min(counter, key=lambda t: (-counter[t], first_seen[t]))


def _reserved_word_error(word: str) -> ValueError:
    return ValueError(f"word {word!r} collides with reserved %% keys")


def build_lexicon(corpus: TaggedCorpus) -> Lexicon:
    """Count each distinct (word, tag) pair once, then fold the counts.

    Words starting with ``%%`` are rejected here, before any training
    work, because ``serialize_lexicon`` could not write them.
    """
    pair_counts = Counter(corpus.tokens())
    if not pair_counts:
        raise ValueError("cannot build a lexicon from an empty corpus")

    word_tag_counts: defaultdict[str, Counter[str]] = defaultdict(Counter)
    suffix_tag_counts = {n: defaultdict(Counter) for n in SUFFIX_LENGTHS}
    class_counts = {"num": Counter(), "cap": Counter(), "low": Counter()}
    all_tag_counts: Counter[str] = Counter()
    # A Counter keeps first-insertion order, so the first pair carrying a
    # tag sits at that tag's first token: ranking tags by their first pair
    # orders them as their first tokens do.
    first_seen: dict[str, int] = {}

    for (word, tag), count in pair_counts.items():
        if word.startswith("%%"):
            raise _reserved_word_error(word)
        first_seen.setdefault(tag, len(first_seen))
        word_tag_counts[word][tag] += count
        all_tag_counts[tag] += count
        for n in SUFFIX_LENGTHS:
            if len(word) > n:
                suffix_tag_counts[n][word[-n:]][tag] += count
        if contains_digit(word):
            class_counts["num"][tag] += count
        elif is_capitalized(word):
            class_counts["cap"][tag] += count
        else:
            class_counts["low"][tag] += count

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


def serialize_lexicon(lexicon: Lexicon) -> str:
    """Stable text form: defaults, then suffix tables, then words.

    Word entries starting with ``%%`` would collide with the reserved
    keys, so they are rejected.
    """
    def entry(key: str, tag: str) -> str:
        for part in (key, tag):
            if any(c.isspace() for c in part):
                raise ValueError(f"whitespace in lexicon entry ({key!r}, {tag!r})")
        return f"{key}\t{tag}"

    lines = [
        entry(_NUM_KEY, lexicon.numeric_tag),
        entry(_CAP_KEY, lexicon.capitalized_tag),
        entry(_LOW_KEY, lexicon.lowercase_tag),
    ]
    for n in SUFFIX_LENGTHS:
        table = lexicon.suffix_tags.get(n, {})
        for suffix in sorted(table):
            lines.append(entry(f"{_SUFFIX_KEY[n]}{suffix}", table[suffix]))
    for word in sorted(lexicon.word_tags):
        if word.startswith("%%"):
            raise _reserved_word_error(word)
        lines.append(entry(word, lexicon.word_tags[word]))
    return "".join(line + "\n" for line in lines)


def parse_lexicon(text: str) -> Lexicon:
    word_tags: dict[str, str] = {}
    suffix_tags: dict[int, dict[str, str]] = {n: {} for n in SUFFIX_LENGTHS}
    defaults: dict[str, str] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        key, sep, tag = line.partition("\t")
        if not sep or not key or not tag:
            raise LexiconFormatError(f"line {lineno}: expected 'key<TAB>tag'")
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
