#!/usr/bin/env python3
"""Deterministic synthetic tagged corpora for the benchmark.

The language is fixed: 18 tags, a hand-written tag-transition table,
3000 open-class stems with one to three tags each, closed-class word
lists and numbers.  Its stems, their tags and their Pareto(1.1) choice
weights come from a constant seed, so every benchmark seed samples
text from the same language and runs stay comparable.  The seed given
to ``sample`` only drives which sentences are drawn.

Surface forms follow the tag: NNS and VBZ add ``s``, VBD and VBN add
``ed``, VBG adds ``ing``, NNP capitalizes.  A stem with NN and VB, or
with VBD and VBN, therefore yields one ambiguous word, which is what
the learner's context rules resolve.

The ``oov`` pool swaps every open-class word for one from a disjoint
pool of 60,000 stems chosen uniformly, so most tokens are unknown to a
model trained on the base pool and most word types are rare.

Run ``python3 benchmarks/synth.py --seed 1 --tokens 40000`` to print a
corpus in ``word/tag`` form.
"""

from __future__ import annotations

import argparse
import random
import sys
from functools import lru_cache

GRAMMAR_SEED = 1412_4021
STEM_COUNT = 3000
OOV_STEM_COUNT = 60_000
PARETO_ALPHA = 1.1
MAX_SENTENCE = 60

TAGS = (
    "DT", "NN", "NNS", "NNP", "JJ", "RB", "VB", "VBD", "VBN",
    "VBZ", "VBG", "IN", "CC", "PRP", "MD", "TO", "CD", ".",
)
OPEN_TAGS = ("NN", "NNS", "NNP", "JJ", "RB", "VB", "VBD", "VBN", "VBZ", "VBG")
# How often each open tag is given to a stem.
OPEN_TAG_WEIGHTS = (25, 15, 8, 12, 4, 12, 12, 10, 6, 4)

CLOSED_WORDS = {
    "DT": ("the", "a", "this", "that", "each", "some", "every", "no"),
    "IN": ("of", "in", "on", "with", "for", "at", "by", "from", "that", "about"),
    "CC": ("and", "or", "but"),
    "PRP": ("he", "she", "it", "they", "we", "you"),
    "MD": ("can", "will", "may", "must", "should", "would"),
    "TO": ("to",),
    ".": (".", ".", ".", "!", "?"),
}

# Next-tag weights after each tag; "<s>" starts a sentence, "." ends it.
TRANSITIONS = {
    "<s>": {"DT": 30, "PRP": 15, "NNP": 15, "NN": 5, "NNS": 8, "RB": 5,
            "IN": 8, "JJ": 4, "CD": 3, "VBG": 2},
    "DT": {"NN": 45, "JJ": 20, "NNS": 15, "CD": 3, "VBG": 2, "NNP": 2},
    "NN": {"VBZ": 14, "VBD": 14, "IN": 18, ".": 12, "MD": 6, "CC": 5,
           "NN": 8, "VBN": 4, "TO": 4, "NNS": 3},
    "NNS": {"VBD": 14, "VB": 10, "IN": 16, ".": 14, "MD": 8, "CC": 5,
            "VBN": 3, "TO": 3},
    "NNP": {"VBZ": 15, "VBD": 15, "NNP": 15, "IN": 10, ".": 10, "MD": 5,
            "CC": 5},
    "JJ": {"NN": 45, "NNS": 25, "JJ": 5, ".": 6, "CC": 3, "IN": 4, "TO": 3},
    "RB": {"VBD": 12, "VB": 10, "JJ": 15, "VBN": 8, "RB": 3, ".": 8,
           "VBZ": 8, "IN": 5, "VBG": 5, "DT": 4},
    "VB": {"DT": 30, "PRP": 8, "NN": 8, "NNS": 8, "RB": 8, "IN": 10, ".": 8,
           "VBN": 4, "TO": 5, "JJ": 5, "NNP": 4},
    "VBD": {"DT": 28, "PRP": 6, "NNS": 8, "RB": 8, "IN": 12, ".": 8,
            "VBN": 8, "JJ": 8, "TO": 6, "NNP": 5, "CD": 3},
    "VBN": {"IN": 25, "DT": 12, ".": 12, "RB": 8, "TO": 8, "NNS": 5,
            "NN": 4, "CC": 3},
    "VBZ": {"DT": 28, "VBN": 10, "RB": 8, "JJ": 8, "IN": 8, "VBG": 8,
            "NNS": 6, "NNP": 5, ".": 5},
    "VBG": {"DT": 30, "NN": 10, "NNS": 10, "IN": 15, "RB": 5, ".": 6,
            "JJ": 4, "PRP": 4},
    "IN": {"DT": 45, "NNP": 12, "NN": 10, "NNS": 12, "PRP": 6, "CD": 6,
           "JJ": 5, "VBG": 4},
    "CC": {"DT": 20, "PRP": 12, "NNP": 10, "VBD": 10, "VB": 6, "JJ": 8,
           "NNS": 8, "NN": 6, "RB": 4},
    "PRP": {"VBD": 30, "VBZ": 20, "MD": 15, "VB": 15, "RB": 8, ".": 2},
    "MD": {"VB": 70, "RB": 15},
    "TO": {"VB": 70, "DT": 15, "NNP": 5, "NN": 5, "CD": 5},
    "CD": {"NNS": 40, "NN": 10, ".": 12, "IN": 12, "CD": 2, "JJ": 5},
}

# Derivational endings that make the English regex rules and the
# suffix tables meaningful, keyed by a stem's first tag.
DERIVATIONS = {
    "NN": (0.3, ("ness", "ment", "ion", "ity", "ship")),
    "JJ": (0.5, ("ous", "ful", "ive", "able", "al", "ish")),
    "RB": (0.8, ("ly",)),
    "VB": (0.2, ("ize", "ate")),
}

_ONSETS = ("b", "br", "c", "ch", "d", "dr", "f", "fl", "g", "gr", "h", "j", "k",
           "l", "m", "n", "p", "pl", "r", "s", "sh", "st", "t", "tr", "v", "w")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ou")
_CODAS = ("", "", "n", "r", "l", "m", "t", "k", "p", "nd", "rt")
# The disjoint pool draws from other letters so its stems never look
# like base stems.
_OOV_ONSETS = ("z", "zw", "x", "q", "kv", "vr", "zh", "gl", "sk", "sn", "sp",
               "th", "y", "bl", "cl", "kr")
_OOV_CODAS = ("", "x", "z", "sk", "ng", "lf", "ck")


def inflect(stem: str, tag: str) -> str:
    """Surface form of a stem under an open-class tag."""
    if tag in ("NNS", "VBZ"):
        return stem + ("es" if stem.endswith("s") else "s")
    if tag in ("VBD", "VBN"):
        return stem + ("d" if stem.endswith("e") else "ed")
    if tag == "VBG":
        return (stem[:-1] if stem.endswith("e") else stem) + "ing"
    if tag == "NNP":
        return stem.capitalize()
    return stem


def _make_stem(rng: random.Random, onsets, codas) -> str:
    return "".join(
        rng.choice(onsets) + rng.choice(_VOWELS) + rng.choice(codas)
        for _ in range(rng.choice((1, 2, 2, 3)))
    )


def _stem_tags(rng: random.Random) -> tuple[str, ...]:
    k = rng.choices((1, 2, 3), weights=(6, 3, 1))[0]
    tags: list[str] = []
    while len(tags) < k:
        tag = rng.choices(OPEN_TAGS, weights=OPEN_TAG_WEIGHTS)[0]
        if tag not in tags:
            tags.append(tag)
    # Pair forms that share a surface word, so ambiguity is common.
    pairs = {"VBD": "VBN", "VBN": "VBD", "NN": "VB"}
    for tag in list(tags):
        partner = pairs.get(tag)
        if partner and partner not in tags and len(tags) < 3 and rng.random() < 0.25:
            tags.append(partner)
    return tuple(tags)


def _derive(rng: random.Random, stem: str, tags: tuple[str, ...]) -> str:
    share, endings = DERIVATIONS.get(tags[0], (0.0, ()))
    if endings and rng.random() < share:
        return stem + rng.choice(endings)
    return stem


class Language:
    """Words per tag with cumulative choice weights."""

    def __init__(self, words: dict[str, list[str]], weights: dict[str, list[float]]):
        self.words = words
        self.cum_weights = {}
        for tag, ws in weights.items():
            total, cum = 0.0, []
            for w in ws:
                total += w
                cum.append(total)
            self.cum_weights[tag] = cum

    def word(self, rng: random.Random, tag: str) -> str:
        if tag == "CD":
            return str(rng.randrange(2500))
        if tag in CLOSED_WORDS:
            return rng.choice(CLOSED_WORDS[tag])
        return rng.choices(self.words[tag], cum_weights=self.cum_weights[tag])[0]


@lru_cache(maxsize=None)
def language(pool: str = "base") -> Language:
    """The fixed base language, or its disjoint-stem ``oov`` variant."""
    rng = random.Random(GRAMMAR_SEED)
    closed = {w for words in CLOSED_WORDS.values() for w in words}
    seen: set[str] = set()
    base = []
    while len(base) < STEM_COUNT:
        tags = _stem_tags(rng)
        stem = _derive(rng, _make_stem(rng, _ONSETS, _CODAS), tags)
        if stem in seen or stem in closed:
            continue
        seen.add(stem)
        base.append((stem, tags, rng.paretovariate(PARETO_ALPHA)))
    if pool == "oov":
        surface = {inflect(s, t) for s, tags, _ in base for t in OPEN_TAGS} | closed
        oov_rng = random.Random(GRAMMAR_SEED + 1)
        stems = []
        while len(stems) < OOV_STEM_COUNT:
            tags = _stem_tags(oov_rng)
            stem = _derive(oov_rng, _make_stem(oov_rng, _OOV_ONSETS, _OOV_CODAS), tags)
            if stem in seen or any(inflect(stem, t) in surface for t in OPEN_TAGS):
                continue
            seen.add(stem)
            stems.append((stem, tags, 1.0))
    elif pool == "base":
        stems = base
    else:
        raise ValueError(f"unknown pool {pool!r}")
    words: dict[str, list[str]] = {t: [] for t in OPEN_TAGS}
    weights: dict[str, list[float]] = {t: [] for t in OPEN_TAGS}
    for stem, tags, weight in stems:
        for tag in tags:
            words[tag].append(inflect(stem, tag))
            weights[tag].append(weight)
    return Language(words, weights)


_TAG_TABLE = {
    prev: (tuple(nexts), tuple(nexts.values())) for prev, nexts in TRANSITIONS.items()
}


def sample(
    seed: int, stream: str, tokens: int, pool: str = "base"
) -> list[list[tuple[str, str]]]:
    """Sentences of (word, tag) pairs, at least ``tokens`` tokens in all.

    ``stream`` names an independent draw for the same seed, so the
    training corpus and the text to tag never share sentences by design.
    """
    lang = language(pool)
    rng = random.Random(f"rippletag-bench:{seed}:{stream}")
    sentences = []
    count = 0
    while count < tokens:
        sentence = []
        prev = "<s>"
        while prev != ".":
            if len(sentence) == MAX_SENTENCE - 1:
                tag = "."
            else:
                tags, weights = _TAG_TABLE[prev]
                tag = rng.choices(tags, weights=weights)[0]
            sentence.append((lang.word(rng, tag), tag))
            prev = tag
        sentences.append(sentence)
        count += len(sentence)
    return sentences


def tagged_text(sentences: list[list[tuple[str, str]]]) -> str:
    return "".join(" ".join(f"{w}/{t}" for w, t in s) + "\n" for s in sentences)


def raw_text(sentences: list[list[tuple[str, str]]]) -> str:
    return "".join(" ".join(w for w, _ in s) + "\n" for s in sentences)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tokens", type=int, required=True)
    parser.add_argument("--stream", default="train")
    parser.add_argument("--pool", choices=("base", "oov"), default="base")
    args = parser.parse_args(argv)
    sys.stdout.write(tagged_text(sample(args.seed, args.stream, args.tokens, args.pool)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
