"""Scoring, cross-validation, depth curves and throughput measurement."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace as dc_replace
from itertools import chain

from .corpus import TaggedCorpus, check_aligned, split_folds
from .learner import TrainOptions, train_model
from .scrdr import count_rules, iter_nodes, truncate
from .tagger import TAG_BLOCK_LINES, Model, Tagger


@dataclass(frozen=True)
class Metrics:
    """Token-level accuracy counts, optionally split by vocabulary.

    The known/unknown split is only present when scoring was given a
    training vocabulary; unknown accuracy is None when the test text
    has no unknown words at all.
    """

    total: int
    correct: int
    known_total: int | None = None
    known_correct: int | None = None
    unknown_total: int | None = None
    unknown_correct: int | None = None

    @property
    def accuracy(self) -> float:
        return self.correct / self.total

    @property
    def known_accuracy(self) -> float | None:
        if not self.known_total:
            return None
        assert self.known_correct is not None
        return self.known_correct / self.known_total

    @property
    def unknown_accuracy(self) -> float | None:
        if not self.unknown_total:
            return None
        assert self.unknown_correct is not None
        return self.unknown_correct / self.unknown_total

    @property
    def oov_rate(self) -> float | None:
        if self.unknown_total is None:
            return None
        return self.unknown_total / self.total

    def as_dict(self) -> dict:
        return {
            "tokens": self.total,
            "correct": self.correct,
            "accuracy": self.accuracy,
            "known_tokens": self.known_total,
            "known_correct": self.known_correct,
            "known_accuracy": self.known_accuracy,
            "unknown_tokens": self.unknown_total,
            "unknown_correct": self.unknown_correct,
            "unknown_accuracy": self.unknown_accuracy,
            "oov_rate": self.oov_rate,
        }


def score_tagging(
    gold: TaggedCorpus,
    predicted: TaggedCorpus,
    vocabulary: set[str] | frozenset[str] | None = None,
) -> Metrics:
    """Compare predictions against gold, token by token."""
    check_aligned(gold, predicted)
    if gold.token_count == 0:
        raise ValueError("cannot score an empty corpus")
    total = correct = 0
    known_total = known_correct = unknown_total = unknown_correct = 0
    for gold_sent, pred_sent in zip(gold.sentences, predicted.sentences):
        for gold_tok, pred_tok in zip(gold_sent, pred_sent):
            total += 1
            hit = gold_tok.tag == pred_tok.tag
            if hit:
                correct += 1
            if vocabulary is not None:
                if gold_tok.word in vocabulary:
                    known_total += 1
                    known_correct += hit
                else:
                    unknown_total += 1
                    unknown_correct += hit
    if vocabulary is None:
        return Metrics(total, correct)
    return Metrics(
        total, correct, known_total, known_correct, unknown_total, unknown_correct
    )


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def _mean_or_none(values: list[float | None]) -> float | None:
    present = [v for v in values if v is not None]
    return _mean(present) if present else None


def _mean_metrics(metrics: list[Metrics]) -> dict:
    return {
        "accuracy": _mean([m.accuracy for m in metrics]),
        "known_accuracy": _mean_or_none([m.known_accuracy for m in metrics]),
        "unknown_accuracy": _mean_or_none([m.unknown_accuracy for m in metrics]),
        "oov_rate": _mean_or_none([m.oov_rate for m in metrics]),
    }


def level_curve(model: Model, test: TaggedCorpus) -> list[dict]:
    """Accuracy as the tree is cut off at increasing depths.

    Depth 0 is the bare first-guess tagger; the last entry uses the
    whole tree and must match the untruncated model exactly.
    """
    max_level = max((node.level for node in iter_nodes(model.tree)), default=0)
    words = [[t.word for t in s] for s in test.sentences]
    curve = []
    for depth in range(max_level + 1):
        cut = truncate(model.tree, depth)
        tagger = Tagger(dc_replace(model, tree=cut))
        predicted = tagger.tag_sentences(words)
        curve.append(
            {
                "level": depth,
                "rules": count_rules(cut),
                "accuracy": score_tagging(test, predicted).accuracy,
            }
        )
    return curve


def measure_tagging_speed(
    tagger: Tagger, sentences: list[list[str]], repeats: int = 10
) -> dict:
    """Tokens per second, averaged over full passes on the same text.

    Each pass tags the sentences ``TAG_BLOCK_LINES`` at a time, as the
    `tag` command tags its lines: it flattens a block's words into one
    list, takes its sentence lengths and makes one ``tagger.tag_block``
    call, all timed.  A sentence may be empty.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    tokens = sum(len(s) for s in sentences)
    if tokens == 0:
        raise ValueError("nothing to tag")
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        for first in range(0, len(sentences), TAG_BLOCK_LINES):
            block = sentences[first : first + TAG_BLOCK_LINES]
            lengths = list(map(len, block))
            tagger.tag_block(list(chain.from_iterable(block)), lengths)
        elapsed = time.perf_counter() - start
        rates.append(tokens / elapsed)
    return {
        "repeats": repeats,
        "tokens": tokens,
        "rates": rates,
        "tokens_per_sec": _mean(rates),
    }


def cross_validate(
    corpus: TaggedCorpus,
    k: int = 10,
    options: TrainOptions = TrainOptions(),
) -> dict:
    """Contiguous k-fold cross-validation of the whole pipeline.

    Each fold trains from scratch on the other k-1 parts and scores
    both the first-guess tagger and the full model on the held-out
    part.  Fold means weigh every fold equally; the unknown-word mean
    skips folds without unknown words.  The depth curve and the speed
    measurement come from the first fold only.
    """
    folds = split_folds(corpus, k)
    fold_rows = []
    initial_all: list[Metrics] = []
    final_all: list[Metrics] = []
    curve = None
    speed = None
    for number, (train, test) in enumerate(folds, start=1):
        start = time.perf_counter()
        model = train_model(train, options)
        train_time = time.perf_counter() - start
        tagger = Tagger(model)
        vocabulary = train.vocabulary()
        words = [[t.word for t in s] for s in test.sentences]
        initial_pred = TaggedCorpus.from_pairs(
            [zip(s, tagger.initial.tag_sentence(s)) for s in words]
        )
        final_pred = tagger.tag_sentences(words)
        initial_metrics = score_tagging(test, initial_pred, vocabulary)
        final_metrics = score_tagging(test, final_pred, vocabulary)
        initial_all.append(initial_metrics)
        final_all.append(final_metrics)
        fold_rows.append(
            {
                "fold": number,
                "train_tokens": train.token_count,
                "test_tokens": test.token_count,
                "rules": count_rules(model.tree),
                "train_time_sec": train_time,
                "initial": initial_metrics.as_dict(),
                "final": final_metrics.as_dict(),
            }
        )
        if number == 1:
            curve = level_curve(model, test)
            speed = measure_tagging_speed(tagger, words)
    return {
        "folds": fold_rows,
        "mean": {
            "initial": _mean_metrics(initial_all),
            "final": _mean_metrics(final_all),
            "train_time_sec": _mean([row["train_time_sec"] for row in fold_rows]),
        },
        "level_curve": curve,
        "speed": speed,
    }
