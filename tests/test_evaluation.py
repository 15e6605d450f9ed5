import random

import pytest

from rippletag import evaluation
from rippletag.corpus import AlignmentError, TaggedCorpus, read_tagged_corpus
from rippletag.evaluation import (
    Metrics,
    cross_validate,
    level_curve,
    measure_tagging_speed,
    score_tagging,
)
from rippletag.learner import TrainOptions
from rippletag.scrdr import count_rules
from rippletag.tagger import Tagger


def corpus_of(text):
    return read_tagged_corpus(text)


class TestScoreTagging:
    def test_counts_each_token_once(self):
        gold = corpus_of("a/DT b/NN c/VB\nd/NN e/NN")
        pred = corpus_of("a/DT b/VB c/VB\nd/NN e/DT")
        m = score_tagging(gold, pred)
        assert (m.total, m.correct) == (5, 3)
        assert m.accuracy == 3 / 5
        assert m.known_total is None
        assert m.oov_rate is None

    def test_vocabulary_splits_known_and_unknown(self):
        gold = corpus_of("a/DT b/NN c/VB\nd/NN e/NN")
        pred = corpus_of("a/DT b/VB c/VB\nd/NN e/DT")
        m = score_tagging(gold, pred, vocabulary={"a", "b", "d"})
        assert (m.known_total, m.known_correct) == (3, 2)
        assert (m.unknown_total, m.unknown_correct) == (2, 1)
        assert m.known_accuracy == 2 / 3
        assert m.unknown_accuracy == 1 / 2
        assert m.oov_rate == 2 / 5

    def test_ten_tokens_two_unknown_one_error_each(self):
        gold = corpus_of("k1/A k2/A k3/A k4/A k5/A\nk6/A k7/A k8/A u1/A u2/A")
        pred = corpus_of("k1/A k2/A k3/A k4/A k5/A\nk6/A k7/A k8/B u1/A u2/B")
        m = score_tagging(
            gold, pred, vocabulary={f"k{i}" for i in range(1, 9)}
        )
        assert (m.known_total, m.known_correct) == (8, 7)
        assert (m.unknown_total, m.unknown_correct) == (2, 1)
        assert m.accuracy == 8 / 10

    def test_matches_a_direct_count_on_random_corpora(self):
        rng = random.Random(9)
        tags = ["NN", "VB", "DT"]
        for _ in range(25):
            n_sent = rng.randint(1, 6)
            shapes = [rng.randint(1, 8) for _ in range(n_sent)]
            words = [[f"w{rng.randint(0, 12)}" for _ in range(n)] for n in shapes]
            gold = TaggedCorpus.from_pairs(
                [
                    [(w, rng.choice(tags)) for w in sent]
                    for sent in words
                ]
            )
            pred = TaggedCorpus.from_pairs(
                [
                    [(w, rng.choice(tags)) for w in sent]
                    for sent in words
                ]
            )
            vocab = {f"w{i}" for i in range(rng.randint(0, 13))}
            m = score_tagging(gold, pred, vocab)
            pairs = [
                (g, p)
                for gs, ps in zip(gold.sentences, pred.sentences)
                for g, p in zip(gs, ps)
            ]
            assert m.total == len(pairs)
            assert m.correct == sum(g.tag == p.tag for g, p in pairs)
            assert m.known_total == sum(g.word in vocab for g, _ in pairs)
            assert m.unknown_correct == sum(
                g.tag == p.tag for g, p in pairs if g.word not in vocab
            )
            assert m.known_total + m.unknown_total == m.total
            assert m.known_correct + m.unknown_correct == m.correct

    def test_everything_known_leaves_unknown_accuracy_none(self):
        gold = corpus_of("a/DT b/NN")
        m = score_tagging(gold, gold, vocabulary={"a", "b"})
        assert m.unknown_total == 0
        assert m.unknown_accuracy is None
        assert m.oov_rate == 0.0

    def test_rejects_mismatched_or_empty_input(self):
        gold = corpus_of("a/DT b/NN")
        with pytest.raises(AlignmentError):
            score_tagging(gold, corpus_of("a/DT"))
        with pytest.raises(ValueError):
            score_tagging(
                TaggedCorpus.from_pairs([]), TaggedCorpus.from_pairs([])
            )

    def test_as_dict_round_trips_the_numbers(self):
        m = Metrics(10, 9, 8, 8, 2, 1)
        d = m.as_dict()
        assert d["accuracy"] == 0.9
        assert d["known_accuracy"] == 1.0
        assert d["unknown_accuracy"] == 0.5
        assert d["oov_rate"] == 0.2


class TestLevelCurve:
    def test_starts_at_first_guess_and_ends_at_full_model(self, toy, toy_model):
        curve = level_curve(toy_model, toy)
        assert curve[0]["level"] == 0
        assert curve[0]["rules"] == 0
        assert [row["level"] for row in curve] == list(range(len(curve)))
        assert curve[-1]["rules"] == count_rules(toy_model.tree)
        tagger = Tagger(toy_model)
        words = [[t.word for t in s] for s in toy.sentences]
        full = score_tagging(toy, tagger.tag_sentences(words)).accuracy
        assert curve[-1]["accuracy"] == full

    def test_rule_counts_never_shrink_with_depth(self, toy, toy_model):
        curve = level_curve(toy_model, toy)
        rules = [row["rules"] for row in curve]
        assert rules == sorted(rules)
        assert len(rules) >= 3

    def test_seed_layer_only_restates_the_first_guesses(self, toy, toy_model):
        curve = level_curve(toy_model, toy)
        assert curve[1]["accuracy"] == curve[0]["accuracy"]


class TestSpeed:
    def test_reports_every_repeat(self, toy, toy_model):
        tagger = Tagger(toy_model)
        words = [[t.word for t in s] for s in toy.sentences[:50]]
        report = measure_tagging_speed(tagger, words, repeats=3)
        assert report["repeats"] == 3
        assert report["tokens"] == sum(len(w) for w in words)
        assert len(report["rates"]) == 3
        assert report["tokens_per_sec"] == pytest.approx(
            sum(report["rates"]) / 3
        )
        assert all(r > 0 for r in report["rates"])

    def test_times_tag_block_calls_over_block_slices(
        self, toy, toy_model, monkeypatch
    ):
        blocks = []

        class Counting(Tagger):
            def tag_block(self, words, lengths):
                blocks.append(len(lengths))
                return super().tag_block(words, lengths)

        monkeypatch.setattr(evaluation, "TAG_BLOCK_LINES", 8)
        words = [[t.word for t in s] for s in toy.sentences[:20]]
        measure_tagging_speed(Counting(toy_model), words, repeats=3)
        assert blocks == [8, 8, 4] * 3

    def test_accepts_a_trailing_empty_sentence(self, toy, toy_model):
        # the `tag` command tags a blank line as an empty sentence
        words = [[t.word for t in s] for s in toy.sentences[:5]] + [[]]
        report = measure_tagging_speed(Tagger(toy_model), words, repeats=2)
        assert report["tokens"] == sum(map(len, words))
        assert len(report["rates"]) == 2

    def test_rejects_empty_work(self, toy_model):
        tagger = Tagger(toy_model)
        with pytest.raises(ValueError):
            measure_tagging_speed(tagger, [], repeats=1)
        with pytest.raises(ValueError):
            measure_tagging_speed(tagger, [["a"]], repeats=0)

    def test_single_token_gives_a_finite_positive_rate(self, toy_model):
        tagger = Tagger(toy_model)
        report = measure_tagging_speed(tagger, [["team"]], repeats=2)
        assert 0 < report["tokens_per_sec"] < float("inf")

    def test_rate_stays_in_the_same_ballpark_when_input_doubles(
        self, toy, toy_model
    ):
        # Rates are per token, so more text should not change them much.
        # The band is wide on purpose; this guards against accidentally
        # superlinear behavior, not scheduler noise.
        tagger = Tagger(toy_model)
        words = [[t.word for t in s] for s in toy.sentences]
        small = measure_tagging_speed(tagger, words, repeats=3)
        big = measure_tagging_speed(tagger, words * 2, repeats=3)
        ratio = big["tokens_per_sec"] / small["tokens_per_sec"]
        assert 1 / 3 < ratio < 3


@pytest.fixture(scope="module")
def report(toy):
    return cross_validate(toy, k=3, options=TrainOptions())


class TestCrossValidate:
    def test_produces_one_row_per_fold(self, toy, report):
        assert len(report["folds"]) == 3
        assert [row["fold"] for row in report["folds"]] == [1, 2, 3]
        for row in report["folds"]:
            assert row["train_tokens"] + row["test_tokens"] == toy.token_count
            assert row["rules"] > 0
            assert row["train_time_sec"] > 0
            assert 0.0 <= row["final"]["accuracy"] <= 1.0

    def test_mean_weighs_folds_equally(self, report):
        finals = [row["final"]["accuracy"] for row in report["folds"]]
        assert report["mean"]["final"]["accuracy"] == pytest.approx(
            sum(finals) / len(finals)
        )
        initials = [row["initial"]["accuracy"] for row in report["folds"]]
        assert report["mean"]["initial"]["accuracy"] == pytest.approx(
            sum(initials) / len(initials)
        )

    def test_unknown_mean_skips_folds_without_unknowns(self, report):
        per_fold = [row["final"]["unknown_accuracy"] for row in report["folds"]]
        present = [v for v in per_fold if v is not None]
        expected = sum(present) / len(present) if present else None
        assert report["mean"]["final"]["unknown_accuracy"] == (
            pytest.approx(expected) if expected is not None else None
        )

    def test_curve_and_speed_come_from_the_first_fold(self, report):
        assert report["level_curve"][0]["level"] == 0
        assert report["speed"]["repeats"] == 10
        assert report["speed"]["tokens"] == report["folds"][0]["test_tokens"]

    def test_duplicated_corpus_makes_every_fold_identical(self):
        block = (
            "the/DT can/NN fell/VBD\n" * 6 + "you/PRP can/MD go/VB\n" * 5
        )
        corpus = read_tagged_corpus(block * 10)
        report = cross_validate(corpus, k=10)
        finals = [row["final"] for row in report["folds"]]
        initials = [row["initial"] for row in report["folds"]]
        assert all(row == finals[0] for row in finals)
        assert all(row == initials[0] for row in initials)
        assert all(
            row["rules"] == report["folds"][0]["rules"]
            for row in report["folds"]
        )
