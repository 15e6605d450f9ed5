"""Acceptance suite: nine gates the finished package must clear.

Each test prints a single PASS or FAIL line so the whole gate can be
read off the output at a glance.  Expected values come from the
hand-built example tree, from independent re-computation inside the
test, or from fixed tolerances stated inline.
"""

import contextlib
import random
import time
from collections import Counter
from dataclasses import replace as dc_replace
from itertools import islice

from rippletag.corpus import read_tagged_corpus
from rippletag.evaluation import (
    cross_validate,
    level_curve,
    measure_tagging_speed,
    score_tagging,
)
from rippletag.initial_tagger import InitialTagger, InitialTaggerOptions, initialize_corpus
from rippletag.learner import train_model
from rippletag.lexicon import Lexicon, build_lexicon, parse_lexicon, serialize_lexicon
from rippletag.scrdr import (
    Node,
    Rule,
    count_rules,
    evaluate,
    insert_exception,
    make_tag_objects,
    new_root,
    parse_rule_text,
    parse_tree,
    render_rule,
    serialize_tree,
)
from rippletag.tagger import Model, Tagger, save_model

from helpers import (
    random_lexicon,
    random_object,
    random_tree,
    ref_matches,
    reference_evaluate,
    trees_equal,
)


@contextlib.contextmanager
def verdict(number, summary):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {summary}")
        raise
    print(f"PASS criterion {number}: {summary}")


def test_1_hand_built_tree_walk_is_exact_and_fast(example_tree_text):
    with verdict(1, "hand-built tree walks the known path in under 1 ms"):
        root = parse_tree(example_tree_text)
        words = ["as", "investors", "anticipate", "a", "recovery"]
        tags = ["IN", "NNS", "VB", "DT", "NN"]
        obj = make_tag_objects(words, tags)[2]
        result = evaluate(root, obj)
        visited = [render_rule(node.rule) for node in result.path]
        assert visited == [
            'if True then tag = ""',
            'if currentTag == "VB" then tag = "VB"',
            'if prev1Tag == "NNS" then tag = "VBP"',
            'if word == "cut" then tag = "VBN"',
            'if next1Tag == "MD" then tag = "VB"',
            'if word == "respond" and next2Word == "positively" then tag = "VB"',
        ]
        assert result.node is result.path[2]
        assert result.node.rule.conclusion == "VBP"
        best = min(
            _timed(lambda: evaluate(root, obj)) for _ in range(20)
        )
        assert best < 0.001, f"single walk took {best * 1000:.3f} ms"


def _timed(thunk):
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def test_2_walker_matches_reference_on_10000_pairs():
    with verdict(2, "10,000 random tree walks match the plain reference in <10 s"):
        rng = random.Random(20250825)
        pairs = 0
        start = time.perf_counter()
        for _ in range(100):
            root = random_tree(rng, rng.randint(1, 40))
            for _ in range(100):
                obj = random_object(rng)
                result = evaluate(root, obj)
                expect_node, expect_path = reference_evaluate(root, obj)
                assert result.node is expect_node
                assert result.path == expect_path
                pairs += 1
        elapsed = time.perf_counter() - start
        assert pairs >= 10_000
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


class _Replay:
    """Rebuilds the tree from the training audit, re-checking every step
    against full from-scratch evaluation of the record sets."""

    def __init__(self, records):
        self.records = records
        self.root = new_root()
        self.by_address = {"": self.root}
        self.tracked = {}

    def fresh_sets(self, node):
        wrong, correct = [], []
        for obj, gold in self.records:
            last, _ = reference_evaluate(self.root, obj)
            if last is node:
                (correct if gold == last.rule.conclusion else wrong).append(
                    (obj, gold)
                )
        return wrong, correct

    def attach(self, address, rule):
        parts = address.split(".")
        parent = self.conceptual_parent(address)
        # the address names the parent's k-th exception: "e" then k "i"s
        k = parts[::-1].index("e")
        assert len(parent.exceptions) == k
        node = Node(rule, sum(1 for p in parts if p == "e"))
        parent.exceptions.append(node)
        self.by_address[address] = node
        self.tracked[node] = ([], [])
        return node

    def conceptual_parent(self, address):
        parts = address.split(".")
        while parts[-1] == "i":
            parts.pop()
        parts.pop()
        return self.by_address[".".join(parts)]

    def seed_all(self):
        for obj, gold in self.records:
            last, _ = reference_evaluate(self.root, obj)
            assert last in self.tracked, "record fell through the seed layer"
            wrong, correct = self.tracked[last]
            (correct if gold == last.rule.conclusion else wrong).append((obj, gold))

    def apply_insert(self, event):
        parent = self.conceptual_parent(event["address"])
        rule = parse_rule_text(event["rule"])
        wrong, correct = self.fresh_sets(parent)
        hits = [(o, g) for o, g in wrong if ref_matches(rule, o)]
        a = sum(1 for _, g in hits if g == rule.conclusion)
        b = len(hits) - a
        correct_hits = [(o, g) for o, g in correct if ref_matches(rule, o)]
        assert (a, b) == (event["a"], event["b"])
        assert a - b == event["score"]
        assert event["score"] > event["threshold"]
        assert event["threshold"] == (3 if event["level"] == 2 else 2)
        assert len(hits) == event["moved_wrong"]
        assert len(correct_hits) == event["moved_correct"]
        if parent.level >= 2:
            assert not correct_hits, "insertion broke a correctly tagged record"
        node = self.attach(event["address"], rule)
        assert node.level == parent.level + 1 == event["level"]
        self.migrate(parent, node, rule)

    def migrate(self, parent, child, rule):
        wrong, correct = self.tracked[parent]
        child_wrong, child_correct = self.tracked[child]
        for source in (wrong, correct):
            moved = [(o, g) for o, g in source if ref_matches(rule, o)]
            source[:] = [(o, g) for o, g in source if not ref_matches(rule, o)]
            for o, g in moved:
                (child_correct if g == rule.conclusion else child_wrong).append(
                    (o, g)
                )

    def check_incremental_equals_fresh(self):
        for node, (wrong, correct) in self.tracked.items():
            fresh_wrong, fresh_correct = self.fresh_sets(node)
            assert Counter(wrong) == Counter(fresh_wrong)
            assert Counter(correct) == Counter(fresh_correct)


def test_3_training_audit_replays_against_full_reevaluation(toy, toy_model):
    with verdict(3, "every learned rule clears its floor and the audit replays exactly"):
        lexicon = build_lexicon(toy)
        tagger = InitialTagger(lexicon, InitialTaggerOptions())
        records = []
        # the flat first guesses, cut by sentence length
        first_guesses = iter(initialize_corpus(toy, tagger))
        for gold_sent in toy.sentences:
            tags = list(islice(first_guesses, len(gold_sent)))
            objs = make_tag_objects([t.word for t in gold_sent], tags)
            for obj, gold_tok in zip(objs, gold_sent):
                records.append((obj, gold_tok.tag))

        replay = _Replay(records)
        audit = list(toy_model.audit)
        assert audit[0]["event"] == "begin"
        assert audit[0]["tokens"] == len(records)
        seen_insert = False
        for event in audit[1:]:
            if event["event"] == "seed":
                assert not seen_insert, "seed event after an insertion"
                node = replay.attach(event["address"], parse_rule_text(event["rule"]))
                assert node.level == 1 == event["level"]
            else:
                if not seen_insert:
                    replay.seed_all()
                    seen_insert = True
                replay.apply_insert(event)
        if not seen_insert:
            replay.seed_all()
        assert sum(1 for e in audit if e["event"] == "insert") > 0
        replay.check_incremental_equals_fresh()
        assert serialize_tree(replay.root) == serialize_tree(toy_model.tree)


def test_4_learned_model_beats_first_guesses_by_a_point(toy):
    with verdict(4, "10-fold mean accuracy beats the first-guess tagger by >=1.0 point"):
        report = cross_validate(toy, k=10)
        initial = report["mean"]["initial"]["accuracy"]
        final = report["mean"]["final"]["accuracy"]
        gain = (final - initial) * 100
        assert gain >= 1.0, f"gain was {gain:.2f} points"


def test_5_training_is_byte_deterministic(toy, tmp_path):
    with verdict(5, "repeat training runs write byte-identical models"):
        paths = {
            "first": train_model(toy),
            "second": train_model(toy),
        }
        for name, model in paths.items():
            save_model(model, tmp_path / name)
        names = ("model.rdr", "model.lex", "model.json", "audit.jsonl")
        for name in names:
            first = (tmp_path / "first" / name).read_bytes()
            assert (tmp_path / "second" / name).read_bytes() == first


def test_6_serialization_round_trips_1000_random_instances():
    with verdict(6, "1,000 random trees and lexicons survive serialize/parse exactly"):
        rng = random.Random(606)
        for _ in range(1000):
            root = random_tree(rng, rng.randint(0, 25))
            text = serialize_tree(root)
            again = parse_tree(text)
            assert trees_equal(root, again)
            assert serialize_tree(again) == text
        for _ in range(1000):
            lexicon = random_lexicon(rng)
            text = serialize_lexicon(lexicon)
            again = parse_lexicon(text)
            assert again == lexicon
            assert serialize_lexicon(again) == text


def _stuffed_model(toy_model):
    """Fresh copy of the toy model padded past 2,000 rules with tests
    on words that never occur, so outputs stay identical while every
    chain gets long enough to exercise the indexed path."""
    tree = parse_tree(serialize_tree(toy_model.tree))
    seeds = tree.exceptions
    i = 0
    while count_rules(tree) < 2000:
        insert_exception(seeds[i % len(seeds)], Rule(((4, f"zz{i}"),), "NN"))
        i += 1
    return dc_replace(toy_model, tree=tree)


def test_7_throughput_with_2000_rules_exceeds_50k_tokens_per_sec(toy, toy_model):
    with verdict(7, "a 2,000-rule model sustains >=50K tokens/sec over 10 repeats"):
        stuffed = _stuffed_model(toy_model)
        assert count_rules(stuffed.tree) >= 2000
        words = [[t.word for t in s] for s in toy.sentences]
        base_out = Tagger(toy_model).tag_sentences(words[:40])
        stuffed_tagger = Tagger(stuffed)
        assert stuffed_tagger.tag_sentences(words[:40]) == base_out
        report = measure_tagging_speed(stuffed_tagger, words, repeats=10)
        rate = report["tokens_per_sec"]
        assert rate >= 50_000, f"measured {rate:,.0f} tokens/sec"


def test_8_level_curve_grows_rules_and_lands_on_the_full_model(toy, toy_model):
    with verdict(8, "depth curve rule counts never shrink and end at the full model"):
        curve = level_curve(toy_model, toy)
        rules = [row["rules"] for row in curve]
        assert rules == sorted(rules)
        assert rules[0] == 0
        assert rules[-1] == count_rules(toy_model.tree)
        words = [[t.word for t in s] for s in toy.sentences]
        full = score_tagging(toy, Tagger(toy_model).tag_sentences(words)).accuracy
        assert curve[-1]["accuracy"] == full


def test_9_first_guess_without_a_seed_survives_unchanged(example_tree_text):
    with verdict(9, "a first guess with no matching seed rule is returned as is"):
        tree = parse_tree(example_tree_text)
        seed_tags = {node.rule.conclusion for node in tree.exceptions}
        lexicon = Lexicon(
            word_tags={"the": "DT", "plan": "NN", "works": "VB"},
            suffix_tags={n: {} for n in (2, 3, 4, 5)},
            numeric_tag="CD",
            capitalized_tag="NNP",
            lowercase_tag="NN",
        )
        assert "DT" not in seed_tags
        tagger = Tagger(Model(lexicon=lexicon, tree=tree))
        tags = tagger.tag_sentence(["the", "plan", "works"])
        assert tagger.initial.tag_sentence(["the", "plan", "works"])[0] == "DT"
        assert tags[0] == "DT"
