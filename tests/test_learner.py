import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import rippletag.learner as learner
import rippletag.scrdr as scrdr

from rippletag.corpus import AlignmentError, read_tagged_corpus
from rippletag.initial_tagger import MODE_ENGLISH, MODE_GENERIC
from rippletag.learner import (
    DEFAULT_MAX_LEVEL,
    LearnerStateError,
    Selection,
    Thresholds,
    TrainOptions,
    _Candidates,
    _Learning,
    _NodeRecords,
    learn_tree,
    select_rule,
    train_model,
)
from rippletag.scrdr import (
    FIELD_NAMES,
    TagObject,
    layer_census,
    serialize_tree,
    truncate,
)
from rippletag.tagger import save_model
from rippletag.templates import CATALOG, instantiate

from helpers import (
    POOL,
    Record,
    project,
    random_object,
    random_tagged_text,
    records_of,
    ref_matches,
    reference_candidate_tables,
    reference_select_rule,
    trees_equal,
)

MICRO = "the/DT can/NN fell/VBD\n" * 6 + "you/PRP can/MD go/VB\n" * 5

MICRO_TREE = (
    'if True then tag = ""\n'
    '\tif currentTag == "DT" then tag = "DT"\n'
    '\tif currentTag == "NN" then tag = "NN"\n'
    '\t\tif prev1Word == "you" then tag = "MD"\n'
    '\tif currentTag == "VBD" then tag = "VBD"\n'
    '\tif currentTag == "PRP" then tag = "PRP"\n'
    '\tif currentTag == "VB" then tag = "VB"\n'
)


def obj(**kw):
    fields = {name: None for name in FIELD_NAMES}
    fields.update(kw)
    return TagObject(**fields)


def tags_of(corpus):
    """A corpus's tags, one list per sentence, as ``learn_tree`` takes them."""
    return [[t.tag for t in sentence] for sentence in corpus.sentences]


def micro_corpora():
    """First guesses where modal "can" starts as NN, plus gold."""
    gold = read_tagged_corpus(MICRO)
    init = tags_of(read_tagged_corpus(MICRO.replace("can/MD", "can/NN")))
    return init, gold


def columns_of(records):
    """The records' contexts as context columns, one row per record."""
    return tuple([r.obj[f] for r in records] for f in range(len(FIELD_NAMES)))


def select(wrong, correct, thresholds, level):
    """``select_rule`` on record lists: rows of their columns, fresh tables.

    Wrong records are rows 0 to len(wrong) - 1, correct ones follow.
    """
    records = wrong + (correct or [])
    columns, gold = columns_of(records), [r.gold for r in records]
    wrong_rows = list(range(len(wrong)))
    correct_rows = None if correct is None else list(range(len(wrong), len(records)))
    candidates = _Candidates(
        columns, gold, wrong_rows, correct_rows, thresholds.for_level(level)
    )
    return select_rule(wrong_rows, correct_rows, thresholds, level, candidates)


def oracle_select(wrong, correct, thresholds, level):
    """Instantiate-and-scan scorer, no grouping, for cross-checking."""
    candidates = {}
    for r in wrong:
        for template in CATALOG:
            values = project(template, r.obj)
            if values is not None:
                candidates[(template.id, values, r.gold)] = instantiate(
                    template, values, r.gold
                )
    best = None
    for (tid, values, conclusion), rule in sorted(candidates.items()):
        if correct is not None and any(ref_matches(rule, r.obj) for r in correct):
            continue
        hits = [r for r in wrong if ref_matches(rule, r.obj)]
        a = sum(1 for r in hits if r.gold == conclusion)
        b = len(hits) - a
        if a - b <= thresholds.for_level(level):
            continue
        key = (-(a - b), tid, values, conclusion)
        if best is None or key < best[0]:
            best = (key, Selection(rule, tid, a, b, a - b))
    return None if best is None else best[1]


class TestThresholds:
    def test_levels_map_to_the_right_floor(self):
        t = Thresholds(layer2=3, deeper=2)
        assert t.for_level(2) == 3
        assert t.for_level(3) == 2
        assert t.for_level(9) == 2

    def test_floors_below_one_are_rejected(self):
        with pytest.raises(ValueError):
            Thresholds(layer2=0)
        with pytest.raises(ValueError):
            Thresholds(deeper=-1)


class TestSelectRule:
    def test_empty_wrong_set_selects_nothing(self):
        assert select([], None, Thresholds(), 2) is None

    def test_uniform_context_scores_every_record(self):
        wrong = [
            Record(obj(prev1Tag="PRP", word=w, currentTag="NN"), "MD")
            for w in ("can", "may", "must", "will")
        ]
        sel = select(wrong, None, Thresholds(), 2)
        assert sel is not None
        assert (sel.a, sel.b, sel.score) == (4, 0, 4)
        assert sel.template_id == 15
        assert sel.rule.conclusion == "MD"

    def test_correct_records_veto_matching_candidates(self):
        wrong = [
            Record(
                obj(prev1Tag="X", next1Tag="Y", word=w, currentTag="A"), "B"
            )
            for w in ("w1a", "w2b", "w3c", "w4d")
        ]
        correct = [Record(obj(prev1Tag="X", next1Tag="Z", word="w5e", currentTag="A"), "A")]
        free = select(wrong, None, Thresholds(), 3)
        assert free.template_id == 15
        vetoed = select(wrong, correct, Thresholds(), 3)
        assert vetoed.template_id == 17
        assert vetoed.rule.tests == ((7, "Y"),)
        assert (vetoed.a, vetoed.b, vetoed.score) == (4, 0, 4)

    def test_score_counts_matching_records_against_each_other(self):
        shared = dict(prev1Tag="X", currentTag="A")
        wrong = (
            [Record(obj(word=f"p{i}", **shared), "B") for i in range(6)]
            + [Record(obj(word=f"q{i}", **shared), "C") for i in range(2)]
        )
        sel = select(wrong, None, Thresholds(), 2)
        assert (sel.a, sel.b, sel.score) == (6, 2, 4)
        assert sel.rule.conclusion == "B"

    def test_scores_at_the_floor_are_not_enough(self):
        wrong = [
            Record(obj(prev1Tag="X", word=f"w{i}", currentTag="A"), "B")
            for i in range(3)
        ]
        assert select(wrong, None, Thresholds(layer2=3), 2) is None
        sel = select(wrong, None, Thresholds(layer2=2), 2)
        assert sel.score == 3

    def test_ties_break_on_template_then_values_then_conclusion(self):
        wrong = [
            Record(obj(prev1Word="to", prev1Tag="TO", word="walk", currentTag="NN"), "VB")
            for _ in range(4)
        ]
        sel = select(wrong, None, Thresholds(), 2)
        assert sel.template_id == 2
        assert sel.rule.tests == ((2, "to"),)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_the_instantiate_and_scan_oracle(self, seed):
        rng = random.Random(1000 + seed)
        golds = POOL[:4]
        wrong = [
            Record(random_object(rng), rng.choice(golds))
            for _ in range(rng.randint(5, 40))
        ]
        correct = (
            None
            if rng.random() < 0.3
            else [
                Record(random_object(rng), rng.choice(golds))
                for _ in range(rng.randint(0, 15))
            ]
        )
        thresholds = rng.choice([Thresholds(1, 1), Thresholds(2, 2)])
        level = rng.choice([2, 3, 4])
        assert select(wrong, correct, thresholds, level) == oracle_select(
            wrong, correct, thresholds, level
        )

    # Each draw stresses one path the counting kernel treats specially:
    # keys with None in them, ties everywhere, the floor prune with the
    # lazily built blocked set, and the seed nodes' unchecked selection.
    HARD_DRAWS = {
        "half_none": dict(none_rate=0.5),
        "two_values": dict(pool=POOL[:2]),
        "many_wrong": dict(n_wrong=(100, 300), n_correct=(0, 100)),
        "seed_level": dict(level=2, n_correct=None),
    }

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("draw", sorted(HARD_DRAWS))
    def test_matches_the_oracle_on_hard_draws(self, draw, seed):
        spec = self.HARD_DRAWS[draw]
        rng = random.Random(f"{draw}-{seed}")
        pool = spec.get("pool", POOL)
        none_rate = spec.get("none_rate", 0.2)
        golds = pool[:4]

        def records(n_range):
            return [
                Record(random_object(rng, pool, none_rate), rng.choice(golds))
                for _ in range(rng.randint(*n_range))
            ]

        wrong = records(spec.get("n_wrong", (5, 40)))
        n_correct = spec.get("n_correct", (0, 15))
        correct = None if n_correct is None else records(n_correct)
        thresholds = rng.choice([Thresholds(1, 1), Thresholds(2, 2), Thresholds(3, 2)])
        level = spec.get("level") or rng.choice([2, 3, 4])
        assert select(wrong, correct, thresholds, level) == oracle_select(
            wrong, correct, thresholds, level
        )


class TestLearnTree:
    def test_micro_corpus_learns_the_expected_tree(self):
        init, gold = micro_corpora()
        result = learn_tree(init, gold)
        assert serialize_tree(result.root) == MICRO_TREE

    def test_micro_corpus_audit_is_fully_specified(self):
        init, gold = micro_corpora()
        result = learn_tree(init, gold)
        events = [e["event"] for e in result.audit]
        assert events == ["begin"] + ["seed"] * 5 + ["insert"]
        begin = result.audit[0]
        assert begin == {
            "event": "begin",
            "sentences": 11,
            "tokens": 33,
            "seed_tags": ["DT", "NN", "VBD", "PRP", "VB"],
            "layer2_threshold": 3,
            "deeper_threshold": 2,
            "strict": True,
            "max_level": 50,
        }
        seeds = result.audit[1:6]
        assert [e["address"] for e in seeds] == ["e", "e.i", "e.i.i", "e.i.i.i", "e.i.i.i.i"]
        assert [e["level"] for e in seeds] == [1] * 5
        assert seeds[1]["rule"] == 'if currentTag == "NN" then tag = "NN"'
        insert = result.audit[6]
        assert insert == {
            "event": "insert",
            "address": "e.i.e",
            "level": 2,
            "rule": 'if prev1Word == "you" then tag = "MD"',
            "template": 2,
            "a": 5,
            "b": 0,
            "score": 5,
            "threshold": 3,
            "moved_wrong": 5,
            "moved_correct": 0,
        }

    def test_audit_is_json_serializable_and_stable(self):
        init, gold = micro_corpora()
        first = learn_tree(init, gold)
        second = learn_tree(init, gold)
        dump = lambda audit: "\n".join(json.dumps(e, sort_keys=True) for e in audit)
        assert dump(first.audit) == dump(second.audit)

    def test_perfect_initialization_learns_only_seeds(self):
        _, gold = micro_corpora()
        result = learn_tree(tags_of(gold), gold)
        assert set(layer_census(result.root)) == {1}

    def test_floor_of_three_blocks_a_three_record_error_class(self):
        text = "the/DT can/NN fell/VBD\n" * 6 + "you/PRP can/MD go/VB\n" * 3
        gold = read_tagged_corpus(text)
        init = tags_of(read_tagged_corpus(text.replace("can/MD", "can/NN")))
        stuck = learn_tree(init, gold, thresholds=Thresholds(layer2=3))
        assert set(layer_census(stuck.root)) == {1}
        fixed = learn_tree(init, gold, thresholds=Thresholds(layer2=2))
        assert layer_census(fixed.root)[2] == 1

    def test_mismatched_corpora_are_rejected(self):
        init, gold = micro_corpora()
        with pytest.raises(AlignmentError, match="sentence counts differ"):
            learn_tree([["DT", "NN"]], gold)
        with pytest.raises(AlignmentError, match="sentence counts differ"):
            learn_tree(init + [["DT"]], gold)

    @pytest.mark.parametrize("change", [-1, 1])
    def test_first_guesses_of_another_sentence_length_are_rejected(self, change):
        init, gold = micro_corpora()
        init[4] = init[4][:change] if change < 0 else init[4] + ["NN"]
        with pytest.raises(AlignmentError, match="sentence 5: token counts differ"):
            learn_tree(init, gold)

    def test_max_level_below_one_is_rejected(self):
        init, gold = micro_corpora()
        with pytest.raises(ValueError):
            learn_tree(init, gold, max_level=0)

    def test_max_level_one_keeps_only_seeds(self):
        init, gold = micro_corpora()
        result = learn_tree(init, gold, max_level=1)
        assert set(layer_census(result.root)) == {1}


class TestSelfCheck:
    def test_lost_records_fail_the_self_check(self, monkeypatch):
        migrate = _Learning.migrate

        def lossy_migrate(self, state, child):
            moved = migrate(self, state, child)
            # the new child forgets the records it just captured
            self.records[child] = _NodeRecords()
            return moved

        monkeypatch.setattr(_Learning, "migrate", lossy_migrate)
        init, gold = micro_corpora()
        with pytest.raises(LearnerStateError, match="stale record sets"):
            learn_tree(init, gold)

    @pytest.mark.parametrize("drop_from", ["child", "parent"])
    def test_a_record_filed_twice_and_one_lost_fail_the_self_check(
        self, monkeypatch, drop_from
    ):
        migrate = _Learning.migrate

        def swapping_migrate(self, state, child):
            moved = migrate(self, state, child)
            captured = self.records[child].correct
            # one record filed twice, another lost: the total stays the same
            captured.append(captured[0])
            (captured if drop_from == "child" else state.correct).pop(-2)
            return moved

        monkeypatch.setattr(_Learning, "migrate", swapping_migrate)
        init, gold = micro_corpora()
        with pytest.raises(LearnerStateError, match="stale record sets"):
            learn_tree(init, gold)

    def test_a_row_moved_to_another_node_with_the_same_conclusion_fails(
        self, monkeypatch
    ):
        # modal "can" starts as NN in five sentences and as VB in five,
        # so two exceptions conclude MD, one under each seed
        gold = read_tagged_corpus("you/PRP can/MD go/VB\n" * 10)
        init = [["PRP", "NN", "VB"]] * 5 + [["PRP", "VB", "VB"]] * 5
        check = _Learning.check_against_tree
        modal_nodes = []

        def moving_check(self):
            modal = [s for n, s in self.records.items() if n.rule.conclusion == "MD"]
            modal_nodes.append(len(modal))
            # the row keeps its tag and its correctness, only its node changes
            modal[1].correct.append(modal[0].correct.pop())
            check(self)

        assert serialize_tree(learn_tree(init, gold).root).count('tag = "MD"') == 2
        monkeypatch.setattr(_Learning, "check_against_tree", moving_check)
        with pytest.raises(LearnerStateError, match="stale record sets"):
            learn_tree(init, gold)
        assert modal_nodes == [2]

    def test_migrate_that_moves_nothing_raises(self, monkeypatch):
        # without the check, expand selects and attaches the same rule forever
        monkeypatch.setattr(_Learning, "migrate", lambda self, state, child: 0)
        init, gold = micro_corpora()
        with pytest.raises(LearnerStateError, match="moved 0 wrong records"):
            learn_tree(init, gold)


class TestOnToyCorpus:
    def test_training_is_deterministic(self, toy):
        a = train_model(toy)
        b = train_model(toy)
        assert serialize_tree(a.tree) == serialize_tree(b.tree)
        assert a.audit == b.audit

    def test_training_builds_no_tag_objects(self, toy, monkeypatch):
        def refuse(words, tags):
            raise AssertionError("training built per-token context objects")

        monkeypatch.setattr(learner, "make_tag_objects", refuse)
        monkeypatch.setattr(scrdr, "make_tag_objects", refuse)
        assert layer_census(train_model(toy).tree) == {1: 18, 2: 5, 3: 1}

    def test_toy_tree_shape_is_pinned(self, toy_model):
        assert layer_census(toy_model.tree) == {1: 18, 2: 5, 3: 1}

    def test_every_insert_cleared_its_floor(self, toy_model):
        inserts = [e for e in toy_model.audit if e["event"] == "insert"]
        assert inserts
        for e in inserts:
            assert e["score"] == e["a"] - e["b"]
            assert e["score"] > e["threshold"]
            assert e["threshold"] == (3 if e["level"] == 2 else 2)
            assert e["moved_wrong"] == e["a"] + e["b"]
            assert e["level"] == e["address"].split(".").count("e")

    def test_level_cap_truncates_learning_not_selection(self, toy, toy_model):
        capped = train_model(toy, TrainOptions(max_level=2))
        assert trees_equal(capped.tree, truncate(toy_model.tree, 2))

    # SHA-256 of each saved file; any learner change that alters the
    # model, even deterministically, changes one of them
    PINNED_SHA256 = {
        "model.rdr": "8a18d2d9c01b48e5566e89cfd649b0a863e95db57710b5bbf7397a5e882ac94f",
        "model.lex": "9fe5ef3610b8bce44c90afe9a3b697e00975f9b9b6f7d882863e0737bdc9b727",
        "audit.jsonl": "c2c800380690f107be1268728f5ffd6c111d740f397d6ba2c3146b00b31d0b83",
    }
    PINNED_CONFIG_SHA256 = {
        MODE_GENERIC: "fc3a3c43c09eb8b7eb62bb41e68a927a46da40e307ed5695cb2e0e76d5d45b00",
        MODE_ENGLISH: "df040f8b39fe4a0b7d243ddc0b3cb54f928da10fdf8c32ed89be0c9bcf4b619c",
    }

    @pytest.mark.parametrize("mode", [MODE_GENERIC, MODE_ENGLISH])
    def test_saved_model_bytes_are_pinned(self, toy, tmp_path, mode):
        save_model(train_model(toy, TrainOptions(mode=mode)), tmp_path / "model")
        got = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (tmp_path / "model").iterdir()
        }
        assert got == {**self.PINNED_SHA256, "model.json": self.PINNED_CONFIG_SHA256[mode]}


def candidate_snapshot(candidates):
    """A node's tables in ``reference_candidate_tables`` form: values as tuples."""
    snapshot = {}
    for t in candidates.tables:
        wrap = (lambda v: (v,)) if len(t.template.fields) == 1 else (lambda v: v)
        snapshot[t.template.id] = (
            {(wrap(v), gold): a for (v, gold), a in t.fixed.items()},
            {wrap(v): n for v, n in t.matched.items()},
            None if t.blocked is None else {wrap(v): n for v, n in t.blocked.items()},
        )
    return snapshot


def all_nn(corpus):
    """First guesses of NN for every token: one seed, many selections."""
    return [["NN"] * len(sentence) for sentence in corpus.sentences]


class TestIncrementalSelection:
    @pytest.mark.parametrize(
        "corpus",
        ["toy-" + MODE_GENERIC, "toy-" + MODE_ENGLISH, "toy-all-NN", "generated"],
    )
    def test_every_selection_equals_the_recounting_reference(
        self, toy, corpus, monkeypatch
    ):
        original = learner.select_rule
        seen = Counter()

        def checked(wrong, correct, thresholds, level, candidates):
            got = original(wrong, correct, thresholds, level, candidates)
            columns, gold = candidates.columns, candidates.gold
            want = reference_select_rule(
                records_of(columns, gold, wrong),
                None if correct is None else records_of(columns, gold, correct),
                thresholds,
                level,
            )
            assert got == want
            seen[got is None, correct is None] += 1
            return got

        monkeypatch.setattr(learner, "select_rule", checked)
        if corpus == "generated":
            gold = read_tagged_corpus(random_tagged_text(random.Random(7), 3000))
            train_model(gold)
            # rules found and not found, with and without the veto
            assert len(seen) == 4
        elif corpus == "toy-all-NN":
            learn_tree(all_nn(toy), toy)
            assert seen[False, False] > 0
        else:
            train_model(toy, TrainOptions(mode=corpus.removeprefix("toy-")))
            assert seen[False, True] > 0

    def test_each_record_is_counted_once_per_node_when_filled_and_once_when_it_leaves(
        self, toy, monkeypatch
    ):
        # (node, phase, template fields, row) -> times a table read the row
        counts = Counter()
        where = []
        phase = [None]
        keys = learner._keys

        def counted_keys(columns, fields, rows):
            # only the table reads count, not the partition in ``migrate``
            if phase[0] is not None:
                for row in rows:
                    counts[where[-1], phase[0], fields, row] += 1
            return keys(columns, fields, rows)

        def in_phase(name, method):
            def tracked(*args):
                phase[0] = name
                try:
                    return method(*args)
                finally:
                    phase[0] = None

            return tracked

        expand = _Learning.expand

        def tracked_expand(self, node):
            where.append(node)
            try:
                expand(self, node)
            finally:
                where.pop()

        monkeypatch.setattr(learner, "_keys", counted_keys)
        monkeypatch.setattr(_Learning, "expand", tracked_expand)
        monkeypatch.setattr(
            _Candidates, "__init__", in_phase("fill", _Candidates.__init__)
        )
        monkeypatch.setattr(_Candidates, "remove", in_phase("leave", _Candidates.remove))
        learn_tree(all_nn(toy), toy)
        recounted = [key for key, n in counts.items() if n > 1]
        assert recounted == []
        assert {phase for _, phase, _, _ in counts} == {"fill", "leave"}

    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 3), st.booleans())
    def test_tables_stay_equal_to_fresh_counts(self, rng, floor, vetoes):
        pool, golds = POOL[:3], POOL[:4]

        def draw(n):
            return [
                Record(random_object(rng, pool, none_rate=0.3), rng.choice(golds))
                for _ in range(n)
            ]

        wrong = draw(rng.randint(0, 40))
        records = wrong + draw(rng.randint(0, 20))
        columns, gold = columns_of(records), [r.gold for r in records]
        learning = _Learning(columns, gold, Thresholds(floor, floor), DEFAULT_MAX_LEVEL)
        node = learning.seed("X")
        state = learning.records[node]
        state.wrong = list(range(len(wrong)))
        state.correct = list(range(len(wrong), len(records)))
        correct = state.correct if vetoes else None

        def fresh_counts():
            return reference_candidate_tables(
                [records[r] for r in state.wrong],
                None if correct is None else [records[r] for r in correct],
                floor,
            )

        state.candidates = _Candidates(columns, gold, state.wrong, correct, floor)
        assert candidate_snapshot(state.candidates) == fresh_counts()
        for _ in range(rng.randint(1, 8)):
            remaining = state.wrong + state.correct
            if not remaining:
                break
            template = rng.choice(CATALOG)
            values = project(template, records[rng.choice(remaining)].obj)
            if values is None:
                continue
            child = learning.attach(node, instantiate(template, values, rng.choice(golds)))
            learning.migrate(state, child)
            assert candidate_snapshot(state.candidates) == fresh_counts()
