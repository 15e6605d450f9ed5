import json
import random

import pytest

from rippletag.lexicon import Lexicon
from rippletag.scrdr import (
    Node,
    Rule,
    context_columns,
    insert_exception,
    new_root,
    parse_tree,
    serialize_tree,
)
from rippletag.tagger import (
    AUDIT_FILE,
    LEXICON_FILE,
    META_FILE,
    TREE_FILE,
    Model,
    ModelFormatError,
    Tagger,
    compile_chain,
    load_model,
    run_chain,
    save_model,
)

from helpers import (
    random_object,
    random_rule,
    random_tree,
    reference_evaluate,
    reference_make_tag_objects,
)


def expected_conclusion(root, obj):
    """What the compiled walk should return, per the plain tree walk."""
    last, _ = reference_evaluate(root, obj)
    return None if last is root else last.rule.conclusion


def assert_walks_like_the_reference(root, compiled, objects):
    """The column walk of token i equals the plain walk of objects[i]."""
    cols = tuple(list(column) for column in zip(*objects))
    for i, obj in enumerate(objects):
        assert run_chain(compiled, cols, i) == expected_conclusion(root, obj)


def wide_tree(rng, top_width, extra):
    """Tree whose top chain is long enough to get the value index."""
    root = new_root()
    top = [insert_exception(root, random_rule(rng)) for _ in range(top_width)]
    nodes = list(top)
    for _ in range(extra):
        nodes.append(insert_exception(rng.choice(nodes), random_rule(rng)))
    return root


class TestCompiledChain:
    def test_matches_plain_walk_on_random_trees(self):
        rng = random.Random(31)
        for _ in range(40):
            root = random_tree(rng, rng.randint(1, 30))
            compiled = compile_chain(root.except_child)
            objects = [random_object(rng) for _ in range(50)]
            assert_walks_like_the_reference(root, compiled, objects)

    def test_long_chains_are_indexed_and_still_match(self):
        rng = random.Random(32)
        for _ in range(20):
            root = wide_tree(rng, rng.randint(8, 20), rng.randint(0, 25))
            compiled = compile_chain(root.except_child)
            assert compiled[1] is not None
            objects = [random_object(rng) for _ in range(60)]
            assert_walks_like_the_reference(root, compiled, objects)

    def test_sentence_columns_walk_like_the_reference_objects(self):
        # rules test values the sentences really have, suffixes and
        # sentence edges included, so deep nodes fire
        rng = random.Random(34)
        for _ in range(30):
            sentences = []
            for _ in range(10):
                words = [
                    "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
                    for _ in range(rng.randint(1, 6))
                ]
                sentences.append((words, [rng.choice("XY") for _ in words]))
            objects = [o for s in sentences for o in reference_make_tag_objects(*s)]
            root = new_root()
            nodes = [root]
            for _ in range(rng.randint(1, 40)):
                obj = rng.choice(objects)
                fields = [f for f, value in enumerate(obj) if value is not None]
                picked = rng.sample(fields, rng.randint(1, min(3, len(fields))))
                tests = tuple(sorted((f, obj[f]) for f in picked))
                rule = Rule(tests, rng.choice("XYZ"))
                nodes.append(insert_exception(rng.choice(nodes), rule))
            compiled = compile_chain(root.except_child)
            for words, tags in sentences:
                cols = context_columns(words, tags)
                for i, obj in enumerate(reference_make_tag_objects(words, tags)):
                    assert run_chain(compiled, cols, i) == expected_conclusion(root, obj)

    def test_short_chains_skip_the_index(self):
        rng = random.Random(33)
        root = wide_tree(rng, 7, 0)
        compiled = compile_chain(root.except_child)
        assert compiled[1] is None

    def test_index_candidates_keep_chain_order(self):
        root = new_root()
        for i in range(10):
            tests = ((4, "w"), (7, f"t{i}"))
            insert_exception(root, Rule(tests, f"c{i}"))
        insert_exception(root, Rule(((4, "w"),), "fallback"))
        compiled = compile_chain(root.except_child)
        rng = random.Random(0)
        obj = random_object(rng)._replace(word="w", next1Tag="t6")
        off = random_object(rng)._replace(word="w", next1Tag="none-such")
        cols = tuple(list(column) for column in zip(obj, off))
        assert run_chain(compiled, cols, 0) == "c6"
        assert run_chain(compiled, cols, 1) == "fallback"


class TestTagger:
    def test_reproduces_gold_on_its_training_corpus(self, toy, toy_model):
        tagger = Tagger(toy_model)
        for sentence in toy.sentences:
            words = [t.word for t in sentence]
            assert tagger.tag_sentence(words) == [t.tag for t in sentence]

    def test_bare_root_keeps_the_first_guesses(self, toy_model):
        bare = Model(lexicon=toy_model.lexicon, tree=new_root())
        tagger = Tagger(bare)
        initial = tagger.initial.tag_sentence(["the", "team", "works"])
        assert tagger.tag_sentence(["the", "team", "works"]) == initial

    def test_first_guess_without_a_layer1_node_is_kept(self, example_tree_text):
        tree = parse_tree(example_tree_text)
        lexicon = Lexicon(
            word_tags={"the": "DT", "plan": "NN", "works": "VB"},
            suffix_tags={n: {} for n in (2, 3, 4, 5)},
            numeric_tag="CD",
            capitalized_tag="NNP",
            lowercase_tag="NN",
        )
        tagger = Tagger(Model(lexicon=lexicon, tree=tree))
        tags = tagger.tag_sentence(["the", "plan", "works"])
        assert tags[0] == "DT"

    def test_rejects_a_conditional_root(self, toy_model):
        bad_root = Node(Rule(((4, "x"),), "NN"), 0)
        with pytest.raises(ValueError):
            Tagger(Model(lexicon=toy_model.lexicon, tree=bad_root))

    def test_tag_sentences_builds_an_aligned_corpus(self, toy_model):
        tagger = Tagger(toy_model)
        out = tagger.tag_sentences([["the", "team", "works"], ["she", "walks"]])
        assert [[t.word for t in s] for s in out.sentences] == [
            ["the", "team", "works"],
            ["she", "walks"],
        ]
        for sentence in out.sentences:
            for token in sentence:
                assert token.tag


class TestPersistence:
    def test_round_trip_preserves_everything(self, toy_model, tmp_path):
        save_model(toy_model, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        assert serialize_tree(loaded.tree) == serialize_tree(toy_model.tree)
        assert loaded.lexicon == toy_model.lexicon
        assert loaded.mode == toy_model.mode
        assert loaded.separator == toy_model.separator
        assert loaded.regex_rules == toy_model.regex_rules
        assert loaded.audit == toy_model.audit

    def test_save_load_save_is_byte_stable(self, toy_model, tmp_path):
        save_model(toy_model, tmp_path / "a")
        save_model(load_model(tmp_path / "a"), tmp_path / "b")
        for name in (TREE_FILE, LEXICON_FILE, META_FILE, AUDIT_FILE):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_meta_file_contents(self, toy_model, tmp_path):
        save_model(toy_model, tmp_path / "m")
        meta = json.loads((tmp_path / "m" / META_FILE).read_text())
        assert meta["format"] == 1
        assert meta["mode"] == toy_model.mode
        assert meta["separator"] == "/"
        assert meta["regex_rules"] == [list(r) for r in toy_model.regex_rules]

    def test_audit_file_only_written_when_present(self, toy_model, tmp_path):
        quiet = Model(lexicon=toy_model.lexicon, tree=toy_model.tree)
        save_model(quiet, tmp_path / "m")
        assert not (tmp_path / "m" / AUDIT_FILE).exists()
        assert load_model(tmp_path / "m").audit == ()

    def test_missing_files_raise_model_format_error(self, toy_model, tmp_path):
        save_model(toy_model, tmp_path / "m")
        for name in (TREE_FILE, LEXICON_FILE, META_FILE):
            broken = tmp_path / f"broken-{name}"
            save_model(toy_model, broken)
            (broken / name).unlink()
            with pytest.raises(ModelFormatError):
                load_model(broken)

    def test_malformed_meta_raises_model_format_error(self, toy_model, tmp_path):
        save_model(toy_model, tmp_path / "m")
        meta_path = tmp_path / "m" / META_FILE
        meta_path.write_text("{not json")
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "m")
        meta_path.write_text(json.dumps({"format": 2}))
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "m")
        # True == 1 and 1.0 == 1 in Python, but neither is format 1
        for fmt in (True, 1.0):
            meta_path.write_text(json.dumps({"format": fmt}))
            with pytest.raises(ModelFormatError):
                load_model(tmp_path / "m")

    def test_failed_save_creates_no_directory(self, toy_model, tmp_path):
        # training rejects such words early; hand-built lexicons still get here
        lexicon = Lexicon(
            word_tags={"%%x": "NN"},
            suffix_tags={},
            numeric_tag="CD",
            capitalized_tag="NNP",
            lowercase_tag="NN",
        )
        with pytest.raises(ValueError, match="%%x"):
            save_model(Model(lexicon=lexicon, tree=toy_model.tree), tmp_path / "m")
        assert not (tmp_path / "m").exists()
