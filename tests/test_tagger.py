import json
import random
import sys
from operator import attrgetter

import pytest
from hypothesis import given, strategies as st

from rippletag.lexicon import Lexicon
from rippletag.scrdr import (
    FIELD_INDEX,
    Node,
    Rule,
    context_columns,
    evaluate,
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
    deep_tree_text,
    random_object,
    random_rule,
    random_tree,
    reference_evaluate,
    reference_make_tag_objects,
)


# Labels every compiled node with its conclusion, as ``Tagger`` does.
CONCLUSION = attrgetter("rule.conclusion")


def expected_conclusion(root, obj):
    """What the compiled walk should return, per the plain tree walk."""
    last, _ = reference_evaluate(root, obj)
    return None if last is root else last.rule.conclusion


def assert_walks_like_the_reference(root, compiled, objects):
    """The column walk of token i equals the plain walk of objects[i]."""
    cols = tuple(list(column) for column in zip(*objects))
    for i, obj in enumerate(objects):
        assert run_chain(compiled, cols, i) == expected_conclusion(root, obj)


def assert_names_the_deciding_node(root, compiled, objects):
    """The node-labelled walk of token i returns ``evaluate``'s node.

    Where only the root fires, the walk returns None.  Returns what
    the walk returned, token by token.
    """
    cols = tuple(list(column) for column in zip(*objects))
    got = [run_chain(compiled, cols, i) for i in range(len(objects))]
    for obj, walked in zip(objects, got):
        node = evaluate(root, obj).node
        assert walked is (None if node is root else node)
    return got


def wide_tree(rng, top_width, extra):
    """Tree whose top chain has ``top_width`` entries, plus ``extra`` rules."""
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
            compiled = compile_chain(root.except_child, CONCLUSION)
            objects = [random_object(rng) for _ in range(50)]
            assert_walks_like_the_reference(root, compiled, objects)

    def test_node_labels_name_the_node_evaluate_returns(self):
        rng = random.Random(35)
        for _ in range(40):
            root = random_tree(rng, rng.randint(1, 30))
            compiled = compile_chain(root.except_child, lambda node: node)
            objects = [random_object(rng) for _ in range(50)]
            assert_names_the_deciding_node(root, compiled, objects)

    def test_node_labels_on_a_tree_deeper_than_the_recursion_limit(self):
        depth = sys.getrecursionlimit() + 200
        root = parse_tree(deep_tree_text(depth))
        compiled = compile_chain(root.except_child, lambda node: node)
        base = random_object(random.Random(36))._replace(prev1Word="x")
        objects = [
            base._replace(word=word)
            for word in ("w1", f"w{depth // 2}", f"w{depth}", "x", "other")
        ]
        objects += [base._replace(prev1Word=None, word=w) for w in ("w1", "w2")]
        got = assert_names_the_deciding_node(root, compiled, objects)
        levels = [None if node is None else node.level for node in got]
        assert levels == [1, depth // 2, depth, depth, depth, 1, None]

    def test_long_chains_are_indexed_and_still_match(self):
        rng = random.Random(32)
        for _ in range(20):
            root = wide_tree(rng, rng.randint(8, 20), rng.randint(0, 25))
            compiled = compile_chain(root.except_child, CONCLUSION)
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
            compiled = compile_chain(root.except_child, CONCLUSION)
            for words, tags in sentences:
                cols = context_columns(words, tags)
                for i, obj in enumerate(reference_make_tag_objects(words, tags)):
                    assert run_chain(compiled, cols, i) == expected_conclusion(root, obj)

    def test_chains_of_every_length_match_the_plain_walk(self):
        rng = random.Random(33)
        for width in (1, 2, 7, 8, 9, 31, 45):
            root = wide_tree(rng, width, rng.randint(0, 10))
            compiled = compile_chain(root.except_child, CONCLUSION)
            objects = [random_object(rng) for _ in range(60)]
            assert_walks_like_the_reference(root, compiled, objects)

    @pytest.mark.parametrize("width", [1, 7, 8, 20])
    @pytest.mark.parametrize("nested", [False, True])
    def test_always_true_rule_below_the_root_is_rejected(self, width, nested):
        # parse_tree and insert_exception refuse such a rule, so only a
        # hand-built tree can hold one; it ends a chain of `width` entries
        rng = random.Random(width)
        root = new_root()
        parent = insert_exception(root, random_rule(rng)) if nested else root
        chain = [
            insert_exception(parent, random_rule(rng)) for _ in range(width - 1)
        ]
        bad = Node(Rule((), "NN"), parent.level + 1)
        if chain:
            chain[-1].ifnot_child = bad
        else:
            parent.except_child = bad
        with pytest.raises(ValueError, match="always-true"):
            compile_chain(root.except_child, CONCLUSION)

    def test_earliest_entry_wins_across_first_test_fields(self):
        # the entry that fires first in chain order wins, whichever
        # field its first test reads
        root = new_root()
        insert_exception(root, Rule(((4, "w"), (7, "t")), "late-word"))
        insert_exception(root, Rule(((1, "p"),), "prev2"))
        insert_exception(root, Rule(((4, "w"),), "word"))
        insert_exception(root, Rule(((12, "abcd"),), "suffix"))
        compiled = compile_chain(root.except_child, CONCLUSION)
        rng = random.Random(1)
        base = random_object(rng)._replace(
            prev2Tag="p", word="w", next1Tag="x", suffix4="abcd"
        )
        objects = [
            base,
            base._replace(next1Tag="t"),
            base._replace(prev2Tag=None),
            base._replace(prev2Tag=None, word="v"),
            base._replace(prev2Tag=None, word="v", suffix4=None),
        ]
        cols = tuple(list(column) for column in zip(*objects))
        got = [run_chain(compiled, cols, i) for i in range(len(objects))]
        assert got == ["prev2", "late-word", "word", "suffix", None]

    def test_index_candidates_keep_chain_order(self):
        root = new_root()
        for i in range(10):
            tests = ((4, "w"), (7, f"t{i}"))
            insert_exception(root, Rule(tests, f"c{i}"))
        insert_exception(root, Rule(((4, "w"),), "fallback"))
        compiled = compile_chain(root.except_child, CONCLUSION)
        rng = random.Random(0)
        obj = random_object(rng)._replace(word="w", next1Tag="t6")
        off = random_object(rng)._replace(word="w", next1Tag="none-such")
        cols = tuple(list(column) for column in zip(obj, off))
        assert run_chain(compiled, cols, 0) == "c6"
        assert run_chain(compiled, cols, 1) == "fallback"


# Values the property's rules test: words and suffixes the sentences
# hold, tags, and shapes only a hand-edited model file can hold
# (suffixes of the wrong length, a space inside a value, "").
_VALUES = ["a", "b", "ab", "ba", "aab", "bab", "abab", "X", "Y", "a b", "ab ", ""]
_FIELDS = list(FIELD_INDEX.values())
# a few first tests, so that entries share them
_FIRST_TESTS = [
    (FIELD_INDEX["currentTag"], "X"),
    (FIELD_INDEX["word"], "ab"),
    (FIELD_INDEX["prev1Tag"], "Y"),
    (FIELD_INDEX["suffix2"], "ab"),
    (FIELD_INDEX["suffix3"], "bab"),
    (FIELD_INDEX["suffix4"], "X"),
]


@st.composite
def _rules(draw):
    first = draw(st.one_of(st.sampled_from(_FIRST_TESTS), st.tuples(
        st.sampled_from(_FIELDS), st.sampled_from(_VALUES)
    )))
    more = draw(st.dictionaries(
        st.sampled_from(_FIELDS), st.sampled_from(_VALUES), max_size=2
    ))
    more.pop(first[0], None)
    tests = tuple(sorted([first, *more.items()]))
    return Rule(tests, draw(st.sampled_from(["X", "Y", "Z"])))


@st.composite
def _trees(draw):
    """A root chain of 1 to 40 entries, plus rules under random nodes."""
    root = new_root()
    nodes = [root]
    for rule in draw(st.lists(_rules(), min_size=1, max_size=40)):
        nodes.append(insert_exception(root, rule))
    for where, rule in draw(st.lists(st.tuples(st.integers(0, 10**6), _rules()),
                                     max_size=30)):
        nodes.append(insert_exception(nodes[where % len(nodes)], rule))
    return root


_WORDS = st.text("ab", min_size=1, max_size=5)

_LEXICON = Lexicon(
    word_tags={"a": "X", "ab": "Y", "bab": "X", "abab": "Z"},
    suffix_tags={n: {} for n in (2, 3, 4, 5)},
    numeric_tag="Z",
    capitalized_tag="Z",
    lowercase_tag="Y",
)


def evaluated_tags(tagger, words):
    """The tags of ``scrdr.evaluate``, a first guess where only the root fires."""
    tree = tagger.model.tree
    guesses = tagger.initial.tag_sentence(words)
    tags = []
    for obj, guess in zip(reference_make_tag_objects(words, guesses), guesses):
        node = evaluate(tree, obj).node
        tags.append(guess if node is tree else node.rule.conclusion)
    return tags


@given(_trees(), st.lists(st.lists(_WORDS, min_size=1, max_size=7), max_size=6))
def test_tagger_walks_a_parsed_tree_like_the_reference(root, sentences):
    tree = parse_tree(serialize_tree(root))
    tagger = Tagger(Model(lexicon=_LEXICON, tree=tree))
    for words in sentences:
        assert tagger.tag_sentence(words) == evaluated_tags(tagger, words)


def test_a_tree_nested_deeper_than_the_recursion_limit_tags_like_evaluate():
    depth = sys.getrecursionlimit() + 200
    tagger = Tagger(Model(lexicon=_LEXICON, tree=parse_tree(deep_tree_text(depth))))
    words = ["x", "w1", "x", f"w{depth}", "x", "x", "w7", "w7"]
    tags = tagger.tag_sentence(words)
    assert tags == evaluated_tags(tagger, words)
    first = tagger.initial.tag_sentence(words)
    assert tags == [
        first[0], "L1", first[2], f"L{depth}", first[4], f"C{depth}", "L7", first[7]
    ]


def test_a_tree_nested_deeper_than_the_recursion_limit_saves_and_loads(tmp_path):
    text = deep_tree_text(sys.getrecursionlimit() + 200)
    save_model(Model(lexicon=_LEXICON, tree=parse_tree(text)), tmp_path / "m")
    assert (tmp_path / "m" / TREE_FILE).read_text(encoding="utf-8") == text
    loaded = load_model(tmp_path / "m")
    assert serialize_tree(loaded.tree) == text


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

    def test_saving_without_an_audit_removes_the_old_one(self, toy_model, tmp_path):
        assert toy_model.audit
        save_model(toy_model, tmp_path / "m")
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
