import json
import random
import re
import sys
from dataclasses import replace
from itertools import repeat
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

import rippletag.tagger as tagger_module
from rippletag.corpus import check_separator, check_tag
from rippletag.initial_tagger import MAX_RULE_PARENS, MODE_ENGLISH, InitialTaggerOptions
from rippletag.lexicon import Lexicon
from rippletag.scrdr import (
    FIELD_INDEX,
    Node,
    Rule,
    block_columns,
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
    conclude,
    count_tagger_json_loads,
    deep_tree_text,
    random_object,
    random_rule,
    random_tree,
    reference_evaluate,
    reference_make_tag_objects,
    reference_tag_words,
    tag_block_by_sentence,
    trees_equal,
)


# Labels every compiled node with its conclusion, as ``Tagger`` does.
CONCLUSION = attrgetter("rule.conclusion")

# The default of every row that ``walk_rows`` walks: no label is it.
_NONE_FIRED = object()


def walk_rows(compiled, cols):
    """One ``run_chain`` call over every row; None where no node fires."""
    walked = run_chain(compiled, cols, repeat(_NONE_FIRED, len(cols[0])))
    return [None if label is _NONE_FIRED else label for label in walked]


def expected_conclusion(root, obj):
    """What the compiled walk should return, per the plain tree walk."""
    last, _ = reference_evaluate(root, obj)
    return None if last is root else last.rule.conclusion


def assert_walks_like_the_reference(root, compiled, objects):
    """The column walk of token i equals the plain walk of objects[i]."""
    cols = tuple(list(column) for column in zip(*objects))
    for obj, walked in zip(objects, walk_rows(compiled, cols)):
        assert walked == expected_conclusion(root, obj)


def assert_names_the_deciding_node(root, compiled, objects):
    """The node-labelled walk of token i returns ``evaluate``'s node.

    Where only the root fires, the walk returns None.  Returns what
    the walk returned, token by token.
    """
    cols = tuple(list(column) for column in zip(*objects))
    got = walk_rows(compiled, cols)
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
            compiled = compile_chain(root, CONCLUSION)
            objects = [random_object(rng) for _ in range(50)]
            assert_walks_like_the_reference(root, compiled, objects)

    def test_node_labels_name_the_node_evaluate_returns(self):
        rng = random.Random(35)
        for _ in range(40):
            root = random_tree(rng, rng.randint(1, 30))
            compiled = compile_chain(root, lambda node: node)
            objects = [random_object(rng) for _ in range(50)]
            assert_names_the_deciding_node(root, compiled, objects)

    def test_node_labels_on_a_tree_deeper_than_the_recursion_limit(self):
        depth = sys.getrecursionlimit() + 200
        root = parse_tree(deep_tree_text(depth))
        compiled = compile_chain(root, lambda node: node)
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
            compiled = compile_chain(root, CONCLUSION)
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
            compiled = compile_chain(root, CONCLUSION)
            cols = block_columns(
                [word for words, _ in sentences for word in words],
                [tag for _, tags in sentences for tag in tags],
                [len(words) for words, _ in sentences],
            )
            # row r of the window is token r of the block
            walked = walk_rows(compiled, cols)
            assert walked == [expected_conclusion(root, obj) for obj in objects]

    def test_chains_of_every_length_match_the_plain_walk(self):
        rng = random.Random(33)
        for width in (1, 2, 7, 8, 9, 31, 45):
            root = wide_tree(rng, width, rng.randint(0, 10))
            compiled = compile_chain(root, CONCLUSION)
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
        parent.exceptions.append(bad)
        with pytest.raises(ValueError, match="always-true"):
            compile_chain(root, CONCLUSION)

    def test_earliest_entry_wins_across_first_test_fields(self):
        # the entry that fires first in chain order wins, whichever
        # field its first test reads
        root = new_root()
        insert_exception(root, Rule(((4, "w"), (7, "t")), "late-word"))
        insert_exception(root, Rule(((1, "p"),), "prev2"))
        insert_exception(root, Rule(((4, "w"),), "word"))
        insert_exception(root, Rule(((12, "abcd"),), "suffix"))
        compiled = compile_chain(root, CONCLUSION)
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
        got = walk_rows(compiled, cols)
        assert got == ["prev2", "late-word", "word", "suffix", None]

    def test_index_candidates_keep_chain_order(self):
        root = new_root()
        for i in range(10):
            tests = ((4, "w"), (7, f"t{i}"))
            insert_exception(root, Rule(tests, f"c{i}"))
        insert_exception(root, Rule(((4, "w"),), "fallback"))
        compiled = compile_chain(root, CONCLUSION)
        rng = random.Random(0)
        obj = random_object(rng)._replace(word="w", next1Tag="t6")
        off = random_object(rng)._replace(word="w", next1Tag="none-such")
        cols = tuple(list(column) for column in zip(obj, off))
        got = walk_rows(compiled, cols)
        assert got[0] == "c6"
        assert got[1] == "fallback"


def chain_shapes(compiled):
    """The shape of every compiled chain, depth first, in stored order."""
    shapes = []
    stack = [compiled]
    while stack:
        chain = stack.pop()
        if chain is None:
            continue
        field_idx, body = chain
        if field_idx is not None:
            shapes.append("dispatch")
            subs = [sub for _, sub in body.values()]
        else:
            shapes.append("indexed")
            _, tables = body
            subs = [e[3] for _, _, t in tables for es in t.values() for e in es]
        stack += reversed(subs)
    return shapes


F = FIELD_INDEX


def grid_objects(**choices):
    """One object per combination of the given field values."""
    base = random_object(random.Random(37))
    objects = [base]
    for name, values in choices.items():
        objects = [obj._replace(**{name: v}) for obj in objects for v in values]
    return objects


def assert_both_labels_walk_like_the_reference(root, objects):
    """Conclusion and node labels both agree with the plain walks."""
    assert_walks_like_the_reference(
        root, compile_chain(root, CONCLUSION), objects
    )
    assert_names_the_deciding_node(
        root, compile_chain(root, lambda node: node), objects
    )


class TestChainShapes:
    def test_the_toy_models_seed_layer_is_a_dispatch_table(self, toy_model):
        seeds = [node.rule.tests for node in toy_model.tree.exceptions]
        field_idx, table = compile_chain(toy_model.tree, CONCLUSION)
        assert field_idx == F["currentTag"]
        assert sorted(table) == sorted(value for ((_, value),) in seeds)

    def test_a_first_entry_with_a_second_test_keeps_the_chain_indexed(self):
        root = new_root()
        insert_exception(root, Rule(((F["currentTag"], "X"),), "A"))
        insert_exception(root, Rule(((F["currentTag"], "Y"), (F["word"], "w")), "B"))
        insert_exception(root, Rule(((F["currentTag"], "Y"),), "C"))
        assert chain_shapes(compile_chain(root, CONCLUSION)) == ["indexed"]
        objects = grid_objects(currentTag=["X", "Y", "Z"], word=["w", "v"])
        assert_both_labels_walk_like_the_reference(root, objects)

    def test_a_later_entry_for_a_value_never_fires(self):
        root = new_root()
        insert_exception(root, Rule(((F["currentTag"], "X"),), "A"))
        insert_exception(root, Rule(((F["currentTag"], "Y"),), "B"))
        late = insert_exception(
            root, Rule(((F["currentTag"], "X"), (F["word"], "w")), "C")
        )
        insert_exception(late, Rule(((F["prev1Tag"], "p"),), "D"))
        compiled = compile_chain(root, CONCLUSION)
        assert chain_shapes(compiled) == ["dispatch"]
        objects = grid_objects(
            currentTag=["X", "Y", "Z"], word=["w", "v"], prev1Tag=["p", None]
        )
        assert_both_labels_walk_like_the_reference(root, objects)
        cols = tuple(list(column) for column in zip(*objects))
        assert set(walk_rows(compiled, cols)) == {"A", "B", None}

    def test_a_dispatch_table_under_an_indexed_chain(self):
        root = new_root()
        top = insert_exception(
            root, Rule(((F["word"], "w"), (F["next1Tag"], "t")), "A")
        )
        insert_exception(root, Rule(((F["prev1Tag"], "p"),), "B"))
        insert_exception(top, Rule(((F["currentTag"], "X"),), "C"))
        inner = insert_exception(top, Rule(((F["currentTag"], "Y"),), "D"))
        insert_exception(inner, Rule(((F["suffix2"], "ab"),), "E"))
        compiled = compile_chain(root, CONCLUSION)
        assert chain_shapes(compiled) == ["indexed", "dispatch", "dispatch"]
        objects = grid_objects(
            word=["w", "v"],
            next1Tag=["t", None],
            prev1Tag=["p", "q"],
            currentTag=["X", "Y", "Z"],
            suffix2=["ab", None],
        )
        assert_both_labels_walk_like_the_reference(root, objects)

    def test_an_indexed_chain_under_a_dispatch_table(self):
        root = new_root()
        seed = insert_exception(root, Rule(((F["currentTag"], "X"),), "A"))
        insert_exception(root, Rule(((F["currentTag"], "Y"),), "B"))
        insert_exception(seed, Rule(((F["word"], "w"), (F["prev1Tag"], "p")), "C"))
        inner = insert_exception(seed, Rule(((F["suffix2"], "ab"),), "D"))
        insert_exception(inner, Rule(((F["next1Word"], "n"), (F["word"], "w")), "E"))
        compiled = compile_chain(root, CONCLUSION)
        assert chain_shapes(compiled) == ["dispatch", "indexed", "indexed"]
        objects = grid_objects(
            currentTag=["X", "Y", "Z"],
            word=["w", "v"],
            prev1Tag=["p", None],
            suffix2=["ab", "cd"],
            next1Word=["n", None],
        )
        assert_both_labels_walk_like_the_reference(root, objects)

    def test_dispatch_tables_deeper_than_the_recursion_limit(self):
        depth = sys.getrecursionlimit() + 200
        root = new_root()
        node = root
        for k in range(1, depth + 1):
            node = insert_exception(node, Rule(((F["prev1Word"], "x"),), f"C{k}"))
        compiled = compile_chain(root, lambda node: node)
        assert chain_shapes(compiled) == ["dispatch"] * depth
        objects = grid_objects(prev1Word=["x", "y", None])
        got = assert_names_the_deciding_node(root, compiled, objects)
        assert [None if n is None else n.level for n in got] == [depth, None, None]


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


@given(_trees(), st.lists(st.lists(_WORDS, min_size=1, max_size=7), max_size=6))
def test_tagger_walks_a_parsed_tree_like_the_reference(root, sentences):
    tree = parse_tree(serialize_tree(root))
    tagger = Tagger(Model(lexicon=_LEXICON, tree=tree))
    for words in sentences:
        assert tagger.tag_sentence(words) == reference_tag_words(tagger, words)


def test_a_tree_nested_deeper_than_the_recursion_limit_tags_like_evaluate():
    depth = sys.getrecursionlimit() + 200
    tagger = Tagger(Model(lexicon=_LEXICON, tree=parse_tree(deep_tree_text(depth))))
    words = ["x", "w1", "x", f"w{depth}", "x", "x", "w7", "w7"]
    tags = tagger.tag_sentence(words)
    assert tags == reference_tag_words(tagger, words)
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


# Values for random trees whose rules often fire: the words of the
# blocks, their suffixes ("ab" of "bab", "bab" of "abab") and tags.  The
# word "zz" has no lexicon entry.
_BLOCK_POOL = ("a", "b", "ab", "bab", "X", "Y")
_BLOCK_WORDS = ["a", "b", "ab", "bab", "abab", "zz"]
_BLOCK_LEXICON = Lexicon(
    word_tags={"a": "X", "b": "Y", "ab": "X", "bab": "Y", "abab": "X"},
    suffix_tags={n: {} for n in (2, 3, 4, 5)},
    numeric_tag="X",
    capitalized_tag="X",
    lowercase_tag="Y",
)


@st.composite
def _blocks(draw):
    """Up to 8 sentences of up to 4 words each.

    Blank and one-word sentences are common, and adjacent sentences
    often share their edge word.
    """
    sentences = draw(
        st.lists(st.lists(st.sampled_from(_BLOCK_WORDS), max_size=4), max_size=8)
    )
    for before, after in zip(sentences, sentences[1:]):
        if before and after and draw(st.booleans()):
            after[0] = before[-1]
    return sentences


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), _blocks())
def test_a_block_tags_each_sentence_like_the_plain_walk(seed, n_rules, sentences):
    tree = random_tree(random.Random(seed), n_rules, _BLOCK_POOL)
    tagger = Tagger(Model(lexicon=_BLOCK_LEXICON, tree=tree))
    want = [reference_tag_words(tagger, words) for words in sentences]
    assert tag_block_by_sentence(tagger, sentences) == want
    assert [tagger.tag_sentence(words) for words in sentences] == want


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), _blocks())
def test_a_flat_block_tags_like_its_sentences_one_by_one(seed, n_rules, sentences):
    # one tag per token, in block order; empty sentences add none
    tree = random_tree(random.Random(seed), n_rules, _BLOCK_POOL)
    tagger = Tagger(Model(lexicon=_BLOCK_LEXICON, tree=tree))
    flat = [word for words in sentences for word in words]
    lengths = [len(words) for words in sentences]
    one_by_one = [tag for words in sentences for tag in tagger.tag_sentence(words)]
    assert tagger.tag_block(flat, lengths) == one_by_one


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), _blocks())
def test_one_walk_over_a_padded_block_concludes_like_evaluate(
    seed, n_rules, sentences
):
    # the first guesses are the defaults, and row r is token r of the block
    rng = random.Random(seed)
    root = random_tree(rng, n_rules, _BLOCK_POOL)
    guesses = [[rng.choice("XY") for _ in words] for words in sentences]
    flat_guesses = [tag for tags in guesses for tag in tags]
    cols = block_columns(
        [word for words in sentences for word in words],
        flat_guesses,
        [len(words) for words in sentences],
    )
    compiled = compile_chain(root, CONCLUSION)
    walked = list(run_chain(compiled, cols, flat_guesses))
    want = []
    for words, tags in zip(sentences, guesses):
        objects = reference_make_tag_objects(words, tags)
        want += [conclude(root, obj) or obj.currentTag for obj in objects]
    assert walked == want


def test_no_context_reaches_across_a_sentence_edge():
    # each exception tests a value that only the neighbouring sentence
    # holds, one or two tokens away, so any leak changes a tag
    lexicon = Lexicon(
        word_tags={"a": "A", "b": "B", "c": "C", "d": "D"},
        suffix_tags={n: {} for n in (2, 3, 4, 5)},
        numeric_tag="N",
        capitalized_tag="N",
        lowercase_tag="N",
    )
    root = new_root()
    a = insert_exception(root, Rule(((FIELD_INDEX["currentTag"], "A"),), "X"))
    insert_exception(a, Rule(((FIELD_INDEX["next1Word"], "c"),), "LEAK"))
    c = insert_exception(root, Rule(((FIELD_INDEX["currentTag"], "C"),), "Z"))
    insert_exception(c, Rule(((FIELD_INDEX["prev2Tag"], "A"),), "LEAK"))
    d = insert_exception(root, Rule(((FIELD_INDEX["currentTag"], "D"),), "Y"))
    insert_exception(d, Rule(((FIELD_INDEX["prev2Tag"], "A"),), "LEAK"))
    tagger = Tagger(Model(lexicon=lexicon, tree=root))
    # as one sentence, "a" sees "c" next and "d" sees "a" two back
    assert tagger.tag_sentence(["b", "a", "c", "d"]) == ["B", "LEAK", "Z", "LEAK"]
    # one slot between the sentences would let "c" see "a" two back
    assert tagger.tag_sentence(["b", "a", "x", "c", "d"])[3] == "LEAK"
    apart = [["B", "X"], ["Z", "Y"]]
    assert tag_block_by_sentence(tagger, [["b", "a"], ["c", "d"]]) == apart
    assert tag_block_by_sentence(tagger, [["b", "a"], [], ["c", "d"]]) == [
        apart[0],
        [],
        apart[1],
    ]
    assert tag_block_by_sentence(tagger, [["a"], ["c"], ["d"]]) == [["X"], ["Z"], ["Y"]]


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

    def test_tag_sentences_tags_in_blocks(self, toy, toy_model, monkeypatch):
        calls = []

        class Counting(Tagger):
            def tag_block(self, words, lengths):
                calls.append(len(lengths))
                return super().tag_block(words, lengths)

        monkeypatch.setattr(tagger_module, "TAG_BLOCK_LINES", 3)
        tagger = Counting(toy_model)
        sentences = [[t.word for t in s] for s in toy.sentences[:7]]
        out = tagger.tag_sentences(sentences)
        assert calls == [3, 3, 1]
        want = [reference_tag_words(tagger, words) for words in sentences]
        assert [[t.tag for t in s] for s in out.sentences] == want

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

    def test_hand_edited_files_load_to_the_same_model(self, toy_model, tmp_path):
        # a tree value with a quote and a conclusion with a backslash,
        # which model.rdr writes escaped
        tree = parse_tree(serialize_tree(toy_model.tree))
        insert_exception(tree, Rule(((FIELD_INDEX["word"], 'odd"one'),), "a\\b"))
        model = replace(toy_model, tree=tree)
        save_model(model, tmp_path)
        saved = load_model(tmp_path)
        lex = tmp_path / LEXICON_FILE
        lines = lex.read_text().splitlines(keepends=True)
        suffixes = [line for line in lines if line.startswith("%%S")]
        others = [line for line in lines if not line.startswith("%%S")]
        assert suffixes and len(others) > 3
        # the words before the suffix entries, with blank lines between
        lex.write_text("".join([*others[:3], "\n", *others[3:], "\t\n", *suffixes]))
        rdr = tmp_path / TREE_FILE
        rdr.write_text(rdr.read_text().replace("\n", "\n\n"))
        assert 'odd\\"one' in rdr.read_text()
        edited = load_model(tmp_path)
        assert edited.lexicon == model.lexicon
        for loaded in (edited, saved):
            assert trees_equal(loaded.tree, model.tree)
            assert replace(loaded, lexicon=model.lexicon, tree=model.tree) == model
        assert list(edited.lexicon.word_tags.items()) == list(
            saved.lexicon.word_tags.items()
        )
        assert [list(t.items()) for t in edited.lexicon.suffix_tags.values()] == [
            list(t.items()) for t in saved.lexicon.suffix_tags.values()
        ]

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

    def test_a_malformed_audit_line_fails_only_when_the_audit_is_read(
        self, toy, toy_model, tmp_path
    ):
        save_model(toy_model, tmp_path / "intact")
        save_model(toy_model, tmp_path / "broken")
        with open(tmp_path / "broken" / AUDIT_FILE, "a", encoding="utf-8") as f:
            f.write('{"event": "insert",\n')
        words = [[t.word for t in s] for s in toy.sentences]
        intact = load_model(tmp_path / "intact")
        broken = load_model(tmp_path / "broken")
        assert tag_block_by_sentence(Tagger(broken), words) == tag_block_by_sentence(
            Tagger(intact), words
        )
        with pytest.raises(ModelFormatError, match=re.escape(AUDIT_FILE)):
            broken.audit
        assert intact.audit == toy_model.audit

    def test_loading_to_tag_parses_only_the_meta_file(
        self, toy_model, tmp_path, monkeypatch
    ):
        save_model(toy_model, tmp_path / "m")
        loads = count_tagger_json_loads(monkeypatch)
        Tagger(load_model(tmp_path / "m"))
        loads.assert_called_once_with((tmp_path / "m" / META_FILE).read_text())

    def test_a_hand_edited_audit_is_saved_as_it_was_read(self, toy_model, tmp_path):
        save_model(toy_model, tmp_path / "a")
        audit_path = tmp_path / "a" / AUDIT_FILE
        lines = audit_path.read_text(encoding="utf-8").splitlines(keepends=True)
        spaced = [line.replace(": ", " :  ").replace(", ", " ,") for line in lines]
        assert spaced != lines
        audit_path.write_text("".join([spaced[0], "\n", *spaced[1:]]))
        loaded = load_model(tmp_path / "a")
        assert loaded.audit == toy_model.audit
        save_model(loaded, tmp_path / "b")
        assert (tmp_path / "b" / AUDIT_FILE).read_bytes() == audit_path.read_bytes()

    def test_a_replaced_audit_text_is_parsed_afresh(self, toy_model):
        cached = toy_model.audit
        assert cached
        replaced = replace(toy_model, audit_text='{"event": "begin"}\n\n')
        assert replaced.audit == ({"event": "begin"},)
        assert replace(toy_model, audit_text="").audit == ()
        assert toy_model.audit is cached

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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("separator", " "),
            ("separator", ""),
            ("separator", 5),
            ("mode", "x"),
            ("regex_rules", [["a(", "NN"]]),
            ("regex_rules", [["a", 5]]),
        ],
    )
    def test_settings_errors_are_those_of_the_option_types(
        self, toy_model, tmp_path, key, value
    ):
        save_model(toy_model, tmp_path)
        meta_path = tmp_path / META_FILE
        meta = {**json.loads(meta_path.read_text()), key: value}
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError) as expected:
            check_separator(meta["separator"])
            InitialTaggerOptions(meta["mode"], tuple(map(tuple, meta["regex_rules"])))
        with pytest.raises(ModelFormatError) as got:
            load_model(tmp_path)
        assert str(got.value) == f"{meta_path}: {expected.value}"
        assert repr(key) in str(got.value)

    @pytest.mark.parametrize(
        "name, separator, tag",
        [
            (TREE_FILE, "/", "N N"),
            (TREE_FILE, "/", "a/b"),
            (TREE_FILE, "::", ":N"),
            (LEXICON_FILE, "/", "a/b"),
            (LEXICON_FILE, "::", ":N"),
        ],
    )
    def test_a_tag_that_cannot_be_written_fails_to_load(
        self, toy_model, tmp_path, name, separator, tag
    ):
        if name == TREE_FILE:
            tree = parse_tree(serialize_tree(toy_model.tree))
            node = tree.exceptions[0]
            node.rule = node.rule._replace(conclusion=tag)
            model = replace(toy_model, tree=tree, separator=separator)
        else:
            word = next(iter(toy_model.lexicon.word_tags))
            word_tags = {**toy_model.lexicon.word_tags, word: tag}
            lexicon = replace(toy_model.lexicon, word_tags=word_tags)
            model = replace(toy_model, lexicon=lexicon, separator=separator)
        save_model(model, tmp_path)
        with pytest.raises(ModelFormatError) as got:
            load_model(tmp_path)
        with pytest.raises(ValueError) as expected:
            check_tag(tag, separator)
        assert str(got.value) == f"{tmp_path / name}: {expected.value}"

    @staticmethod
    def nested_rules(depth):
        """A rule nesting ``depth`` groups around ``^a``, then 600 rules that
        push it out of ``re``'s cache of compiled patterns."""
        nested = "(?:" * depth + "^a" + ")" * depth
        return ((nested, "NN"),) + tuple((f"^x{i}", "NN") for i in range(600))

    def test_a_rule_nested_near_the_recursion_limit_fails_to_load(
        self, toy_model, tmp_path
    ):
        # the deepest nesting that compiles here; ``re`` caches it, so a
        # check that compiles it again just finds it there, while the
        # tagger compiles it afresh a few frames deeper
        depth, too_deep = 1, sys.getrecursionlimit()
        while too_deep - depth > 1:
            mid = (depth + too_deep) // 2
            try:
                re.compile(self.nested_rules(mid)[0][0])
                depth = mid
            except RecursionError:
                too_deep = mid
        rules = self.nested_rules(depth)
        save_model(replace(toy_model, mode=MODE_ENGLISH, regex_rules=rules), tmp_path)
        with pytest.raises(ModelFormatError, match="bad pattern"):
            Tagger(load_model(tmp_path))

    def test_a_rule_nested_to_the_cap_loads_and_tags(self, toy_model, tmp_path):
        rules = self.nested_rules(MAX_RULE_PARENS)
        save_model(replace(toy_model, mode=MODE_ENGLISH, regex_rules=rules), tmp_path)
        tagger = Tagger(load_model(tmp_path))
        assert tagger.tag_sentence(["aqqz", "x7qqz"]) == ["NN", "NN"]

    def test_a_tagger_refuses_a_rule_past_the_cap(self, toy_model):
        rules = self.nested_rules(MAX_RULE_PARENS + 1)[:1]
        past_the_cap = f"bad pattern .*more than {MAX_RULE_PARENS}"
        with pytest.raises(ValueError, match=past_the_cap):
            Tagger(replace(toy_model, mode=MODE_ENGLISH, regex_rules=rules))

    def test_failed_save_creates_no_directory(self, toy_model, tmp_path):
        # training rejects such words early; hand-built lexicons still get here
        for word, message in [("%%x", "%%x"), ("two words", "empty or with whitespace")]:
            lexicon = Lexicon(
                word_tags={word: "NN"},
                suffix_tags={},
                numeric_tag="CD",
                capitalized_tag="NNP",
                lowercase_tag="NN",
            )
            with pytest.raises(ValueError, match=message):
                save_model(Model(lexicon=lexicon, tree=toy_model.tree), tmp_path / "m")
            assert not (tmp_path / "m").exists()
