import random
import sys
from itertools import chain

import pytest
from hypothesis import example, given, strategies as st

from rippletag.scrdr import (
    FIELD_INDEX,
    FIELD_NAMES,
    Node,
    Rule,
    TagObject,
    TreeFormatError,
    block_columns,
    corpus_columns,
    count_rules,
    evaluate,
    insert_exception,
    iter_nodes,
    layer_census,
    make_tag_objects,
    new_root,
    parse_rule_text,
    parse_tree,
    render_rule,
    serialize_tree,
    truncate,
)

from helpers import (
    POOL,
    conclude,
    deep_tree_text,
    random_object,
    random_rule,
    random_tree,
    ref_matches,
    reference_evaluate,
    reference_iter_nodes,
    reference_make_tag_objects,
    trees_equal,
)


def obj_for(word, **fields):
    values = dict.fromkeys(FIELD_NAMES)
    values.update(word=word, currentTag=fields.pop("currentTag", "X"))
    values.update(fields)
    return TagObject(**values)


# ---------------------------------------------------------------- contexts


def test_context_window_fields():
    words = ["as", "investors", "anticipate", "a", "recovery"]
    tags = ["IN", "NNS", "VB", "DT", "NN"]
    objects = make_tag_objects(words, tags)
    middle = objects[2]
    assert middle.prev2Word == "as" and middle.prev2Tag == "IN"
    assert middle.prev1Word == "investors" and middle.prev1Tag == "NNS"
    assert middle.word == "anticipate" and middle.currentTag == "VB"
    assert middle.next1Word == "a" and middle.next1Tag == "DT"
    assert middle.next2Word == "recovery" and middle.next2Tag == "NN"
    assert (middle.suffix2, middle.suffix3, middle.suffix4) == ("te", "ate", "pate")


def test_context_edges_are_none():
    objects = make_tag_objects(["a", "b"], ["X", "Y"])
    first, last = objects
    assert first.prev1Word is None and first.prev2Tag is None
    assert first.next1Word == "b" and first.next2Word is None
    assert last.next1Tag is None and last.prev1Word == "a"


def test_short_word_suffixes_are_none():
    (only,) = make_tag_objects(["ab"], ["X"])
    assert only.suffix2 is None  # a 2-char word has no proper 2-suffix
    (three,) = make_tag_objects(["abc"], ["X"])
    assert three.suffix2 == "bc" and three.suffix3 is None


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        make_tag_objects(["a"], ["X", "Y"])
    with pytest.raises(ValueError):
        block_columns(["a", "b"], ["X"], [2])
    with pytest.raises(ValueError):
        block_columns(["a", "a", "b"], ["X", "Y"], [1, 2])
    with pytest.raises(ValueError):
        block_columns(["a", "a", "b"], ["X", "Y", "Z"], [1, 1])
    with pytest.raises(ValueError):
        block_columns(["a"], ["X"], [1, 1])
    with pytest.raises(ValueError):
        corpus_columns(["a", "a", "b"], ["X", "X"], [1, 2])


def flat_block(sentences, data):
    """A block's flat words and drawn tags, its lengths and reference objects."""
    words, tags, want = [], [], []
    for sentence in sentences:
        n = len(sentence)
        drawn = data.draw(st.lists(st.sampled_from("XY"), min_size=n, max_size=n))
        words += sentence
        tags += drawn
        want += reference_make_tag_objects(sentence, drawn)
    return words, tags, [len(sentence) for sentence in sentences], want


def rows_of(columns):
    return [TagObject(*row) for row in zip(*columns)]


@given(
    st.lists(
        st.lists(st.text("abc", min_size=1, max_size=6), min_size=1, max_size=4),
        min_size=1,
        max_size=6,
    ),
    st.data(),
)
def test_corpus_columns_are_the_reference_objects_of_all_sentences(sentences, data):
    # up to four tokens per sentence, so one-token sentences and the
    # windows that reach across no edge, one edge and both are common
    words, tags, lengths, want = flat_block(sentences, data)
    columns = corpus_columns(words, tags, lengths)
    assert len(columns) == len(FIELD_NAMES)
    assert all(type(column) is list for column in columns)
    assert rows_of(columns) == want


def test_corpus_columns_keep_one_token_sentences_apart():
    columns = corpus_columns(["a", "bcd", "e"], ["X", "Y", "Z"], [1, 1, 1])
    row = TagObject(*(column[1] for column in columns))
    assert row == reference_make_tag_objects(["bcd"], ["Y"])[0]
    assert row.prev1Word is None and row.next1Word is None


def test_corpus_columns_share_the_suffixes_of_one_word():
    # two equal words that are separate string objects, in two sentences
    first, second = "".join(["walk", "ed"]), "".join(["wal", "ked"])
    assert first is not second
    columns = corpus_columns([first, "x", "y", second], ["V", "X", "Y", "V"], [2, 2])
    for n in (2, 3, 4):
        column = columns[FIELD_INDEX[f"suffix{n}"]]
        assert column[0] == "walked"[-n:]
        assert column[0] is column[3]


@given(st.lists(st.text("abcdefg", min_size=1, max_size=6), min_size=1, max_size=9))
def test_context_objects_mirror_the_sentence(words):
    tags = [f"T{i % 3}" for i in range(len(words))]
    objects = make_tag_objects(words, tags)
    assert [o.word for o in objects] == words
    assert [o.currentTag for o in objects] == tags
    for i, o in enumerate(objects):
        assert o.prev1Word == (words[i - 1] if i >= 1 else None)
        assert o.next2Tag == (tags[i + 2] if i + 2 < len(words) else None)
        for n, suffix in ((2, o.suffix2), (3, o.suffix3), (4, o.suffix4)):
            assert suffix == (words[i][-n:] if len(words[i]) > n else None)


@given(
    st.lists(
        st.lists(st.text("abc", min_size=1, max_size=6), max_size=6),
        min_size=1,
        max_size=5,
    ),
    st.data(),
)
def test_columns_and_objects_equal_the_reference_objects(sentences, data):
    # words of 1-6 letters put every suffix None rule at every position;
    # blocks of one sentence and of several, empty sentences among them
    words, tags, lengths, want = flat_block(sentences, data)
    start = 0
    for sentence, n in zip(sentences, lengths):
        objects = make_tag_objects(sentence, tags[start : start + n])
        assert objects == want[start : start + n]
        assert all(type(o) is TagObject for o in objects)
        start += n
    columns = block_columns(words, tags, lengths)
    assert len(columns) == len(FIELD_NAMES)
    # row r is token r: no row lies between two sentences
    assert all(len(column) == len(words) for column in columns)
    assert rows_of(columns) == want


@example([])
@example([[], ["a"], [], [], ["bc"], ["d", "e"], []])
@example([["a", "b"], ["c"], ["d"], ["e", "f"]])
@example([["a"], ["b", "c", "d", "e"], ["f"]])
@given(
    st.lists(
        st.lists(st.sampled_from(["a", "bc", "def", "ghij", "klmno"]), max_size=4),
        max_size=6,
    ),
)
def test_block_columns_of_any_block_are_the_reference_objects(sentences):
    # blocks of 0-6 sentences of 0-4 tokens each, so empty and one-token
    # sentences lead, trail and stand side by side; every word and tag
    # is distinct, so a cell read from across a sentence edge shows
    words = [f"{word}{r}" for r, word in enumerate(chain.from_iterable(sentences))]
    tags = [f"T{r}" for r in range(len(words))]
    lengths = [len(sentence) for sentence in sentences]
    want, start = [], 0
    for n in lengths:
        want += reference_make_tag_objects(
            words[start : start + n], tags[start : start + n]
        )
        start += n
    columns = block_columns(words, tags, lengths)
    assert rows_of(columns) == want
    assert rows_of(corpus_columns(words, tags, lengths)) == rows_of(columns)


def test_block_columns_of_one_sentence_read_its_own_list():
    words = ["walked", "x"]
    columns = block_columns(words, ["V", "X"], [2])
    assert columns[FIELD_INDEX["word"]] is words
    assert columns[FIELD_INDEX["suffix3"]][0] == "ked"


# ---------------------------------------------------------------- evaluation


def test_example_tree_walk(example_tree_text):
    root = parse_tree(example_tree_text)
    obj = make_tag_objects(
        ["as", "investors", "anticipate", "a", "recovery"],
        ["IN", "NNS", "VB", "DT", "NN"],
    )[2]
    result = evaluate(root, obj)
    walked = [render_rule(n.rule) for n in result.path]
    assert walked == [
        'if True then tag = ""',
        'if currentTag == "VB" then tag = "VB"',
        'if prev1Tag == "NNS" then tag = "VBP"',
        'if word == "cut" then tag = "VBN"',
        'if next1Tag == "MD" then tag = "VB"',
        'if word == "respond" and next2Word == "positively" then tag = "VB"',
    ]
    assert result.node is result.path[2]
    assert result.node.rule.conclusion == "VBP"


def test_conclusion_comes_from_last_fired_not_deepest_visited(example_tree_text):
    root = parse_tree(example_tree_text)
    # fires the NN seed and the DT+NN exception, whose own exception fails
    obj = obj_for("old", currentTag="NN", prev1Tag="DT", prev1Word="an", next1Tag="NN")
    assert conclude(root, obj) == "JJ"
    # and with prev1Word "the", the deeper exception wins again
    obj = obj_for("old", currentTag="NN", prev1Tag="DT", prev1Word="the", next1Tag="NN")
    assert conclude(root, obj) == "NN"


def test_nothing_below_root_fires_returns_empty_conclusion(example_tree_text):
    root = parse_tree(example_tree_text)
    obj = obj_for("blue", currentTag="RB")
    result = evaluate(root, obj)
    assert result.node is root
    assert result.node.rule.conclusion == ""
    assert len(result.path) == 4  # root plus the three failed seeds


def test_null_field_never_satisfies_a_test():
    root = new_root()
    insert_exception(root, Rule(((FIELD_INDEX["prev1Tag"], "NNS"),), "VBP"))
    obj = obj_for("go", currentTag="VB")  # prev1Tag is None
    assert evaluate(root, obj).node is root


def test_rule_matches_agrees_with_the_reference():
    rng = random.Random(7)
    pool = POOL[:2]
    outcomes = set()
    for _ in range(3000):
        rule = random_rule(rng, pool)
        obj = random_object(rng, pool, none_rate=0.5)
        outcomes.add(rule.matches(obj))
        assert rule.matches(obj) == ref_matches(rule, obj)
    assert outcomes == {True, False}


def test_root_must_be_always_true():
    with pytest.raises(ValueError):
        evaluate(Node(Rule(((0, "x"),), "NN"), 0), obj_for("w"))


def test_evaluate_matches_reference_on_random_trees():
    rng = random.Random(99)
    for _ in range(60):
        root = random_tree(rng, rng.randint(1, 40))
        for _ in range(40):
            obj = random_object(rng)
            got = evaluate(root, obj)
            want_node, want_path = reference_evaluate(root, obj)
            assert got.node is want_node
            assert got.path == want_path


# ---------------------------------------------------------------- growth


def test_insert_into_empty_slot_then_chain_end():
    root = new_root()
    a = insert_exception(root, Rule(((5, "NN"),), "NN"))
    b = insert_exception(root, Rule(((5, "VB"),), "VB"))
    c = insert_exception(a, Rule(((3, "DT"),), "JJ"))
    d = insert_exception(a, Rule(((3, "IN"),), "NN"))
    assert root.exceptions == [a, b]
    assert a.exceptions == [c, d]
    assert (a.level, b.level, c.level, d.level) == (1, 1, 2, 2)
    assert count_rules(root) == 4
    assert layer_census(root) == {1: 2, 2: 2}


def test_insert_rejects_degenerate_rules():
    root = new_root()
    with pytest.raises(ValueError):
        insert_exception(root, Rule((), "NN"))
    with pytest.raises(ValueError):
        insert_exception(root, Rule(((5, "NN"),), ""))


def test_truncate_drops_deep_levels(example_tree_text):
    root = parse_tree(example_tree_text)
    assert layer_census(root) == {1: 3, 2: 5, 3: 5, 4: 2}
    cut = truncate(root, 2)
    assert layer_census(cut) == {1: 3, 2: 5}
    # original is untouched
    assert layer_census(root)[4] == 2
    # cutting below level 1 leaves just the root
    assert count_rules(truncate(root, 0)) == 0
    # cutting at or past the depth copies everything
    assert trees_equal(truncate(root, 4), root)
    assert trees_equal(truncate(root, 99), root)
    with pytest.raises(ValueError, match="max_level must be >= 0, got -1"):
        truncate(root, -1)


def assert_truncate_keeps_the_shallow_lines(root, levels=None):
    """``truncate(root, k)`` serializes to the lines with at most k tabs.

    Checked for each k in ``levels``, by default every level of the tree.
    """
    lines = serialize_tree(root).splitlines(keepends=True)
    depths = [len(line) - len(line.lstrip("\t")) for line in lines]
    if levels is None:
        levels = range(max(depths) + 1)
    for k in levels:
        kept = [line for line, depth in zip(lines, depths) if depth <= k]
        assert serialize_tree(truncate(root, k)) == "".join(kept)


def test_truncate_keeps_the_shallow_lines_of_random_trees():
    rng = random.Random(7)
    for _ in range(40):
        assert_truncate_keeps_the_shallow_lines(random_tree(rng, rng.randint(1, 40)))


# deeper than the recursion limit, so a recursive walk fails on it
DEEP = sys.getrecursionlimit() + 200


def test_a_tree_deeper_than_the_recursion_limit_is_saved_counted_and_cut():
    text = deep_tree_text(DEEP)
    root = parse_tree(text)
    assert serialize_tree(root) == text
    assert count_rules(root) == 2 * DEEP
    assert layer_census(root) == {level: 2 for level in range(1, DEEP + 1)}
    # the text grows as DEEP squared, so cut at a sample of levels, not all
    levels = [*range(0, DEEP, 97), DEEP - 1, DEEP, DEEP + 1]
    assert_truncate_keeps_the_shallow_lines(root, levels)
    assert trees_equal(truncate(root, DEEP), root)


def test_truncate_changes_conclusions_where_deep_rules_won(example_tree_text):
    root = parse_tree(example_tree_text)
    obj = obj_for(
        "cut", currentTag="VB", prev1Tag="NNS", prev2Tag="IN", next1Word="x"
    )
    assert conclude(root, obj) == "VBD"  # level 4
    assert conclude(truncate(root, 3), obj) == "VBN"
    assert conclude(truncate(root, 2), obj) == "VBP"
    assert conclude(truncate(root, 1), obj) == "VB"
    assert conclude(truncate(root, 0), obj) == ""


# ---------------------------------------------------------------- text form


def test_serialize_layout_is_exact():
    root = new_root()
    nn = insert_exception(root, Rule(((FIELD_INDEX["currentTag"], "NN"),), "NN"))
    insert_exception(
        nn, Rule(((FIELD_INDEX["prev1Tag"], "DT"), (FIELD_INDEX["next1Tag"], "NN")), "JJ")
    )
    insert_exception(root, Rule(((FIELD_INDEX["currentTag"], "VB"),), "VB"))
    assert serialize_tree(root) == (
        'if True then tag = ""\n'
        '\tif currentTag == "NN" then tag = "NN"\n'
        '\t\tif prev1Tag == "DT" and next1Tag == "NN" then tag = "JJ"\n'
        '\tif currentTag == "VB" then tag = "VB"\n'
    )


def test_parse_rule_text_orders_tests_by_field():
    rule = parse_rule_text('if next1Tag == "NN" and prev1Tag == "DT" then tag = "JJ"')
    assert rule.tests == (
        (FIELD_INDEX["prev1Tag"], "DT"),
        (FIELD_INDEX["next1Tag"], "NN"),
    )


def test_escaped_values_round_trip():
    tricky = 'a"b\\c'
    rule = Rule(((FIELD_INDEX["word"], tricky),), 'x"\\')
    text = render_rule(rule)
    assert parse_rule_text(text) == rule


# every character str.splitlines breaks a line at
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@given(st.text(st.characters(blacklist_characters=LINE_BREAKS), min_size=1, max_size=10))
def test_any_line_safe_value_round_trips(value):
    rule = Rule(((4, value),), value)
    assert parse_rule_text(render_rule(rule)) == rule


def test_render_rejects_line_breaks_in_values():
    with pytest.raises(ValueError):
        render_rule(Rule(((4, "a\nb"),), "NN"))
    with pytest.raises(ValueError):
        render_rule(Rule(((4, "ok"),), "N\rN"))


@pytest.mark.parametrize("char", LINE_BREAKS)
def test_render_rejects_every_splitlines_break(char):
    with pytest.raises(ValueError, match="line break"):
        render_rule(Rule(((4, f"a{char}b"),), "NN"))
    with pytest.raises(ValueError, match="line break"):
        render_rule(Rule(((4, "ok"),), f"N{char}"))


@st.composite
def rule_trees(draw):
    values = st.text(
        st.characters(blacklist_categories=("Cs",)) | st.sampled_from('"\\ \t'),
        min_size=1,
        max_size=4,
    )
    root = new_root()
    nodes = [root]
    for _ in range(draw(st.integers(1, 6))):
        parent = draw(st.sampled_from(nodes))
        fields = draw(
            st.lists(st.integers(0, len(FIELD_NAMES) - 1), min_size=1, max_size=3, unique=True)
        )
        tests = tuple(sorted((f, draw(values)) for f in fields))
        nodes.append(insert_exception(parent, Rule(tests, draw(values))))
    return root


@given(rule_trees())
def test_every_serializable_tree_parses_back_equal(root):
    try:
        text = serialize_tree(root)
    except ValueError:
        values = "".join(
            node.rule.conclusion + "".join(v for _, v in node.rule.tests)
            for node in iter_nodes(root)
        )
        assert any(c in values for c in LINE_BREAKS)
        return
    assert trees_equal(parse_tree(text), root)


def test_parse_tree_round_trip(example_tree_text):
    root = parse_tree(example_tree_text)
    assert serialize_tree(root) == example_tree_text
    assert trees_equal(parse_tree(serialize_tree(root)), root)


def test_round_trip_many_random_trees():
    rng = random.Random(2024)
    for _ in range(60):
        root = random_tree(rng, rng.randint(1, 50))
        text = serialize_tree(root)
        again = parse_tree(text)
        assert trees_equal(again, root)
        assert serialize_tree(again) == text
        assert list(iter_nodes(root)) == list(reference_iter_nodes(root))


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty tree"),
        ('if word == "x" then tag = "NN"\n', "root rule"),
        ('if True then tag = "NN"\n', "root rule"),
        ('\tif True then tag = ""\n', "must not be indented"),
        ('if True then tag = ""\nif True then tag = ""\n', "one unindented"),
        ('if True then tag = ""\n\t\tif word == "x" then tag = "N"\n', "jumps"),
        ('if True then tag = ""\n\tif True then tag = "N"\n', "always-true"),
        ('if True then tag = ""\n\tif word == "x" then tag = ""\n', "empty conclusion"),
        ('if True then tag = ""\n\tif word == "x then tag = "N"\n', "column|expected"),
        ('if True then tag = ""\n\tif wrd == "x" then tag = "N"\n', "unknown field"),
        ('if True then tag = ""\n\tif word == "\\x" then tag = "N"\n', "escape"),
        # columns count from the file line's first character, tabs included
        ('if True then tag = ""\n\tif word == x then tag = "N"\n', "'\"' at column 13"),
        (
            'if True then tag = ""\n\tif word == "a" then tag = "N"\n'
            '\t\tif word == x then tag = "N"\n',
            "line 3: expected '\"' at column 14",
        ),
        ('if True then tag = ""\n\tif word == "x then tag = N\n', "unterminated string"),
        ('if True then tag = ""\n\tif word = "x" then tag = "N"\n', "expected 'field =="),
        ('if True then tag = ""\n\tif word == "x" then tag = "N" junk\n', "trailing"),
        (
            'if True then tag = ""\n\tif word == "a" and word == "b" then tag = "N"\n',
            "twice",
        ),
    ],
)
def test_parse_tree_rejects_malformed_text(text, message):
    with pytest.raises(TreeFormatError, match=message):
        parse_tree(text)


def test_iter_nodes_is_serialization_order(example_tree_text):
    root = parse_tree(example_tree_text)
    rendered = [render_rule(n.rule) for n in iter_nodes(root)]
    from_text = [line.strip() for line in example_tree_text.splitlines()]
    assert rendered == from_text
