"""Fuzzing the text parsers and the model loader.

Any input must either parse or raise the package's own format error;
a bare TypeError, KeyError, IndexError or AttributeError is a bug.
The inputs are built from fragments of the real formats, so that most
of them get past the first check.
"""

import json
import random

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from rippletag.corpus import CorpusParseError, read_tagged_corpus
from rippletag.lexicon import LexiconFormatError, parse_lexicon, serialize_lexicon
from rippletag.scrdr import TreeFormatError, parse_tree, serialize_tree
from rippletag.tagger import (
    AUDIT_FILE,
    LEXICON_FILE,
    META_FILE,
    TREE_FILE,
    Model,
    ModelFormatError,
    Tagger,
    load_model,
    save_model,
)

from helpers import (
    POOL,
    random_lexicon,
    random_tree,
    reference_parse_lexicon,
    reference_parse_tree,
    trees_equal,
)


def _pieces(fragments):
    """A format fragment, a few random characters or a line break."""
    return st.one_of(
        st.sampled_from(fragments),
        st.text(max_size=3),
        st.sampled_from(["\n", "\t", "\r", "\r\n", " ", " ", ""]),
    )


def _texts(fragments):
    """Text glued from format fragments, random characters and line breaks."""
    return st.lists(_pieces(fragments), max_size=40).map("".join)


@st.composite
def _edited(draw, saved_text, fragments):
    """``saved_text(rng)``, a saved file's text, with up to three short
    spans replaced by pieces of ``_pieces(fragments)``."""
    text = saved_text(random.Random(draw(st.integers(0, 2**16))))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, min(len(text), start + 6)))
        text = text[:start] + draw(_pieces(fragments)) + text[stop:]
    return text


_TREE_FRAGMENTS = [
    'if True then tag = ""',
    "if ",
    "True",
    " then tag = ",
    '"NN"',
    '"',
    '\\"',
    "\\\\",
    "\\",
    "word == ",
    "currentTag == ",
    "suffix2 == ",
    "prev1Tag == ",
    "nosuch == ",
    " == ",
    " and ",
    "\t",
    "\t\t",
    "\n",
]

_LEXICON_FRAGMENTS = [
    "%%NUM%%\tCD\n",
    "%%CAP%%\tNNP\n",
    "%%LOW%%\tNN\n",
    "%%S2%%",
    "%%S3%%ing",
    "%%S5%%",
    "%%S9%%",
    "%%",
    "the\tDT\n",
    "\t",
    "\n",
]

_CORPUS_FRAGMENTS = ["the/DT", "1/2/CD", "/", "//", "a/", "/NN", " ", "\n", "::"]


@given(_texts(_TREE_FRAGMENTS))
def test_parse_tree_parses_or_raises_its_format_error(text):
    try:
        parse_tree(text)
    except TreeFormatError:
        pass


@given(_texts(_LEXICON_FRAGMENTS))
def test_parse_lexicon_parses_or_raises_its_format_error(text):
    try:
        parse_lexicon(text)
    except LexiconFormatError:
        pass


def assert_parses_like(parse, reference, text, same):
    """``parse(text)`` returns what ``reference(text)`` returns, by
    ``same``, or raises an error of the same class and message."""
    try:
        want = reference(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            parse(text)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
    else:
        assert same(parse(text), want)


def _lexicon_items(lexicon):
    """Every entry of a lexicon, each table in its own order."""
    return (
        list(lexicon.word_tags.items()),
        [(n, list(table.items())) for n, table in lexicon.suffix_tags.items()],
        (lexicon.numeric_tag, lexicon.capitalized_tag, lexicon.lowercase_tag),
    )


def _same_lexicon(got, want):
    return got == want and _lexicon_items(got) == _lexicon_items(want)


# Values with a quote and a backslash, which the tree file escapes.
_ESCAPED_POOL = (*POOL, 'odd"one', "a\\b")


def _saved_lexicon_text(rng):
    return serialize_lexicon(random_lexicon(rng))


def _saved_tree_text(rng):
    return serialize_tree(random_tree(rng, rng.randint(1, 20), _ESCAPED_POOL))


_SAVED_LEXICON = (
    "%%NUM%%\tCD\n%%CAP%%\tNNP\n%%LOW%%\tNN\n%%S2%%ed\tVBD\ndog\tNN\nthe\tDT\n"
)
_SAVED_TREE = 'if True then tag = ""\n\tif word == "a" then tag = "N"\n'


@given(
    st.one_of(_edited(_saved_lexicon_text, _LEXICON_FRAGMENTS), _texts(_LEXICON_FRAGMENTS))
)
@example(_SAVED_LEXICON)
@example(_SAVED_LEXICON + "%%x\tNN\n")  # a reserved word after the words
@example(_SAVED_LEXICON + "%%S3%%ing\tVBG\n")  # a suffix after a word
@example(_SAVED_LEXICON.replace("dog", "\ndog"))  # a blank line
@example(_SAVED_LEXICON.replace("dog", "\t\ndog"))  # a line of one tab
@example(_SAVED_LEXICON.replace("\n", "\r\n"))
@example(_SAVED_LEXICON.replace("dog", "d g"))
@example(_SAVED_LEXICON.replace("dog", "d\x1fg"))
@example(_SAVED_LEXICON.replace("dog", "d\u00a0g"))
@example(_SAVED_LEXICON.replace("dog", "d\u2028g"))
@example(_SAVED_LEXICON.replace("%%S2%%", "%%NUM%%\tCD\n%%S2%%"))  # a fourth default
@example(_SAVED_LEXICON.replace("%%S2%%ed\tVBD\n", "%%S2%%ed\tVBD\n" * 2))
@example(_SAVED_LEXICON.replace("%%S2%%ed", "%%S2%%edd"))
@example(_SAVED_LEXICON.replace("dog\tNN", "dog\tNN\ndog\tNN"))
@example(_SAVED_LEXICON.replace("dog\tNN", "dog\tN\tN"))  # a tab inside a tag
@example(_SAVED_LEXICON.replace("dog\tNN", "dog\t"))
@example(_SAVED_LEXICON.replace("dog\tNN", "\tNN"))
@example(_SAVED_LEXICON[:-1])  # no newline at the end
@example(_SAVED_LEXICON[:-3])  # ends in a tab
def test_parse_lexicon_equals_the_line_by_line_reference(text):
    assert_parses_like(parse_lexicon, reference_parse_lexicon, text, _same_lexicon)


@given(
    st.one_of(_edited(_saved_tree_text, _TREE_FRAGMENTS), _texts(_TREE_FRAGMENTS))
)
@example(_SAVED_TREE)
# splits into an even number of parts at its quotes
@example('if True then tag = ""\n\tif word == "a" and prev1Tag == " then tag = "c"\n')
@example('if True then tag = ""\n\tif word == "a\\"b" then tag = "N"\n')
@example('if True then tag = ""\n\tif word == "a" and word == "b" then tag = "N"\n')
@example('if True then tag = ""\n\tif word == "a" and next1Tag == "b" then tag = "N"\n')
@example('if True then tag = ""\n\tif next1Tag == "a" and word == "b" then tag = "N"\n')
@example('if True then tag = ""\n\tif word == "a" and then tag = "N"\n')
@example('if True then tag = ""\n\tif word == "a" then tag = "N" \n')
@example('if True then tag = ""\n\tif True then tag = "N"\n')
@example('if True then tag = "N"\n')
@example('if True then tag = ""\n\n\t\n' + _SAVED_TREE)  # blank lines
@example(_SAVED_TREE.replace("\n", "\r\n"))
@example(_SAVED_TREE + '\t\tif word == x then tag = "N"\n')
def test_parse_tree_equals_the_line_by_line_reference(text):
    assert_parses_like(parse_tree, reference_parse_tree, text, trees_equal)


@given(_texts(_CORPUS_FRAGMENTS), st.sampled_from(["/", "::", "_"]))
def test_read_tagged_corpus_parses_or_raises_its_format_error(text, separator):
    try:
        read_tagged_corpus(text, separator)
    except CorpusParseError:
        pass


# What load_model may raise for a malformed model directory.
_MODEL_ERRORS = (ModelFormatError, TreeFormatError, LexiconFormatError)

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)

# Rule pairs that compile alone but not joined into one alternation:
# a group name defined twice, and an inline global flag past the start.
# Each rule runs alone, so a model holding either pair loads and builds a Tagger.
# NN is in the saved model's tagset, so both rules reach the compile.
_UNJOINABLE_PAIRS = [
    [["(?P<g>^a)", "NN"], ["(?P<g>.*b)", "NN"]],
    [[".*a", "NN"], ["(?u)^c", "NN"]],
]


def _english_meta(regex_rules):
    return json.dumps({"format": 1, "mode": "english-regex", "regex_rules": regex_rules})


_REGEX_RULES = st.one_of(
    st.lists(
        st.one_of(
            st.tuples(
                st.sampled_from(
                    [".*ing$", "^[A-Z]", "(", "a{99999999999}", "[", "x",
                     "(?P<g>^a)", "(?u)^c"]
                ),
                st.sampled_from(["VBG", "", "NN"]),
            ).map(list),
            _JSON_VALUES,
        ),
        max_size=3,
    ),
    st.sampled_from(_UNJOINABLE_PAIRS),
)

_META = st.one_of(
    _JSON_VALUES,
    st.fixed_dictionaries(
        {"format": st.sampled_from([1, 1.0, True, 2, "1", None])},
        optional={
            "mode": st.sampled_from(["generic", "english-regex", "klingon", 5]),
            "separator": st.one_of(st.sampled_from(["/", "", "::"]), _JSON_VALUES),
            "regex_rules": st.one_of(_REGEX_RULES, _JSON_VALUES),
        },
    ),
)


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """Files of a small valid model, by name."""
    rng = random.Random(7)
    model = Model(lexicon=random_lexicon(rng), tree=random_tree(rng, 12))
    assert "NN" in model.lexicon.tagset
    directory = tmp_path_factory.mktemp("model")
    save_model(model, directory)
    return {
        name: (directory / name).read_bytes()
        for name in (TREE_FILE, LEXICON_FILE, META_FILE)
    }


def _load_with(tmp_path, saved, name, data):
    """load_model on the saved model with file ``name`` set to ``data``.

    A model that loads must also build a ``Tagger``.
    """
    for file_name, content in {**saved, name: data}.items():
        (tmp_path / file_name).write_bytes(content)
    try:
        model = load_model(tmp_path)
    except _MODEL_ERRORS:
        return
    Tagger(model)


# tmp_path is reused across examples; each example rewrites every file
_fuzz_settings = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


@_fuzz_settings
@given(st.one_of(_META.map(json.dumps), _texts(['{"format": 1', "}", ","])))
# re.compile raises OverflowError or RecursionError for these
# patterns, json.loads RecursionError for this nesting
@example('{"format": 1, "regex_rules": [["a{99999999999}", "NN"]]}')
@example('{"format": 1, "regex_rules": [["%s", "NN"]]}' % ("(" * 1000 + ")" * 1000))
@example("[" * 100000)
@example(_english_meta(_UNJOINABLE_PAIRS[0]))
@example(_english_meta(_UNJOINABLE_PAIRS[1]))
def test_load_model_survives_any_meta_file(tmp_path, saved_model, text):
    _load_with(tmp_path, saved_model, META_FILE, text.encode())


@_fuzz_settings
@given(_texts(_LEXICON_FRAGMENTS))
def test_load_model_survives_any_lexicon_file(tmp_path, saved_model, text):
    _load_with(tmp_path, saved_model, LEXICON_FILE, text.encode())


@_fuzz_settings
@given(_texts(_TREE_FRAGMENTS))
def test_load_model_survives_any_tree_file(tmp_path, saved_model, text):
    _load_with(tmp_path, saved_model, TREE_FILE, text.encode())


@_fuzz_settings
@given(_texts(['{"rule": "if True"}', "{", "}", "[", "]", '"', ":", "1", "\n"]))
@example("{}\n{")
@example("[" * 100000)
def test_load_model_survives_any_audit_file(tmp_path, saved_model, text):
    _load_with(tmp_path, saved_model, AUDIT_FILE, text.encode())
    # text is never parsed at load; reading the entries fails, if at all,
    # with ModelFormatError
    model = load_model(tmp_path)
    try:
        model.audit
    except ModelFormatError as exc:
        assert AUDIT_FILE in str(exc)


@_fuzz_settings
@given(
    st.sampled_from([META_FILE, LEXICON_FILE, TREE_FILE, AUDIT_FILE]),
    st.binary(max_size=40),
)
def test_load_model_survives_bytes_that_are_not_utf8(
    tmp_path, saved_model, name, data
):
    _load_with(tmp_path, saved_model, name, data)
