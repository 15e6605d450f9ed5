import re
import sys
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from rippletag.corpus import read_tagged_corpus
from rippletag.initial_tagger import (
    DEFAULT_ENGLISH_RULES,
    MODE_ENGLISH,
    InitialTagger,
    InitialTaggerOptions,
    _match_is_exact,
    initialize_corpus,
    parse_regex_rules,
)
from rippletag.lexicon import Lexicon, build_lexicon

from helpers import reference_guess_unknown, reference_suffix_tag

CORPUS = (
    "the/DT dog/NN runs/VBZ\n"
    "the/DT cat/NN sat/VBD\n"
    "a/DT fox/NN ran/VBD\n"
    "hens/NNS peck/VBP\n"
    "Paris/NNP is/VBZ big/JJ\n"
    "3/CD hens/NNS\n"
    "mud/NN rock/NN\n"
)


@pytest.fixture()
def tagger():
    return InitialTagger(build_lexicon(read_tagged_corpus(CORPUS)))


def test_known_word_gets_its_majority_tag(tagger):
    assert tagger.tag_word("dog") == "NN"
    assert tagger.tag_word("the") == "DT"


def test_unknown_with_digit_gets_numeric_default(tagger):
    assert tagger.tag_word("42") == "CD"
    assert tagger.tag_word("B-52") == "CD"


def test_unknown_capitalized_gets_capitalized_default(tagger):
    assert tagger.tag_word("London") == "NNP"


def test_unknown_lowercase_gets_lowercase_default(tagger):
    # no suffix table entry applies to this word
    assert tagger.tag_word("zzz") == "NN"


def test_suffix_guess_prefers_longer_suffixes():
    # 2-char suffix "ly" -> RB; 4-char "ally" -> JJ; longer wins
    text = (
        "aally/JJ bally/JJ cally/JJ "
        "dly/RB ely/RB fly/RB gly/RB hly/RB\n"
    )
    lexicon = build_lexicon(read_tagged_corpus(text))
    assert reference_suffix_tag(lexicon, "zally", 4) == "JJ"
    assert reference_suffix_tag(lexicon, "zly", 2) == "RB"
    tagger = InitialTagger(lexicon)
    assert tagger.tag_word("totally") == "JJ"
    assert tagger.tag_word("oddly") == "RB"


def test_hapax_masking_ignores_the_word_entry(tagger):
    # "sat" occurs once; in the initialized corpus it falls through to
    # the defaults, while tagging still uses its lexicon entry
    gold = read_tagged_corpus(CORPUS)
    first_guesses = dict(initialize_corpus(gold, tagger).tokens())
    assert first_guesses["sat"] == "NN"
    assert tagger.tag_word("sat") == "VBD"
    # frequent words are unaffected
    assert first_guesses["the"] == "DT"


def test_initialize_corpus_keeps_layout():
    gold = read_tagged_corpus(CORPUS)
    tagger = InitialTagger(build_lexicon(gold))
    init = initialize_corpus(gold, tagger)
    assert [len(s) for s in init.sentences] == [len(s) for s in gold.sentences]
    assert [t.word for t in init.tokens()] == [t.word for t in gold.tokens()]
    # every known word with a single tag keeps it
    assert list(init.tokens())[0].tag == "DT"


def test_english_mode_applies_regex_rules_to_unknowns():
    corpus = read_tagged_corpus(
        "happiness/NN joy/NN Rome/NNP walks/NNS walked/VBN is/VBZ ok/JJ a/RB\n"
    )
    options = InitialTaggerOptions(mode="english-regex")
    tagger = InitialTagger(build_lexicon(corpus), options)
    assert tagger.tag_word("sadness") == "NN"
    assert tagger.tag_word("Ex-president") == "NN"
    assert tagger.tag_word("borrowed") == "VBN"
    assert tagger.tag_word("cats") == "NNS"
    assert tagger.tag_word("Lisbon") == "NNP"


def test_english_mode_drops_rules_whose_tag_is_not_in_training():
    # training has no VBG, so the ".*ing" rule must not produce one
    corpus = read_tagged_corpus("dog/NN dog/NN Rome/NNP 3/CD\n")
    options = InitialTaggerOptions(mode="english-regex")
    tagger = InitialTagger(build_lexicon(corpus), options)
    assert tagger.tag_word("running") == "NN"


def test_generic_mode_ignores_regex_rules(tagger):
    # "ness" would match the English rules, but mode is generic
    assert tagger.tag_word("darkness") == "NN"  # lowercase default, not a rule
    assert tagger.options.mode == "generic"


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        InitialTaggerOptions(mode="french")


def test_parse_regex_rules():
    rules = parse_regex_rules(".*ing$\tVBG\n\n.*s$\tNNS\n")
    assert rules == ((".*ing$", "VBG"), (".*s$", "NNS"))
    with pytest.raises(ValueError, match="line 1"):
        parse_regex_rules("no-tab VBG\n")
    with pytest.raises(ValueError, match="bad pattern"):
        parse_regex_rules("(unclosed\tNN\n")


def test_default_rule_order_is_most_specific_first():
    # "-ness" hits the noun rule before the bare final-s rule
    patterns = [tag for _, tag in DEFAULT_ENGLISH_RULES]
    assert patterns.index("NN") < patterns.index("NNS")


# Python 3.11 added possessive repeats and atomic groups.
_NEW_SYNTAX = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="syntax added in Python 3.11"
)


@pytest.mark.parametrize(
    "pattern, exact",
    [
        # every top-level branch anchored or led by an unbounded ``.`` repeat
        (".*ing$", True),
        (".*?ing", True),
        (".+s$", True),
        (".+?s", True),
        (".{2,}s", True),
        ("^[A-Z].*", True),
        (r"\Aex", True),
        ("(?i)^ex", True),
        ("(?s).*x", True),
        ("(.*ness$)|(^[Ee]x-.*)", True),
        ("(?:.*a|^b)c", True),
        (r"((?:.*a|(^b))|\Ac)d", True),
        # anything else keeps ``search``
        ("", False),
        ("ing$", False),
        ("x.*", False),
        ("[ab].*", False),
        ("$", False),
        (r"\Z", False),
        (".*a|b", False),
        ("(?:.*a|b)c", False),
        ("()x", False),
        (".{0,9}x", False),
        ("(?:.*a)*b", False),
        ("(?m)^x", False),
        ("(?s:.*)x", False),
        ("(?i:^x)", False),
        ("(?<=a)b", False),
        ("(?=.*a)b", False),
        (r"(.*)x\1", False),
        ("(?P<g>.*)x(?P=g)", False),
        ("(.*)a(?(1)b|c)", False),
        ("^(a)?(?(1)b|c)", False),
        pytest.param(".*+x", False, marks=_NEW_SYNTAX),
        pytest.param("(?>.*)x", False, marks=_NEW_SYNTAX),
    ],
)
def test_match_is_exact_only_for_rules_anchored_at_the_start(pattern, exact):
    compiled = re.compile(pattern)
    assert _match_is_exact(compiled.pattern, compiled.flags) is exact


def test_match_is_not_exact_under_multiline_or_a_parse_failure():
    assert _match_is_exact("^x", 0)
    assert not _match_is_exact("^x", re.MULTILINE)
    assert _match_is_exact(r"\Ax", re.MULTILINE)
    assert not _match_is_exact("(", 0)


# Tags R1 and R2 are known, ZZ is not; the suffix tables and the words
# below share an alphabet, so every link of the chain gets to answer.
_LEXICON = Lexicon(
    word_tags={
        **{f"w{i}": tag for i, (_, tag) in enumerate(DEFAULT_ENGLISH_RULES)},
        "a": "R1",
        "b": "R2",
    },
    suffix_tags={
        2: {"ab": "S2", "1a": "S2", "s-": "S2"},
        3: {"bab": "S3", "Xab": "S3"},
        4: {"aXab": "S4"},
        5: {"ababa": "S5"},
    },
    numeric_tag="CD",
    capitalized_tag="CAP",
    lowercase_tag="LOW",
)
_WORDS = ["", "a", "ab", "bab", "Xab", "xaXab", "bababa", "a1", "Ex-x", "\nab",
          "running", "sadness", "Rome", "a\nness", "ness\n", "Ex-\nx", "B-52"]


def _chain(rules):
    return InitialTagger(_LEXICON, InitialTaggerOptions(MODE_ENGLISH, tuple(rules)))


def test_every_default_english_rule_runs_with_match():
    tagger = _chain(DEFAULT_ENGLISH_RULES)
    tests = [test for test, _ in tagger._regex_rules]
    assert len(tests) == len(DEFAULT_ENGLISH_RULES)
    assert all(test.__name__ == "match" for test in tests)
    for word in _WORDS:
        assert tagger.guess_unknown(word) == reference_guess_unknown(
            _LEXICON, tagger.options, word
        )


def test_without_the_regex_parser_every_rule_runs_with_search(monkeypatch):
    monkeypatch.setitem(sys.modules, "re._parser", None)
    monkeypatch.setitem(sys.modules, "sre_parse", None)
    _match_is_exact.cache_clear()
    try:
        tagger = _chain(DEFAULT_ENGLISH_RULES)
        assert all(test.__name__ == "search" for test, _ in tagger._regex_rules)
        for word in _WORDS:
            assert tagger.guess_unknown(word) == reference_guess_unknown(
                _LEXICON, tagger.options, word
            )
    finally:
        _match_is_exact.cache_clear()


def _group(opener_and_body):
    opener, body = opener_and_body
    return f"{opener}{body})"


def _alternation(element):
    sequence = st.lists(element, min_size=1, max_size=3).map("".join)
    return st.lists(sequence, min_size=1, max_size=2).map("|".join)


def _compiles(pattern):
    try:
        re.compile(pattern)
    except re.error:
        return False
    return True


_TOKENS = st.sampled_from(
    [".*", ".*?", ".+", ".*+", ".?", "^", r"\A", "$", "a", "b", "x", "X", "1",
     "-", "[ab]", "[A-Z]", r"\d", "(?<=a)", r"(.*)x\1"]
)
_GROUP_OPENERS = st.sampled_from(["(", "(?:", "(?s:"])
_INNER = st.one_of(
    _TOKENS, st.tuples(_GROUP_OPENERS, _alternation(_TOKENS)).map(_group)
)
# groups nest two deep; half of all elements are bare tokens
_ELEMENTS = st.one_of(
    _TOKENS, _INNER, st.tuples(_GROUP_OPENERS, _alternation(_INNER)).map(_group)
)
_PATTERNS = st.tuples(
    st.sampled_from(["", "(?m)", "(?s)"]), _alternation(_ELEMENTS)
).map("".join).filter(_compiles)
_RULES = st.lists(
    st.tuples(_PATTERNS, st.sampled_from(["R1", "R2", "ZZ"])), min_size=1, max_size=2
)


# every word of up to three characters over the grammar's literals, a
# capital, a digit and a newline: short enough to list, long enough to
# hold a match past offset 0 of every kind of rule above
_SHORT_WORDS = [
    "".join(chars) for n in range(4) for chars in product("abxX1\n", repeat=n)
]


@settings(max_examples=200, deadline=None)
@given(
    rules=_RULES,
    words=st.lists(st.text("abxX1-\nAéns", max_size=12), max_size=5),
)
def test_guess_unknown_equals_the_search_chain(rules, words):
    # one rule at a time too, so no earlier rule can mask a wrong answer
    taggers = [_chain(rules), _chain(DEFAULT_ENGLISH_RULES)]
    taggers += [_chain([rule]) for rule in rules]
    for tagger in taggers:
        for word in words + _SHORT_WORDS:
            assert tagger.guess_unknown(word) == reference_guess_unknown(
                _LEXICON, tagger.options, word
            )
