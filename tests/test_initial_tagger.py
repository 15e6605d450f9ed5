import re
import sys
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from rippletag.corpus import read_tagged_corpus
from rippletag.initial_tagger import (
    DEFAULT_ENGLISH_RULES,
    MAX_RULE_AFFIXES,
    MAX_RULE_PARENS,
    MODE_ENGLISH,
    MODE_GENERIC,
    InitialTagger,
    InitialTaggerOptions,
    _classify,
    initialize_corpus,
    parse_regex_rules,
)
from rippletag.lexicon import Lexicon, build_lexicon

from helpers import (
    random_tagged_text,
    reference_guess_unknown,
    reference_initialize_corpus,
    reference_suffix_tag,
)

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
    assert tagger.tag_sentence(["dog"]) == ["NN"]
    assert tagger.tag_sentence(["the"]) == ["DT"]


def test_unknown_with_digit_gets_numeric_default(tagger):
    assert tagger.tag_sentence(["42"]) == ["CD"]
    assert tagger.tag_sentence(["B-52"]) == ["CD"]


def test_unknown_capitalized_gets_capitalized_default(tagger):
    assert tagger.tag_sentence(["London"]) == ["NNP"]


def test_unknown_lowercase_gets_lowercase_default(tagger):
    # no suffix table entry applies to this word
    assert tagger.tag_sentence(["zzz"]) == ["NN"]


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
    assert tagger.tag_sentence(["totally"]) == ["JJ"]
    assert tagger.tag_sentence(["oddly"]) == ["RB"]


def test_hapax_masking_ignores_the_word_entry(tagger):
    # "sat" occurs once; in the initialized corpus it falls through to
    # the defaults, while tagging still uses its lexicon entry
    gold = read_tagged_corpus(CORPUS)
    words = [t.word for t in gold.tokens()]
    first_guesses = dict(zip(words, initialize_corpus(gold, tagger)))
    assert first_guesses["sat"] == "NN"
    assert tagger.tag_sentence(["sat"]) == ["VBD"]
    # frequent words are unaffected
    assert first_guesses["the"] == "DT"


def test_initialize_corpus_keeps_layout():
    # one tag per token, in token order
    gold = read_tagged_corpus(CORPUS)
    tagger = InitialTagger(build_lexicon(gold))
    init = initialize_corpus(gold, tagger)
    assert type(init) is list and len(init) == gold.token_count
    # every known word with a single tag keeps it: "the" is token 0 and 3,
    # "hens" token 9 and 15
    assert [init[i] for i in (0, 3, 9, 15)] == ["DT", "DT", "NNS", "NNS"]


@pytest.mark.parametrize("mode", [MODE_GENERIC, MODE_ENGLISH])
def test_initialize_corpus_equals_the_per_token_reference_on_toy(toy, mode):
    tagger = InitialTagger(build_lexicon(toy), InitialTaggerOptions(mode=mode))
    assert initialize_corpus(toy, tagger) == reference_initialize_corpus(toy, tagger)


@settings(max_examples=40, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.integers(1, 400),
    st.sampled_from([MODE_GENERIC, MODE_ENGLISH]),
)
def test_initialize_corpus_equals_the_per_token_reference(rng, n_tokens, mode):
    gold = read_tagged_corpus(random_tagged_text(rng, n_tokens))
    tagger = InitialTagger(build_lexicon(gold), InitialTaggerOptions(mode=mode))
    assert initialize_corpus(gold, tagger) == reference_initialize_corpus(gold, tagger)


class RecordingTagger(InitialTagger):
    """Records every word that ``tag_sentence`` is asked to guess."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.asked = []

    def tag_sentence(self, words):
        self.asked.extend(words)
        return super().tag_sentence(words)


@pytest.mark.parametrize("mode", [MODE_GENERIC, MODE_ENGLISH])
def test_training_guesses_every_word_through_tag_sentence(toy, mode):
    # training must not fork a first-guess lookup of its own: each
    # distinct word goes through the chain that tagging runs
    tagger = RecordingTagger(build_lexicon(toy), InitialTaggerOptions(mode=mode))
    initialize_corpus(toy, tagger)
    assert set(tagger.asked) == toy.vocabulary()


def test_english_mode_applies_regex_rules_to_unknowns():
    corpus = read_tagged_corpus(
        "happiness/NN joy/NN Rome/NNP walks/NNS walked/VBN is/VBZ ok/JJ a/RB\n"
    )
    options = InitialTaggerOptions(mode="english-regex")
    tagger = InitialTagger(build_lexicon(corpus), options)
    assert tagger.tag_sentence(["sadness"]) == ["NN"]
    assert tagger.tag_sentence(["Ex-president"]) == ["NN"]
    assert tagger.tag_sentence(["borrowed"]) == ["VBN"]
    assert tagger.tag_sentence(["cats"]) == ["NNS"]
    assert tagger.tag_sentence(["Lisbon"]) == ["NNP"]


def test_english_mode_drops_rules_whose_tag_is_not_in_training():
    # training has no VBG, so the ".*ing" rule must not produce one
    corpus = read_tagged_corpus("dog/NN dog/NN Rome/NNP 3/CD\n")
    options = InitialTaggerOptions(mode="english-regex")
    tagger = InitialTagger(build_lexicon(corpus), options)
    assert tagger.tag_sentence(["running"]) == ["NN"]


def test_generic_mode_ignores_regex_rules(tagger):
    # "ness" would match the English rules, but mode is generic
    assert tagger.tag_sentence(["darkness"]) == ["NN"]  # lowercase default, not a rule
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
    # re.compile raises OverflowError, not re.error, for these
    with pytest.raises(ValueError, match="bad pattern"):
        parse_regex_rules("a{99999999999}\tNN\n")
    # nested groups compile by recursion; a rule holds at most so many
    assert parse_regex_rules("(a)" * MAX_RULE_PARENS + "\tNN\n")
    with pytest.raises(ValueError, match=f"more than {MAX_RULE_PARENS}"):
        parse_regex_rules("(a)" * (MAX_RULE_PARENS + 1) + "\tNN\n")


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
    assert _classify(compiled.pattern, compiled.flags).exact is exact


def test_match_is_not_exact_under_multiline_or_a_parse_failure():
    assert _classify("^x", 0).exact
    assert not _classify("^x", re.MULTILINE).exact
    assert _classify(r"\Ax", re.MULTILINE).exact
    assert not _classify("(", 0).exact


@pytest.mark.parametrize(
    "pattern, prefixes, suffixes",
    [
        # every top-level branch a prefix or a suffix branch
        (".*ing$", set(), {"ing"}),
        (".*?ing\\Z", set(), {"ing"}),
        (".{0,}ing$", set(), {"ing"}),  # parsed as ``.*``
        ("ab$", set(), {"ab"}),
        ("^ab", {"ab"}, set()),
        (r"\Aab.*?", {"ab"}, set()),
        (".*(?:ab|b)$", set(), {"ab", "b"}),
        ("^[Ee]x-.*", {"Ex-", "ex-"}, set()),
        ("^[a-c]", {"a", "b", "c"}, set()),
        (".*i(ze|se)$", set(), {"ize", "ise"}),
        ("(.*ness$)|(^[Ss]elf-.*)", {"Self-", "self-"}, {"ness"}),
        ("(?:.*a$|(^b))", {"b"}, {"a"}),
        ("(?P<g>^a)", {"a"}, set()),
        ("(?u)^a", {"a"}, set()),
        # anything else runs in the regex engine
        ("", set(), set()),
        ("a", set(), set()),
        ("^", set(), set()),
        (".*$", set(), set()),
        ("^a$", set(), set()),
        ("^(?:a|)", set(), set()),
        (".+a$", set(), set()),
        ("^a.+", set(), set()),
        ("^a.*b", set(), set()),
        (".*a$|b", set(), set()),
        ("[^a]$", set(), set()),
        (r"\d$", set(), set()),
        ("a?$", set(), set()),
        ("(?i)^a", set(), set()),
        ("(?m)^a", set(), set()),
        ("(?s).*a$", set(), set()),
        ("(?i:a)$", set(), set()),
        (r"(a)\1$", set(), set()),
        ("^[\x00-\uffff]", set(), set()),
        ("^[a-z][a-z]", set(), set()),
    ],
)
def test_affix_rules_are_the_prefix_and_suffix_shapes(pattern, prefixes, suffixes):
    compiled = re.compile(pattern)
    shape = _classify(compiled.pattern, compiled.flags)
    assert (shape.prefixes, shape.suffixes) == (prefixes, suffixes)


def test_an_affix_set_past_the_cap_runs_in_the_regex_engine():
    # 16 * 16 = 256 strings is the cap; one more string is past it
    letters = "abcdefghijklmnop"
    at_cap = _classify(f"^[{letters}][{letters}]", re.UNICODE)
    assert len(at_cap.prefixes) == MAX_RULE_AFFIXES
    assert not _classify(f"^[{letters}q][{letters}]", re.UNICODE).prefixes
    # the cap holds for a rule's prefixes and suffixes together
    both = _classify(f"^[{letters}][{letters}]|.*z$", re.UNICODE)
    assert not (both.prefixes or both.suffixes)


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
          "running", "sadness", "Rome", "a\nness", "ness\n", "Ex-\nx", "B-52",
          # a prefix rule and a suffix rule of a different order both fire
          "Ex-ness", "Self-less", "Running", "Sadness", "Ex-ed",
          # shorter than the longest affix of the default rules
          "s", "ly", "ic", "Ex", "Sel", "Self", "Self-", "ness"]


def _chain(rules):
    return InitialTagger(_LEXICON, InitialTaggerOptions(MODE_ENGLISH, tuple(rules)))


def _affixes(tagger):
    """The tagger's prefix and suffix lookups: ({affix: rule}, {affix: rule})."""
    return tagger._prefixes, tagger._suffixes


def _cuts(edge, lengths):
    """The slices of an edge table entry for these affix lengths."""
    return tuple(slice(n) if edge == 0 else slice(-n, None) for n in lengths)


def test_every_default_english_rule_is_answered_by_affix_lookups():
    # the defaults are all affix rules: no regex matcher is left, and each
    # affix maps to the lowest rule that has it
    tagger = _chain(DEFAULT_ENGLISH_RULES)
    assert tagger._regex_rules == ()
    prefixes, suffixes = _affixes(tagger)
    assert prefixes == {
        "Ex-": 0, "ex-": 0, "Self-": 0, "self-": 0,
        **{chr(c): 10 for c in range(ord("A"), ord("Z") + 1)},
    }
    assert (suffixes["ness"], suffixes["less"], suffixes["s"]) == (0, 3, 9)
    assert len(suffixes) == 25
    # one entry per edge character: the rule of that character alone
    # (11 is no rule), then a slice per longer affix length with that edge
    assert tagger._prefix_edges == {
        **{chr(c): (10, ()) for c in range(ord("A"), ord("Z") + 1)},
        "E": (10, _cuts(0, [3])),
        "S": (10, _cuts(0, [5])),
        "e": (11, _cuts(0, [3])),
        "s": (11, _cuts(0, [5])),
    }
    assert tagger._suffix_edges == {
        "s": (9, _cuts(-1, [3, 4])),  # ous; ness, less
        "t": (11, _cuts(-1, [3, 4])),  # est; ment
        "p": (11, _cuts(-1, [4])),  # ship
        "n": (11, _cuts(-1, [3])),  # ion
        "y": (11, _cuts(-1, [2, 3])),  # ly; ity
        "m": (11, _cuts(-1, [3])),  # ism
        "e": (11, _cuts(-1, [3, 4])),  # ive, ize, ise; ance, ence, able, ible
        "d": (11, _cuts(-1, [2, 4])),  # ed; hood
        "l": (11, _cuts(-1, [2, 3])),  # al; ful
        "h": (11, _cuts(-1, [3])),  # ish
        "c": (11, _cuts(-1, [2])),  # ic
        "g": (11, _cuts(-1, [3])),  # ing
    }
    assert tagger._rule_tags == tuple(tag for _, tag in DEFAULT_ENGLISH_RULES)
    for word in _WORDS:
        assert tagger.guess_unknown(word) == reference_guess_unknown(
            _LEXICON, tagger.options, word
        )


def test_without_the_regex_parser_every_rule_runs_with_search(monkeypatch):
    monkeypatch.setitem(sys.modules, "re._parser", None)
    monkeypatch.setitem(sys.modules, "sre_parse", None)
    _classify.cache_clear()
    try:
        tagger = _chain(DEFAULT_ENGLISH_RULES)
        # no affix rule and no ``match``: one ``search`` matcher per rule
        assert tagger._prefix_edges == tagger._suffix_edges == {}
        assert [(index, test.__name__) for index, test in tagger._regex_rules] == [
            (index, "search") for index in range(len(DEFAULT_ENGLISH_RULES))
        ]
        for word in _WORDS:
            assert tagger.guess_unknown(word) == reference_guess_unknown(
                _LEXICON, tagger.options, word
            )
    finally:
        _classify.cache_clear()


def test_every_rule_but_an_affix_rule_is_its_own_matcher():
    rules = [
        (".*a$", "R1"),  # affix rules: looked up, not matched
        ("^b", "R2"),
        ("(?i)^x", "R1"),  # other flags
        (".*x", "R2"),
        ("^ab", "R1"),
        (".+b", "R2"),
        ("(?P<g>^a.)", "R1"),  # a named group
        ("(?u)^b.", "R2"),  # an inline global flag, though the default one
        ("x", "R1"),  # needs ``search``
        ("^a.+", "R2"),
        (r"\Ab.", "R1"),
        ("(?i:b)$", "R2"),  # needs ``search``
    ]
    tagger = _chain(rules)
    assert _affixes(tagger) == ({"b": 1, "ab": 4}, {"a": 0})
    # in rule order, with ``match`` exactly where it is exact
    layout = [(index, test.__name__) for index, test in tagger._regex_rules]
    assert layout == [
        (2, "match"),
        (3, "match"),
        (5, "match"),
        (6, "match"),
        (7, "match"),
        (8, "search"),
        (9, "match"),
        (10, "match"),
        (11, "search"),
    ]
    # each runs its own rule's pattern alone
    for index, test in tagger._regex_rules:
        assert test.__self__.pattern == rules[index][0]
    for word in _WORDS + ["b", "x", "Xa", "ba", "xa", "ab", "abx", "bx", "xb", "aab"]:
        assert tagger.guess_unknown(word) == reference_guess_unknown(
            _LEXICON, tagger.options, word
        )


def test_options_refuse_a_rule_past_the_cap():
    # an affix rule nested to the cap is still looked up
    nested = "(?:" * MAX_RULE_PARENS + "^a" + ")" * MAX_RULE_PARENS
    tagger = _chain([(nested, "R1"), ("^b", "R2")])
    assert _affixes(tagger) == ({"a": 0, "b": 1}, {})
    assert tagger._regex_rules == ()
    assert [tagger.guess_unknown(w) for w in ["a", "b"]] == ["R1", "R2"]
    # any other rule nested to the cap still runs with ``match``
    engine = "(?:" * MAX_RULE_PARENS + "^a." + ")" * MAX_RULE_PARENS
    tagger = _chain([(engine, "R1"), ("^b.", "R2")])
    layout = [(index, test.__name__) for index, test in tagger._regex_rules]
    assert layout == [(0, "match"), (1, "match")]
    assert [tagger.guess_unknown(w) for w in ["ax", "bx"]] == ["R1", "R2"]
    with pytest.raises(ValueError, match=f"bad pattern .*more than {MAX_RULE_PARENS}"):
        InitialTaggerOptions(MODE_ENGLISH, ((f"({nested})", "R1"),))
    # generic mode checks them too, as a saved model keeps its rules
    with pytest.raises(ValueError, match="bad pattern 'a\\('"):
        InitialTaggerOptions(MODE_GENERIC, (("^b", "R2"), ("a(", "R1")))


# Affixes that share the edge character "a": a one-character affix with
# longer ones, first in rule order on one side and last on the other,
# and "a" as both a prefix and a suffix edge.  Each rule has its own tag.
_EDGE_RULES = [
    (".*a$", "R1"),
    (".*ba$", "R2"),
    (".*cba$", "NN"),
    ("^abc", "JJ"),
    ("^ab", "RB"),
    ("^a", "VBG"),
]


@pytest.mark.parametrize(
    "rules, suffix_edges, prefix_edges, expected",
    [
        (
            _EDGE_RULES,
            {"a": (0, _cuts(-1, [2, 3]))},
            {"a": (5, _cuts(0, [2, 3]))},
            # prefixes of three lengths under "a", the longest one earliest
            {"abcd": "JJ", "abd": "RB", "ax": "VBG", "ab": "RB", "abc": "JJ",
             "xcba": "R1", "ba": "R1", "a": "R1", "aba": "R1"},
        ),
        (
            _EDGE_RULES[::-1],
            {"a": (5, _cuts(-1, [2, 3]))},
            {"a": (0, _cuts(0, [2, 3]))},
            # suffixes of three lengths under "a", the longest one earliest
            {"xcba": "NN", "xba": "R2", "xa": "R1", "cba": "NN", "ba": "R2",
             "a": "VBG", "abcd": "VBG", "aba": "VBG"},
        ),
    ],
    ids=["one-character-suffix-first", "one-character-prefix-first"],
)
def test_edge_tables_find_the_lowest_affix_rule(
    rules, suffix_edges, prefix_edges, expected
):
    tagger = _chain(rules)
    assert tagger._suffix_edges == suffix_edges
    assert tagger._prefix_edges == prefix_edges
    assert {word: tagger.guess_unknown(word) for word in expected} == expected
    # also words shorter than the longest affix, and words whose edges
    # start no affix
    for word in [*expected, "", "b", "c", "x", "cb", "bc", "Ab", "ca", "acb"]:
        assert tagger.guess_unknown(word) == reference_guess_unknown(
            _LEXICON, tagger.options, word
        )


class _CountingDict(dict):
    """A dict that records every key ``get`` is asked for in a shared list."""

    def __init__(self, items, counts):
        super().__init__(items)
        self.counts = counts

    def get(self, key, default=None):
        self.counts.append(key)
        return super().get(key, default)


def test_a_word_whose_edges_start_no_affix_makes_two_lookups():
    tagger = _chain(DEFAULT_ENGLISH_RULES)
    lookups = []
    for name in ["_prefixes", "_suffixes", "_prefix_edges", "_suffix_edges"]:
        setattr(tagger, name, _CountingDict(getattr(tagger, name), lookups))
    # no default affix ends with "z" or starts with "z"
    assert tagger.guess_unknown("zoz") == reference_guess_unknown(
        _LEXICON, tagger.options, "zoz"
    )
    assert lookups == ["z", "z"]
    # "sadness": the edge "s", "ous" and "ness" at the end, then the edge
    # "s" and "sadne" ("self-") at the start
    lookups.clear()
    assert tagger.guess_unknown("sadness") == "NN"
    assert lookups == ["s", "ess", "ness", "s", "sadne"]


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
    [".*", ".*?", ".+", ".*+", ".?", "^", r"\A", "$", r"\Z", "a", "b", "x", "X",
     "1", "-", "ab", "ns", "[ab]", "[A-Z]", "(?:ab|b)", r"\d", "(?<=a)", r"(.*)x\1"]
)
_GROUP_OPENERS = st.sampled_from(["(", "(?:", "(?s:", "(?P<g>"])
_INNER = st.one_of(
    _TOKENS, st.tuples(_GROUP_OPENERS, _alternation(_TOKENS)).map(_group)
)
# groups nest two deep; half of all elements are bare tokens
_ELEMENTS = st.one_of(
    _TOKENS, _INNER, st.tuples(_GROUP_OPENERS, _alternation(_INNER)).map(_group)
)
# prefix and suffix branches over literal sets, alone or in a group, so
# that most of them are affix rules
_LITERAL_SETS = st.sampled_from(
    ["a", "b", "ab", "ns", "Xa", "a-", "(?:ab|b)", "(a|bx)", "[ab]", "[a-c]",
     "(?:a|)", "a[^b]"]
)
_AFFIX_BRANCHES = st.one_of(
    st.tuples(st.sampled_from(["", ".*", ".*?", ".+"]), _LITERAL_SETS,
              st.sampled_from(["$", r"\Z"])),
    st.tuples(st.sampled_from(["^", r"\A"]), _LITERAL_SETS,
              st.sampled_from(["", ".*", ".*?", ".+"])),
).map("".join)
_AFFIX_RULES = st.lists(_AFFIX_BRANCHES, min_size=1, max_size=3).map("|".join)
_PATTERNS = st.one_of(
    st.tuples(
        st.sampled_from(["", "(?m)", "(?s)", "(?u)", "(?i)", "(?a)"]),
        _alternation(_ELEMENTS),
    ).map("".join),
    _AFFIX_RULES,
    _AFFIX_RULES.map("(?:{})".format),
    _AFFIX_RULES.map("({})".format),
).filter(_compiles)
_RULES = st.lists(
    st.tuples(_PATTERNS, st.sampled_from(["R1", "R2", "ZZ"])), min_size=1, max_size=4
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
    words=st.lists(st.text("abcxX1-\nAéns", max_size=12), max_size=5),
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


def test_a_second_tagger_parses_no_rule_again():
    rules = [*DEFAULT_ENGLISH_RULES, ("x", "R1"), (".+b", "R2"), ("(?i)^a", "R1")]
    _chain(rules)
    before = _classify.cache_info()
    _chain(rules)
    after = _classify.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + len(rules)
