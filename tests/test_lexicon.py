import random
import re
import sys

import pytest
from hypothesis import example, given, strategies as st

from rippletag.corpus import TaggedCorpus, read_tagged_corpus
from rippletag.initial_tagger import InitialTagger, initialize_corpus
from rippletag.lexicon import (
    _STRAY_WHITESPACE,
    _has_stray_whitespace,
    Lexicon,
    LexiconFormatError,
    build_lexicon,
    contains_digit,
    is_capitalized,
    parse_lexicon,
    serialize_lexicon,
)

from helpers import (
    random_lexicon,
    reference_build_lexicon,
    reference_contains_digit,
    reference_default_tag,
    reference_serialize_lexicon,
    reference_suffix_tag,
)


def lex(text):
    return build_lexicon(read_tagged_corpus(text))


def test_most_frequent_tag_wins():
    lexicon = lex("run/VB run/VB run/NN\n")
    assert lexicon.word_tags.get("run") == "VB"


def test_tag_tie_goes_to_earliest_seen_tag():
    # both tags occur twice; NN appeared first in the corpus
    lexicon = lex("deal/NN deal/VB deal/VB deal/NN\n")
    assert lexicon.word_tags.get("deal") == "NN"
    lexicon = lex("deal/VB deal/NN deal/NN deal/VB\n")
    assert lexicon.word_tags.get("deal") == "VB"


def test_unknown_word_has_no_entry():
    assert lex("a/DT\n").word_tags.get("b") is None


def test_suffix_entries_need_enough_evidence():
    # "ing" as a 3-char suffix: admitted at 4 wins, not at 3
    three = "walking/VBG talking/VBG making/VBG\n"
    four = three.rstrip() + " taking/VBG\n"
    assert reference_suffix_tag(lex(three), "zzzing", 3) is None
    assert reference_suffix_tag(lex(four), "zzzing", 3) == "VBG"


def test_suffix_threshold_counts_winning_tag_only():
    # 4 VBG + 3 NN: the winner has 4, enough for length 3
    text = "aing/VBG bing/VBG cing/VBG ding/VBG eing/NN fing/NN ging/NN\n"
    assert reference_suffix_tag(lex(text), "zzing", 3) == "VBG"


def test_suffix_lengths_have_different_thresholds():
    # two words sharing a 5-char suffix suffice, but their shared
    # shorter suffixes need more
    text = "ations/NNS bations/NNS\n"
    lexicon = lex(text)
    assert reference_suffix_tag(lexicon, "xxations", 5) == "NNS"
    assert reference_suffix_tag(lexicon, "xxations", 4) is None


def test_suffix_lookup_requires_proper_suffix():
    lexicon = lex("aing/VBG bing/VBG cing/VBG ding/VBG\n")
    # the whole word is not its own suffix
    assert reference_suffix_tag(lexicon, "ing", 3) is None
    assert reference_suffix_tag(lexicon, "zing", 3) == "VBG"


def test_default_tags_by_word_class():
    text = "3/CD 7/CD Rome/NNP Lima/NNP dog/NN cat/NN run/VB\n"
    lexicon = lex(text)
    assert lexicon.numeric_tag == "CD"
    assert lexicon.capitalized_tag == "NNP"
    assert lexicon.lowercase_tag == "NN"
    assert reference_default_tag(lexicon, "99") == "CD"
    assert reference_default_tag(lexicon, "Paris") == "NNP"
    assert reference_default_tag(lexicon, "fish") == "NN"


def test_digit_check_beats_capitalization():
    lexicon = lex("3/CD Rome/NNP dog/NN\n")
    assert reference_default_tag(lexicon, "A4") == "CD"


def test_empty_word_class_falls_back_to_global_majority():
    lexicon = lex("dog/NN cat/NN run/VB\n")
    assert lexicon.numeric_tag == "NN"
    assert lexicon.capitalized_tag == "NN"


def test_hapax_words_recorded():
    gold = read_tagged_corpus("a/DT a/DT b/NN\n")
    tagger = InitialTagger(build_lexicon(gold))
    # "b" occurs once, so training sees the lowercase default, not NN
    assert initialize_corpus(gold, tagger) == ["DT"] * 3
    assert tagger.tag_sentence(["b"]) == ["NN"]


def test_contains_digit_and_is_capitalized():
    assert contains_digit("a1b")
    assert not contains_digit("one")
    assert is_capitalized("Rome")
    assert not is_capitalized("rome")


def test_digit_pattern_is_str_isdecimal():
    # the one-regex digit test stands in for a per-character isdecimal
    differ = [
        c for c in map(chr, range(sys.maxunicode + 1))
        if bool(contains_digit(c)) != reference_contains_digit(c)
    ]
    assert differ == []


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        build_lexicon(read_tagged_corpus(""))


def test_build_rejects_reserved_looking_words():
    with pytest.raises(ValueError, match="'%%x' collides with reserved"):
        lex("the/DT %%x/NN\n")


@pytest.mark.parametrize(
    "word, tag",
    [("", "NN"), ("a b", "NN"), ("a\u00a0b", "NN"), ("dog", ""), ("dog", "N\tN")],
)
def test_build_rejects_tokens_the_model_files_cannot_hold(word, tag):
    # the corpus reader splits on whitespace; a library corpus need not
    corpus = TaggedCorpus.from_pairs([[("the", "DT"), (word, tag)]])
    with pytest.raises(ValueError, match=re.escape(repr((word, tag)))):
        build_lexicon(corpus)


@pytest.mark.parametrize("reserved_first", [True, False])
def test_build_names_the_first_bad_token_in_corpus_order(reserved_first):
    reserved, spaced = ("%%x", "NN"), ("a b", "NN")
    first, second = (reserved, spaced) if reserved_first else (spaced, reserved)
    corpus = TaggedCorpus.from_pairs([[("the", "DT"), first], [second, ("the", "DT")]])
    if reserved_first:
        message = "word '%%x' collides with reserved %% keys"
    else:
        message = "token ('a b', 'NN'): empty or with whitespace"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_lexicon(corpus)


def assert_builds_the_reference(corpus):
    assert serialize_lexicon(build_lexicon(corpus)) == serialize_lexicon(
        reference_build_lexicon(corpus)
    )


def test_toy_lexicon_equals_the_per_token_reference(toy):
    assert_builds_the_reference(toy)


# Each tie below is between two tags with equal counts.  Ties go to the
# tag whose first token comes first in the whole corpus, not in the
# word's, suffix's or class's own tokens.
TIES = [
    # a word: "deal" is VB first, but NN's first token ("x") is earlier
    ("x/NN deal/VB deal/NN\n", lambda lexicon: lexicon.word_tags["deal"], "NN"),
    ("x/VB deal/NN deal/VB\n", lambda lexicon: lexicon.word_tags["deal"], "VB"),
    # a 3-character suffix at its floor: "ing" has 4 NN and 4 VBG
    (
        "eing/VBG aing/NN bing/NN cing/NN ding/NN fing/VBG ging/VBG hing/VBG\n",
        lambda lexicon: lexicon.suffix_tags[3].get("ing"),
        "VBG",
    ),
    (
        "aing/NN eing/VBG fing/VBG ging/VBG hing/VBG bing/NN cing/NN ding/NN\n",
        lambda lexicon: lexicon.suffix_tags[3].get("ing"),
        "NN",
    ),
    # a class default: one capitalized NNP and one capitalized NN
    ("dog/NN Rome/NNP Lima/NN\n", lambda lexicon: lexicon.capitalized_tag, "NN"),
    ("x/NNP dog/NN Lima/NN Rome/NNP\n", lambda lexicon: lexicon.capitalized_tag, "NNP"),
]


@pytest.mark.parametrize(
    "text, read, winner",
    TIES,
    ids=["word", "word-swapped", "suffix", "suffix-swapped", "class", "class-swapped"],
)
def test_ties_go_to_the_tag_seen_first(text, read, winner):
    corpus = read_tagged_corpus(text)
    assert read(build_lexicon(corpus)) == winner
    assert_builds_the_reference(corpus)


def test_a_tied_suffix_below_its_floor_has_no_entry():
    # "ng" also ties 4 to 4, one short of the 2-character floor of 5
    lexicon = lex("aing/NN eing/VBG fing/VBG ging/VBG hing/VBG bing/NN cing/NN ding/NN\n")
    assert lexicon.suffix_tags[3] == {"ing": "NN"}
    assert lexicon.suffix_tags[2] == {}


# Words sharing suffixes of every length 2..5, with and without digits
# and capitals, so suffix counts land on both sides of SUFFIX_MIN_COUNT.
WORD_POOL = tuple(
    prefix + ending
    for prefix in ("", "t", "st", "W", "9", "x1")
    for ending in ("ing", "ings", "ation", "ations", "ed")
)


@st.composite
def small_corpora(draw):
    tags = draw(
        st.lists(
            st.sampled_from(("NN", "VB", "JJ", "CD")), min_size=2, max_size=4, unique=True
        )
    )
    token = st.tuples(st.sampled_from(WORD_POOL), st.sampled_from(tags))
    sentence = st.lists(token, min_size=1, max_size=12)
    return TaggedCorpus.from_pairs(draw(st.lists(sentence, min_size=1, max_size=6)))


@given(small_corpora())
def test_pair_counts_build_the_per_token_lexicon(corpus):
    assert serialize_lexicon(build_lexicon(corpus)) == serialize_lexicon(
        reference_build_lexicon(corpus)
    )


def test_serialized_layout():
    lexicon = lex("3/CD Rome/NNP ations/NNS bations/NNS dog/NN\n")
    text = serialize_lexicon(lexicon)
    lines = text.splitlines()
    assert lines[0].startswith("%%NUM%%\t")
    assert lines[1].startswith("%%CAP%%\t")
    assert lines[2].startswith("%%LOW%%\t")
    assert "%%S5%%tions\tNNS" in lines
    # word entries sorted by code point after the reserved block
    words = [l.split("\t")[0] for l in lines if not l.startswith("%%")]
    assert words == sorted(words)


def test_serialize_rejects_reserved_looking_words():
    lexicon = Lexicon(
        word_tags={"%%odd%%": "NN"},
        suffix_tags={},
        numeric_tag="CD",
        capitalized_tag="NNP",
        lowercase_tag="NN",
    )
    with pytest.raises(ValueError):
        serialize_lexicon(lexicon)


# Keys and tags, plain or not: empty, holding a space, tab, newline or
# other whitespace, starting with "%%", and words that sort around "%%".
_ANY_PART = st.one_of(
    st.sampled_from(["dog", "NN", "%%x", "%%", "%&", "%", "$a", "a b", "a\tb", ""]),
    st.text("a%\t\n \u00a0\u2028\x1c", max_size=4),
)


@given(
    st.dictionaries(_ANY_PART, _ANY_PART, max_size=6),
    st.dictionaries(st.sampled_from([2, 3]), st.dictionaries(_ANY_PART, _ANY_PART)),
    st.tuples(_ANY_PART, _ANY_PART, _ANY_PART),
)
@example({"a": "NN", "%%x": "NN", "b c": "NN"}, {}, ("CD", "NNP", "NN"))
@example({"a b": "NN", "%%x": "NN"}, {}, ("CD", "NNP", "NN"))
@example({"a": ""}, {}, ("CD", "NNP", "NN"))
@example({"": "NN"}, {}, ("CD", "NNP", "NN"))
@example({"a\nb": "NN"}, {}, ("CD", "NNP", "NN"))
@example({"a": "N\tN"}, {}, ("CD", "NNP", "NN"))
@example({}, {2: {"ab": "NN"}}, ("", "NNP", "NN"))
def test_serialize_equals_the_per_entry_reference(word_tags, suffix_tags, defaults):
    lexicon = Lexicon(word_tags, suffix_tags, *defaults)
    try:
        want = reference_serialize_lexicon(lexicon)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            serialize_lexicon(lexicon)
        assert str(got.value) == str(exc)
    else:
        assert serialize_lexicon(lexicon) == want


def test_parse_round_trip_many_random_lexicons():
    rng = random.Random(7)
    for _ in range(50):
        lexicon = random_lexicon(rng)
        text = serialize_lexicon(lexicon)
        again = parse_lexicon(text)
        assert again == lexicon
        assert serialize_lexicon(again) == text


def test_parse_errors():
    ok = "%%NUM%%\tCD\n%%CAP%%\tNNP\n%%LOW%%\tNN\n"
    with pytest.raises(LexiconFormatError, match="missing default"):
        parse_lexicon("%%NUM%%\tCD\n")
    with pytest.raises(LexiconFormatError, match="duplicate"):
        parse_lexicon(ok + "dog\tNN\ndog\tVB\n")
    with pytest.raises(LexiconFormatError, match="duplicate %%NUM%%"):
        parse_lexicon(ok + "%%NUM%%\tCD\n")
    with pytest.raises(LexiconFormatError, match="line 5: duplicate suffix 'abc'"):
        parse_lexicon(ok + "%%S3%%abc\tNN\n%%S3%%abc\tVB\n")
    with pytest.raises(LexiconFormatError, match="not 3 characters"):
        parse_lexicon(ok + "%%S3%%abcd\tNN\n")
    with pytest.raises(LexiconFormatError, match="unknown reserved"):
        parse_lexicon(ok + "%%S9%%abc\tNN\n")
    with pytest.raises(LexiconFormatError, match="expected"):
        parse_lexicon(ok + "no-tab-here\n")
    with pytest.raises(LexiconFormatError, match="line 4: expected"):
        parse_lexicon(ok + "two\ttabs\there\n")


DEFAULT_ENTRIES = "%%NUM%%\tCD\n%%CAP%%\tNNP\n%%LOW%%\tNN\n"


@pytest.mark.parametrize(
    "entry",
    [
        "two words\tNN",
        "zzz\tN N",
        "zz\x1fz\tNN",
        "zzz\tNN\u00a0",
        "\u3000zzz\tNN",
    ],
)
def test_parse_refuses_keys_and_tags_with_whitespace(entry):
    # the line after the three defaults and one good entry
    with pytest.raises(LexiconFormatError, match="^line 5: whitespace"):
        parse_lexicon(DEFAULT_ENTRIES + "dog\tNN\n" + entry + "\n")


def test_stray_whitespace_is_str_isspace_but_tab_and_newline():
    every = set(map(chr, range(sys.maxunicode + 1)))
    stray = {c for c in every if c.isspace()} - {"\t", "\n"}
    assert len(_STRAY_WHITESPACE) == len(stray) == 27
    assert set(_STRAY_WHITESPACE) == stray
    # one text holding every other character has none
    assert not _has_stray_whitespace("".join(sorted(every - stray)))
    # texts whose widest character takes one, two and four bytes
    for text in ("a\tb\n", "\u00e9\tb\n", "\u0100\tb\n", "\U0001f600\tb\n"):
        assert not _has_stray_whitespace(text)
        assert all(_has_stray_whitespace(text + c) for c in stray)
        assert all(_has_stray_whitespace(c + text) for c in stray)


_lexicon_part = st.one_of(
    st.sampled_from(["dog", "NN", "%%S2%%ab", "%%S2%%a b", "%%LOW%%"]),
    st.text("ab% \t\u00a0\u3000\r", max_size=4),
)


@given(st.lists(st.tuples(_lexicon_part, _lexicon_part), max_size=6))
@example([("two words", "NN")])
@example([("zzz", "N N")])
@example([("zzz", "N\tN")])
def test_the_writer_takes_whatever_the_reader_accepts(entries):
    text = DEFAULT_ENTRIES + "".join(f"{key}\t{tag}\n" for key, tag in entries)
    try:
        lexicon = parse_lexicon(text)
    except LexiconFormatError:
        return
    assert parse_lexicon(serialize_lexicon(lexicon)) == lexicon
