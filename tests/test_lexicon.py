import random
import sys

import pytest
from hypothesis import given, strategies as st

from rippletag.corpus import TaggedCorpus, read_tagged_corpus
from rippletag.initial_tagger import InitialTagger, initialize_corpus
from rippletag.lexicon import (
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
    reference_suffix_tag,
)


def lex(text):
    return build_lexicon(read_tagged_corpus(text))


def test_most_frequent_tag_wins():
    lexicon = lex("run/VB run/VB run/NN\n")
    assert lexicon.most_frequent_tag("run") == "VB"


def test_tag_tie_goes_to_earliest_seen_tag():
    # both tags occur twice; NN appeared first in the corpus
    lexicon = lex("deal/NN deal/VB deal/VB deal/NN\n")
    assert lexicon.most_frequent_tag("deal") == "NN"
    lexicon = lex("deal/VB deal/NN deal/NN deal/VB\n")
    assert lexicon.most_frequent_tag("deal") == "VB"


def test_unknown_word_has_no_entry():
    assert lex("a/DT\n").most_frequent_tag("b") is None


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
    assert [t.tag for t in initialize_corpus(gold, tagger).tokens()] == ["DT"] * 3
    assert tagger.tag_word("b") == "NN"


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
    with pytest.raises(LexiconFormatError, match="not 3 characters"):
        parse_lexicon(ok + "%%S3%%abcd\tNN\n")
    with pytest.raises(LexiconFormatError, match="unknown reserved"):
        parse_lexicon(ok + "%%S9%%abc\tNN\n")
    with pytest.raises(LexiconFormatError, match="expected"):
        parse_lexicon(ok + "no-tab-here\n")
