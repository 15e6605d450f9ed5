import pytest

from rippletag.corpus import read_tagged_corpus
from rippletag.initial_tagger import (
    DEFAULT_ENGLISH_RULES,
    InitialTagger,
    InitialTaggerOptions,
    initialize_corpus,
    parse_regex_rules,
)
from rippletag.lexicon import build_lexicon

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
    assert lexicon.suffix_tag("zally", 4) == "JJ"
    assert lexicon.suffix_tag("zly", 2) == "RB"
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
