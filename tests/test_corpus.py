import sys

import pytest
from hypothesis import example, given, strategies as st

from rippletag.corpus import (
    _WHITESPACE,
    AlignmentError,
    CorpusParseError,
    TaggedCorpus,
    Token,
    check_aligned,
    read_lines,
    read_raw,
    read_tagged_corpus,
    split_folds,
    split_parts,
    strip_tags,
    write_tagged_corpus,
)

from helpers import reference_write_tagged_corpus


def test_parse_basic():
    corpus = read_tagged_corpus("the/DT dog/NN barks/VBZ\nit/PRP ran/VBD\n")
    assert len(corpus) == 2
    assert corpus.sentences[0] == (
        Token("the", "DT"),
        Token("dog", "NN"),
        Token("barks", "VBZ"),
    )
    assert corpus.token_count == 5
    assert corpus.tagset == {"DT", "NN", "VBZ", "PRP", "VBD"}


def test_parse_splits_at_rightmost_separator():
    # words may contain the separator; tags may not
    corpus = read_tagged_corpus("1/2/CD ././.")
    assert corpus.sentences[0] == (Token("1/2", "CD"), Token("./.", "."))


def test_parse_skips_blank_lines_and_collapses_spaces():
    corpus = read_tagged_corpus("\n  a/DT   b/NN  \n\n c/VB\n\n")
    assert [len(s) for s in corpus.sentences] == [2, 1]


def test_parse_custom_separator():
    corpus = read_tagged_corpus("la_DT maison_NC", separator="_")
    assert corpus.sentences[0] == (Token("la", "DT"), Token("maison", "NC"))


def test_parse_error_names_the_line():
    with pytest.raises(CorpusParseError, match="line 3"):
        read_tagged_corpus("a/DT\nb/NN\nc\n")


def test_parse_error_counts_only_newline_line_breaks():
    # U+2028 and U+0085 are whitespace inside a line, not line ends
    with pytest.raises(CorpusParseError, match="line 2:"):
        read_tagged_corpus("a/DT\u2028b/NN\u0085c/VB\nd/DT e\n")


def test_parse_error_on_empty_word_or_tag():
    with pytest.raises(CorpusParseError, match="empty"):
        read_tagged_corpus("/DT")
    with pytest.raises(CorpusParseError, match="empty"):
        read_tagged_corpus("dog/")


def test_write_then_read_round_trip():
    text = "the/DT dog/NN\n1/2/CD x/SYM\n"
    corpus = read_tagged_corpus(text)
    assert write_tagged_corpus(corpus) == text


def test_write_rejects_unwritable_tokens():
    with pytest.raises(ValueError):
        write_tagged_corpus(TaggedCorpus.from_pairs([[("a b", "NN")]]))
    with pytest.raises(ValueError):
        write_tagged_corpus(TaggedCorpus.from_pairs([[("ok", "N/N")]]))


def test_write_renders_plain_pairs_and_empty_sentences_as_blank_lines():
    sentences = [[("a", "X"), ("1/2", "CD")], [], iter([("b", "Y")])]
    assert write_tagged_corpus(sentences) == "a/X 1/2/CD\n\nb/Y\n"


def test_whitespace_pattern_is_str_isspace():
    # the writer's whole-sentence check stands in for str.isspace
    differ = [
        c for c in map(chr, range(sys.maxunicode + 1))
        if (_WHITESPACE.match(c) is not None) != c.isspace()
    ]
    assert differ == []


_piece = st.one_of(
    st.sampled_from(["a", "NN", "1/2", "a::b"]),
    st.text("ab/: \t\xa0\u2028", max_size=3),
)


@given(
    st.lists(st.lists(st.tuples(_piece, _piece), max_size=4), max_size=5),
    st.sampled_from(["/", "::"]),
)
# a bad token after a sentence that already vouched for its tag
@example([[("a", "NN")], [("b", "NN"), ("c", "N/N")]], "/")
@example([[("a", "NN")], [("b", "NN"), ("c", "/")]], "/")
@example([[("a", "NN")], [("b c", "NN")]], "/")
@example([[("a", "NN")], [], [("b", "NN"), ("", "NN")]], "::")
def test_writer_fails_like_the_per_token_checks(sentences, separator):
    try:
        want = reference_write_tagged_corpus(sentences, separator)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            write_tagged_corpus(sentences, separator)
        assert str(got.value) == str(exc)
    else:
        assert write_tagged_corpus(sentences, separator) == want


def test_empty_sentence_rejected():
    with pytest.raises(ValueError):
        TaggedCorpus(((),))


def test_tags_in_order_follows_first_occurrence():
    corpus = read_tagged_corpus("a/Z b/A c/Z d/M\n")
    assert corpus.tags_in_order() == ("Z", "A", "M")


def test_strip_tags_and_read_raw():
    corpus = read_tagged_corpus("the/DT dog/NN\nran/VBD\n")
    raw = strip_tags(corpus)
    assert raw == "the dog\nran\n"
    assert read_raw(raw) == [["the", "dog"], ["ran"]]


def test_read_lines_keeps_blank_lines_and_splits_only_at_newline():
    assert read_lines("a b\n\n c\rd \r\n") == [["a", "b"], [], ["c", "d"]]
    assert read_lines("a\n  ") == [["a"], []]
    assert read_lines("\n") == [[]]
    assert read_lines("") == []
    assert read_raw("a\n\nb") == [["a"], ["b"]]


def _numbered(n):
    return TaggedCorpus.from_pairs([[(f"w{i}", "T")] for i in range(n)])


def test_split_parts_sizes_larger_first():
    parts = split_parts(_numbered(23), 10)
    assert [len(p) for p in parts] == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]


def test_split_parts_are_contiguous():
    corpus = _numbered(11)
    parts = split_parts(corpus, 4)
    rebuilt = [s for p in parts for s in p.sentences]
    assert tuple(rebuilt) == corpus.sentences


def test_split_folds_train_and_test_partition():
    corpus = _numbered(10)
    folds = split_folds(corpus, 5)
    assert len(folds) == 5
    for train, test in folds:
        assert len(train) + len(test) == 10
        train_words = {t.word for t in train.tokens()}
        test_words = {t.word for t in test.tokens()}
        assert not train_words & test_words


def test_split_folds_rejects_bad_k():
    with pytest.raises(ValueError):
        split_folds(_numbered(5), 1)
    with pytest.raises(ValueError):
        split_folds(_numbered(5), 6)


def test_check_aligned():
    a = read_tagged_corpus("x/A y/B\n")
    b = read_tagged_corpus("x/C y/D\n")
    check_aligned(a, b)
    with pytest.raises(AlignmentError, match="sentence counts"):
        check_aligned(a, read_tagged_corpus("x/A y/B\nz/C\n"))
    with pytest.raises(AlignmentError, match="token counts"):
        check_aligned(a, read_tagged_corpus("x/A\n"))
    with pytest.raises(AlignmentError, match="words differ"):
        check_aligned(a, read_tagged_corpus("x/A z/B\n"))


token_text = st.text(
    st.characters(blacklist_categories=("Zs", "Cc", "Cs")), min_size=1, max_size=8
)
tag_text = token_text.filter(lambda s: "/" not in s)
sentence = st.lists(st.tuples(token_text, tag_text), min_size=1, max_size=6)


@given(st.lists(sentence, min_size=1, max_size=8))
def test_round_trip_any_writable_corpus(pairs):
    corpus = TaggedCorpus.from_pairs(pairs)
    again = read_tagged_corpus(write_tagged_corpus(corpus))
    assert again == corpus


@given(st.lists(sentence, min_size=2, max_size=12), st.integers(2, 12))
def test_parts_always_reassemble(pairs, k):
    corpus = TaggedCorpus.from_pairs(pairs)
    if k > len(corpus):
        return
    parts = split_parts(corpus, k)
    assert tuple(s for p in parts for s in p.sentences) == corpus.sentences
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1
    assert sorted(sizes, reverse=True) == sizes
