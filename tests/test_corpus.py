import pytest
from hypothesis import example, given, strategies as st

from rippletag.corpus import (
    AlignmentError,
    CorpusParseError,
    TaggedCorpus,
    Token,
    check_aligned,
    check_separator,
    read_raw,
    read_tagged_corpus,
    render_tagged,
    split_folds,
    write_tagged_corpus,
)

from helpers import reference_write_tagged_corpus, strip_tags


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


def test_equal_words_and_tags_are_one_object_within_a_read():
    text = "the/DT can/NN fell/VBD\nyou/PRP can/MD go/VB\nthe/DT dog/NN\n"
    corpus = read_tagged_corpus(text)
    (the, can_nn, _), (_, can_md, _), (the_again, dog) = corpus.sentences
    assert can_nn.word is can_md.word
    assert the.word is the_again.word and the.tag is the_again.tag
    assert can_nn.tag is dog.tag
    for field in ("word", "tag"):
        values = [getattr(token, field) for token in corpus.tokens()]
        assert len({id(value) for value in values}) == len(set(values))
    # a second read builds its own strings and an equal corpus
    again = read_tagged_corpus(text)
    assert again == corpus
    assert again.sentences[0][1].word is not can_nn.word


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
    # no "::" inside the tag, but "ok:::x" would read back as ("ok:", "x")
    with pytest.raises(ValueError, match="tag ':x' does not read back"):
        write_tagged_corpus(TaggedCorpus.from_pairs([[("ok", ":x")]]), "::")


_piece = st.one_of(
    st.sampled_from(["a", "NN", "1/2", "a::b"]),
    st.text("ab/: \t\xa0\u2028", max_size=3),
)


@given(
    st.lists(st.lists(st.tuples(_piece, _piece), max_size=4), max_size=5),
    st.sampled_from(["/", "::", "aa"]),
)
# a bad token after good tokens with the same tag
@example([[("a", "NN")], [("b", "NN"), ("c", "N/N")]], "/")
@example([[("a", "NN")], [("b", "NN"), ("c", "/")]], "/")
@example([[("a", "NN")], [("b c", "NN")]], "/")
@example([[("a", "NN")], [], [("b", "NN"), ("", "NN")]], "::")
# tags a later separator would cut
@example([[("w", ":x")]], "::")
@example([[("w", "ax")]], "aa")
# two bad tokens, in two sentences: the error names the first
@example([[("a", "N/N")], [("b", "NN"), ("c d", "NN")]], "/")
def test_writer_fails_like_the_per_token_checks(sentences, separator):
    """``write_tagged_corpus`` gives the per-token writer's text or its error."""
    # a TaggedCorpus holds no empty sentence
    sentences = [s for s in sentences if s]
    corpus = TaggedCorpus.from_pairs(sentences)
    try:
        want = reference_write_tagged_corpus(sentences, separator)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            write_tagged_corpus(corpus, separator)
        assert str(got.value) == str(exc)
    else:
        text = write_tagged_corpus(corpus, separator)
        assert text == want
        # and whatever the writer writes reads back
        assert read_tagged_corpus(text, separator) == corpus


# words may hold the separator, tags hold none of it
_plain_pairs = st.tuples(
    st.sampled_from(["a", "NN", "1/2", "a::b", "b:"]),
    st.sampled_from(["NN", "X", "VB$"]),
)


@given(
    st.lists(st.lists(_plain_pairs, max_size=3), max_size=10),
    st.lists(st.integers(0, 10), max_size=4),
    st.sampled_from(["/", "::"]),
)
# blank lines first, in a run and last; an all-blank block; one-token lines
@example([[], [("a", "NN")], [], [], [("b:", "X")], []], [0, 1, 3, 6], "/")
@example([[], [], [("a", "NN"), ("1/2", "X")], [], [], []], [2], "::")
@example([[], [], []], [1], "/")
def test_render_tagged_writes_what_the_per_token_writer_writes(
    sentences, cuts, separator
):
    """The text of a corpus cut into blocks, each one ``render_tagged`` call."""
    bounds = [0, *sorted(cut for cut in cuts if cut <= len(sentences)), len(sentences)]
    got = ""
    for start, end in zip(bounds, bounds[1:]):
        block = sentences[start:end]
        got += render_tagged(
            [word for pairs in block for word, _ in pairs],
            [tag for pairs in block for _, tag in pairs],
            [len(pairs) for pairs in block],
            separator,
        )
    assert got == reference_write_tagged_corpus(sentences, separator)


def test_render_tagged_refuses_lengths_or_tags_that_do_not_fit():
    with pytest.raises(ValueError):
        render_tagged(["a", "b"], ["X", "Y"], [1], "/")
    with pytest.raises(ValueError):
        render_tagged(["a"], ["X"], [1, 1], "/")
    with pytest.raises(ValueError):
        render_tagged(["a", "b"], ["X"], [2], "/")


def test_empty_sentence_rejected():
    with pytest.raises(ValueError):
        TaggedCorpus(((),))


def test_strip_tags_and_read_raw():
    corpus = read_tagged_corpus("the/DT dog/NN\nran/VBD\n")
    raw = strip_tags(corpus)
    assert raw == "the dog\nran\n"
    assert read_raw(raw) == [["the", "dog"], ["ran"]]


def test_read_raw_skips_blank_lines_and_splits_only_at_newline():
    assert read_raw("a b\n\n c\rd \r\n") == [["a", "b"], ["c", "d"]]
    assert read_raw("a\n  ") == [["a"]]
    assert read_raw("\n") == []
    assert read_raw("") == []
    assert read_raw("a\n\nb") == [["a"], ["b"]]


def _numbered(n):
    return TaggedCorpus.from_pairs([[(f"w{i}", "T")] for i in range(n)])


def test_split_parts_sizes_larger_first():
    parts = [test for _, test in split_folds(_numbered(23), 10)]
    assert [len(p) for p in parts] == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]


def test_split_parts_are_contiguous():
    corpus = _numbered(11)
    parts = [test for _, test in split_folds(corpus, 4)]
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


def test_check_aligned_reports_lengths_before_words():
    a = read_tagged_corpus("x/A y/B\nz/C\n")
    b = read_tagged_corpus("x/A w/B\nz/C z/C\n")
    with pytest.raises(AlignmentError, match="^sentence 2: token counts differ"):
        check_aligned(a, b)


@pytest.mark.parametrize("separator", ["", " ", "\t", "a b", "\u00a0", "/\n", 5])
def test_check_separator_refuses_what_cannot_split_a_token(separator):
    with pytest.raises(ValueError, match="'separator' must be"):
        check_separator(separator)


@pytest.mark.parametrize("separator", ["/", "_", "::", "\u00e9"])
def test_check_separator_takes_any_other_string(separator):
    check_separator(separator)


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
    parts = [test for _, test in split_folds(corpus, k)]
    assert tuple(s for p in parts for s in p.sentences) == corpus.sentences
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1
    assert sorted(sizes, reverse=True) == sizes
