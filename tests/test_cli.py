import errno
import gc
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import tempfile
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from rippletag import cli
from rippletag.cli import main
from rippletag.corpus import (
    TaggedCorpus,
    check_separator,
    read_tagged_corpus,
    render_tagged,
    write_tagged_corpus,
)
from rippletag.data import toy_corpus_path
from rippletag.learner import TrainOptions
from rippletag.tagger import Tagger, load_model, save_model

from helpers import (
    count_tagger_json_loads,
    deep_tree_text,
    reference_tag_text,
    strip_tags,
)

MICRO = "the/DT can/NN fell/VBD\n" * 6 + "you/PRP can/MD go/VB\n" * 5


@pytest.fixture()
def micro_file(tmp_path):
    path = tmp_path / "micro.tagged"
    path.write_text(MICRO, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    model_dir = tmp_path_factory.mktemp("cli") / "model"
    code = main(
        ["train", "--corpus", str(toy_corpus_path()), "--model", str(model_dir)]
    )
    assert code == 0
    return model_dir


class TestTrain:
    def test_writes_a_loadable_model(self, trained_dir, capsys):
        for name in ("model.rdr", "model.lex", "model.json", "audit.jsonl"):
            assert (trained_dir / name).exists()

    def test_audit_header_records_the_default_floors(self, trained_dir):
        first = (trained_dir / "audit.jsonl").read_text().splitlines()[0]
        header = json.loads(first)
        assert header["event"] == "begin"
        assert header["layer2_threshold"] == 3
        assert header["deeper_threshold"] == 2

    def test_reports_progress_on_stderr(self, micro_file, tmp_path, capsys):
        code = main(
            ["train", "--corpus", str(micro_file), "--model", str(tmp_path / "m")]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""
        assert "trained 6 rules from 33 tokens" in captured.err

    def test_custom_separator_round_trips(self, tmp_path, capsys):
        corpus = tmp_path / "under.tagged"
        corpus.write_text(MICRO.replace("/", "_"), encoding="utf-8")
        model_dir = tmp_path / "m"
        code = main(
            [
                "train",
                "--corpus",
                str(corpus),
                "--model",
                str(model_dir),
                "--separator",
                "_",
            ]
        )
        assert code == 0
        meta = json.loads((model_dir / "model.json").read_text())
        assert meta["separator"] == "_"
        raw = tmp_path / "raw.txt"
        raw.write_text("you can go\n", encoding="utf-8")
        out = tmp_path / "out.tagged"
        code = main(
            ["tag", "--model", str(model_dir), "--input", str(raw), "--output", str(out)]
        )
        assert code == 0
        assert out.read_text() == "you_PRP can_MD go_VB\n"

    def test_failed_save_leaves_no_model_directory(self, tmp_path, capsys):
        corpus = tmp_path / "reserved.tagged"
        corpus.write_text(MICRO + "%%x/NN fell/VBD\n", encoding="utf-8")
        model_dir = tmp_path / "m"
        code = main(["train", "--corpus", str(corpus), "--model", str(model_dir)])
        assert code == 2
        assert "%%x" in capsys.readouterr().err
        assert not model_dir.exists()

    def test_reserved_word_fails_before_learning(self, tmp_path, capsys, monkeypatch):
        def learn_tree(*args, **kwargs):
            raise AssertionError("learning started on a corpus that cannot be saved")

        monkeypatch.setattr("rippletag.learner.learn_tree", learn_tree)
        corpus = tmp_path / "reserved.tagged"
        corpus.write_text(MICRO + "%%x/NN fell/VBD\n", encoding="utf-8")
        model_dir = tmp_path / "m"
        code = main(["train", "--corpus", str(corpus), "--model", str(model_dir)])
        assert code == 2
        assert "%%x" in capsys.readouterr().err
        assert not model_dir.exists()

    def test_crlf_corpus_trains_the_lf_model(self, micro_file, tmp_path, capsys):
        crlf_file = tmp_path / "crlf.tagged"
        crlf_file.write_bytes(MICRO.replace("\n", "\r\n").encode())
        for name, corpus in (("lf", micro_file), ("crlf", crlf_file)):
            argv = ["train", "--corpus", str(corpus), "--model", str(tmp_path / name)]
            assert main(argv) == 0
        for name in ("model.rdr", "model.lex", "model.json", "audit.jsonl"):
            lf_bytes = (tmp_path / "lf" / name).read_bytes()
            assert (tmp_path / "crlf" / name).read_bytes() == lf_bytes

    def test_custom_regex_rules_file(self, micro_file, tmp_path):
        rules = tmp_path / "rules.tsv"
        rules.write_text(".*ly$\tRB\n^[A-Z].*\tNNP\n", encoding="utf-8")
        code = main(
            [
                "train",
                "--corpus",
                str(micro_file),
                "--model",
                str(tmp_path / "m"),
                "--mode",
                "english-regex",
                "--regex-rules",
                str(rules),
            ]
        )
        assert code == 0


class TestTag:
    def test_round_trip_through_files(self, trained_dir, tmp_path, capsys):
        raw = tmp_path / "in.txt"
        raw.write_text("the team works\nshe walks\n", encoding="utf-8")
        out = tmp_path / "out.tagged"
        code = main(
            ["tag", "--model", str(trained_dir), "--input", str(raw), "--output", str(out)]
        )
        assert code == 0
        tagged = read_tagged_corpus(out.read_text())
        assert [[t.word for t in s] for s in tagged.sentences] == [
            ["the", "team", "works"],
            ["she", "walks"],
        ]
        assert "tagged 5 tokens in 2 sentences" in capsys.readouterr().err

    def test_unicode_line_separator_keeps_one_output_line(
        self, trained_dir, tmp_path, capsys
    ):
        raw = tmp_path / "in.txt"
        raw.write_text("a b\u2028c\n", encoding="utf-8")
        out = tmp_path / "out.tagged"
        code = main(
            ["tag", "--model", str(trained_dir), "--input", str(raw), "--output", str(out)]
        )
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert text.count("\n") == 1 and text.endswith("\n")
        tagged = read_tagged_corpus(text)
        assert [[t.word for t in s] for s in tagged.sentences] == [["a", "b", "c"]]

    @staticmethod
    def _run_tag(model_dir, raw, out) -> int:
        return main(
            ["tag", "--model", str(model_dir), "--input", str(raw), "--output", str(out)]
        )

    def _tag(self, model_dir, tmp_path, data: bytes) -> list[str]:
        raw = tmp_path / "in.txt"
        raw.write_bytes(data)
        out = tmp_path / "out.tagged"
        assert self._run_tag(model_dir, raw, out) == 0
        return out.read_bytes().decode("utf-8").split("\n")

    def test_blank_lines_keep_their_place(self, trained_dir, tmp_path, capsys):
        lines = self._tag(trained_dir, tmp_path, b"she walks\n\n \nthe team works\n")
        assert len(lines) == 5 and lines[1:3] == ["", ""] and lines[4] == ""
        assert [t.split("/")[0] for t in lines[0].split()] == ["she", "walks"]
        assert [t.split("/")[0] for t in lines[3].split()] == ["the", "team", "works"]
        assert "tagged 5 tokens in 2 sentences" in capsys.readouterr().err

    def test_a_block_stays_below_the_collectors_first_threshold(
        self, toy, trained_dir, tmp_path, capsys
    ):
        # each block's lists are freed when it is written, so the
        # collector's generation-0 count stays below its threshold; blocks
        # of 1,000 lines, about 1,000 lists each, run 6 passes over this
        # text where the threshold is 700 (CPython 3.10 to 3.12)
        raw = tmp_path / "in.txt"
        raw.write_text(strip_tags(toy) * 7, encoding="utf-8")
        passes = []

        def count(phase, info):
            if phase == "start" and info["generation"] == 0:
                passes.append(info)

        assert gc.isenabled()
        gc.collect()
        gc.callbacks.append(count)
        try:
            assert self._run_tag(trained_dir, raw, tmp_path / "out.tagged") == 0
        finally:
            gc.callbacks.remove(count)
        err = capsys.readouterr().err
        assert f"tagged {toy.token_count * 7} tokens in {len(toy) * 7} sentences" in err
        assert len(passes) <= 2, passes

    def test_lone_carriage_return_stays_inside_its_line(
        self, trained_dir, tmp_path, capsys
    ):
        lines = self._tag(
            trained_dir, tmp_path, b"the vet\rvets .\n\nit grerneaped\r\n"
        )
        assert len(lines) == 4 and lines[1] == "" and lines[3] == ""
        words = [[t.rpartition("/")[0] for t in line.split()] for line in lines]
        assert words[0] == ["the", "vet", "vets", "."]
        assert words[2] == ["it", "grerneaped"]

    def test_crlf_input_tags_like_lf(self, trained_dir, tmp_path, capsys):
        text = "the team works\nshe walks .\n"
        lf = self._tag(trained_dir, tmp_path, text.encode())
        crlf = self._tag(trained_dir, tmp_path, text.replace("\n", "\r\n").encode())
        assert crlf == lf and len(lf) == 3

    def test_hand_written_model_corrects_the_known_sentence(
        self, example_tree_text, tmp_path, capsys
    ):
        from rippletag.lexicon import Lexicon
        from rippletag.scrdr import parse_tree
        from rippletag.tagger import Model, save_model

        lexicon = Lexicon(
            word_tags={
                "as": "IN",
                "investors": "NNS",
                "anticipate": "VB",
                "a": "DT",
                "recovery": "NN",
            },
            suffix_tags={n: {} for n in (2, 3, 4, 5)},
            numeric_tag="CD",
            capitalized_tag="NNP",
            lowercase_tag="NN",
        )
        model_dir = tmp_path / "hand"
        save_model(
            Model(lexicon=lexicon, tree=parse_tree(example_tree_text)), model_dir
        )
        raw = tmp_path / "raw.txt"
        raw.write_text("as investors anticipate a recovery\n", encoding="utf-8")
        out = tmp_path / "out.tagged"
        code = main(
            ["tag", "--model", str(model_dir), "--input", str(raw), "--output", str(out)]
        )
        assert code == 0
        assert out.read_text() == "as/IN investors/NNS anticipate/VBP a/DT recovery/NN\n"

    def test_a_model_nested_deeper_than_the_recursion_limit_tags(
        self, trained_dir, tmp_path, capsys
    ):
        depth = sys.getrecursionlimit() + 200
        model_dir = tmp_path / "deep"
        shutil.copytree(trained_dir, model_dir)
        (model_dir / "model.rdr").write_text(deep_tree_text(depth), encoding="utf-8")
        raw = tmp_path / "raw.txt"
        raw.write_text(f"x w{depth} x x\n", encoding="utf-8")
        out = tmp_path / "out.tagged"
        code = main(
            ["tag", "--model", str(model_dir), "--input", str(raw), "--output", str(out)]
        )
        assert code == 0
        tags = [token.rpartition("/")[2] for token in out.read_text().split()]
        assert tags[1:] == [f"L{depth}", tags[0], f"C{depth}"]

    # Tagged three lines at a time, these run over several blocks, with
    # blank and whitespace-only lines at block edges, a lone "\r", a
    # U+2028, CRLF lines, and with or without a final newline.
    BLOCK_EDGES = (
        "the team works\n\n \t \n"
        " \nshe walks\u2028the vet\nit grerneaped\r\n"
        "\r\nthe vet\rvets .\n\n"
        "she walks"
    )

    @pytest.mark.parametrize(
        "text",
        [BLOCK_EDGES, BLOCK_EDGES + "\n", "she walks\n" * 6, "\n", ""],
        ids=["no-final-newline", "final-newline", "whole-blocks", "one-blank", "empty"],
    )
    def test_blocks_write_what_the_whole_text_writes(
        self, trained_dir, tmp_path, capsys, monkeypatch, text
    ):
        monkeypatch.setattr(cli, "TAG_BLOCK_LINES", 3)
        got = self._tag(trained_dir, tmp_path, text.encode("utf-8"))
        want = reference_tag_text(Tagger(load_model(trained_dir)), text)
        assert "\n".join(got) == want

    def test_every_block_size_writes_the_same_lines(
        self, trained_dir, tmp_path, capsys, monkeypatch
    ):
        # a leading blank line, a run of blank lines, a whitespace-only
        # line and a last line without "\n", at and away from block edges
        text = (
            "\nthe team works\n\n\n\nshe walks\n \t \nthe vet\n"
            + "she walks\n" * 4
            + "\nit grerneaped"
        )
        got = {}
        for size in (1, 3, 256):
            monkeypatch.setattr(cli, "TAG_BLOCK_LINES", size)
            lines = self._tag(trained_dir, tmp_path, text.encode("utf-8"))
            got[size] = "\n".join(lines)
        assert got[3] == got[1] and got[256] == got[1]
        lines = got[1].split("\n")
        # one line per input line, each ended by "\n", blank where the input's is
        assert lines.pop() == ""
        assert [line == "" for line in lines] == [
            not line.strip() for line in text.split("\n")
        ]

    def test_bad_input_in_a_later_block_leaves_the_output_as_it_was(
        self, trained_dir, tmp_path, capsys, monkeypatch
    ):
        raw = tmp_path / "in.txt"
        # past the first chunk the reader decodes, so blocks are written first
        raw.write_bytes(b"the team works\n" * 2000 + b"she \xff walks\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "out.tagged"
        out.write_bytes(b"old output\n")
        blocks = []

        def counting_renderer(words, tags, lengths, separator):
            blocks.append(lengths)
            return render_tagged(words, tags, lengths, separator)

        monkeypatch.setattr(cli, "TAG_BLOCK_LINES", 3)
        monkeypatch.setattr(cli, "render_tagged", counting_renderer)
        assert self._run_tag(trained_dir, raw, out) == 2
        assert "utf-8" in capsys.readouterr().err
        assert len(blocks) > 1
        assert out.read_bytes() == b"old output\n"
        assert os.listdir(out_dir) == ["out.tagged"]

    @pytest.mark.parametrize(
        "name, tag",
        [("model.rdr", "N N"), ("model.rdr", "a/b"), ("model.lex", "a/b")],
    )
    def test_a_model_with_an_unwritable_tag_fails_before_any_output(
        self, trained_dir, tmp_path, capsys, name, tag
    ):
        model_dir = tmp_path / "m"
        shutil.copytree(trained_dir, model_dir)
        path = model_dir / name
        lines = path.read_text(encoding="utf-8").split("\n")
        if name == "model.rdr":
            # the first rule below the root
            lines[1] = re.sub(r'tag = "[^"]*"$', f'tag = "{tag}"', lines[1])
        else:
            key, _, _ = lines[0].partition("\t")
            lines[0] = f"{key}\t{tag}"
        path.write_text("\n".join(lines), encoding="utf-8")
        raw = tmp_path / "in.txt"
        raw.write_text("the team works\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "out.tagged"
        out.write_bytes(b"old output\n")
        assert self._run_tag(model_dir, raw, out) == 2
        err = capsys.readouterr().err
        assert str(path) in err and repr(tag) in err
        assert out.read_bytes() == b"old output\n"
        assert os.listdir(out_dir) == ["out.tagged"]

    def test_a_malformed_audit_line_does_not_stop_tag(
        self, toy, trained_dir, tmp_path, capsys
    ):
        model_dir = tmp_path / "m"
        shutil.copytree(trained_dir, model_dir)
        with open(model_dir / "audit.jsonl", "a", encoding="utf-8") as f:
            f.write("{not json\n")
        raw = tmp_path / "in.txt"
        raw.write_text(strip_tags(toy), encoding="utf-8")
        assert self._run_tag(model_dir, raw, tmp_path / "broken.tagged") == 0
        assert self._run_tag(trained_dir, raw, tmp_path / "intact.tagged") == 0
        broken = (tmp_path / "broken.tagged").read_bytes()
        assert broken == (tmp_path / "intact.tagged").read_bytes()

    def test_an_audit_that_is_not_utf8_fails_tag(self, trained_dir, tmp_path, capsys):
        model_dir = tmp_path / "m"
        shutil.copytree(trained_dir, model_dir)
        audit_path = model_dir / "audit.jsonl"
        audit_path.write_bytes(audit_path.read_bytes() + b'{"event": "\xff"}\n')
        raw = tmp_path / "in.txt"
        raw.write_text("the team works\n", encoding="utf-8")
        assert self._run_tag(model_dir, raw, tmp_path / "out.tagged") == 2
        err = capsys.readouterr().err
        assert str(audit_path) in err and "not UTF-8" in err
        assert not (tmp_path / "out.tagged").exists()

    def test_tag_parses_only_the_meta_file(
        self, trained_dir, tmp_path, capsys, monkeypatch
    ):
        raw = tmp_path / "in.txt"
        raw.write_text("the team works\n", encoding="utf-8")
        loads = count_tagger_json_loads(monkeypatch)
        assert self._run_tag(trained_dir, raw, tmp_path / "out.tagged") == 0
        loads.assert_called_once_with((trained_dir / "model.json").read_text())

    @pytest.mark.parametrize("old_mode", [None, 0o604], ids=["new", "existing"])
    def test_the_output_gets_the_mode_open_would_give(
        self, trained_dir, tmp_path, capsys, old_mode
    ):
        raw = tmp_path / "in.txt"
        raw.write_text("she walks\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out, control = out_dir / "out.tagged", tmp_path / "control"
        umask = os.umask(0o027)
        try:
            if old_mode is not None:
                for path in (out, control):
                    path.write_bytes(b"old output\n")
                    path.chmod(old_mode)
            with open(control, "w"):
                pass
            assert self._run_tag(trained_dir, raw, out) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(control.stat().st_mode)
        assert os.listdir(out_dir) == ["out.tagged"]
        assert out.read_text(encoding="utf-8").startswith("she/")

    def test_the_input_may_be_the_output(self, trained_dir, tmp_path, capsys, monkeypatch):
        text = "she walks\n" * 7
        path = tmp_path / "in.txt"
        path.write_text(text, encoding="utf-8")
        monkeypatch.setattr(cli, "TAG_BLOCK_LINES", 3)
        assert self._run_tag(trained_dir, path, path) == 0
        want = reference_tag_text(Tagger(load_model(trained_dir)), text)
        assert path.read_text(encoding="utf-8") == want

    def test_a_symlinked_output_is_written_through(self, trained_dir, tmp_path, capsys):
        raw = tmp_path / "in.txt"
        raw.write_text("she walks\n", encoding="utf-8")
        target = tmp_path / "target"
        target.write_bytes(b"old output\n")
        link = tmp_path / "link"
        link.symlink_to(target)
        assert self._run_tag(trained_dir, raw, link) == 0
        assert link.is_symlink()
        assert target.read_text(encoding="utf-8").startswith("she/")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_fifo_output_is_written_in_place(self, trained_dir, tmp_path, capsys):
        raw = tmp_path / "in.txt"
        raw.write_text("she walks\n", encoding="utf-8")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        # a reader opened first, so that opening the pipe to write does not block
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert self._run_tag(trained_dir, raw, fifo) == 0
            written = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert written.startswith(b"she/")
        assert sorted(os.listdir(tmp_path)) == ["fifo", "in.txt"]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("regex_rules", [["(", "NN"]]),
            ("regex_rules", [1]),
            ("regex_rules", [["a", "NN", "VB"]]),
            ("regex_rules", "a"),
            ("separator", 5),
            ("separator", ""),
            ("separator", " "),
            ("mode", "klingon"),
        ],
    )
    def test_malformed_meta_is_a_data_error(
        self, trained_dir, tmp_path, capsys, key, value
    ):
        model_dir = tmp_path / "m"
        shutil.copytree(trained_dir, model_dir)
        meta_path = model_dir / "model.json"
        meta = json.loads(meta_path.read_text())
        # english-regex mode, so the regex rules are compiled for tagging
        meta.update({"mode": "english-regex", key: value})
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        raw = tmp_path / "in.txt"
        raw.write_text("the team works\n", encoding="utf-8")
        code = main(
            [
                "tag",
                "--model",
                str(model_dir),
                "--input",
                str(raw),
                "--output",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(meta_path) in err and repr(key) in err

    def test_missing_model_directory_is_a_data_error(self, tmp_path, capsys):
        raw = tmp_path / "in.txt"
        raw.write_text("hello\n", encoding="utf-8")
        code = main(
            [
                "tag",
                "--model",
                str(tmp_path / "nope"),
                "--input",
                str(raw),
                "--output",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2


@pytest.fixture(scope="module")
def separator_models(trained_dir, tmp_path_factory):
    """The toy model's directory under "/" and under a wider separator."""
    wide = tmp_path_factory.mktemp("wide") / "model"
    save_model(replace(load_model(trained_dir), separator="::"), wide)
    return {"/": trained_dir, "::": wide}


# Every str.isspace character but "\n", the one line end: U+2028, U+0085,
# "\r" and "\x1c" among them.
_SPACES = "".join(
    c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c != "\n"
)
# Words hold both separators' character, "%", digits and non-ASCII letters,
# or are words the toy model knows.
_RAW_WORDS = st.text("/:%07abéßЖı", min_size=1, max_size=6) | st.sampled_from(
    ["the", "team", "works", "she", "walks", "."]
)
_RAW_LINES = st.builds(
    lambda lead, tokens: lead + "".join(word + gap for word, gap in tokens),
    st.text(_SPACES, max_size=2),
    st.lists(
        st.tuples(_RAW_WORDS, st.text(_SPACES, min_size=1, max_size=2)), max_size=5
    ),
)
# blank lines and lines of spaces included, with or without a final "\n"
_RAW_TEXTS = st.builds(
    lambda lines, end: "\n".join(lines) + end,
    st.lists(_RAW_LINES | st.just(""), max_size=6),
    st.sampled_from(["", "\n"]),
)


@pytest.mark.parametrize("separator", ["/", "::"])
@settings(max_examples=40, deadline=None)
@given(text=_RAW_TEXTS)
def test_tag_writes_what_the_checked_writer_writes(separator_models, separator, text):
    """``tag`` renders without checks; the checked writer must agree byte for byte."""
    tagger = Tagger(load_model(separator_models[separator]))
    assert tagger.model.separator == separator
    with tempfile.TemporaryDirectory() as work, mock.patch.object(
        cli, "TAG_BLOCK_LINES", 2
    ):
        raw, out = os.path.join(work, "in"), os.path.join(work, "out")
        with open(raw, "wb") as handle:
            handle.write(text.encode("utf-8"))
        argv = ["--model", str(separator_models[separator]), "--input", raw]
        assert main(["tag", *argv, "--output", out]) == 0
        with open(out, "rb") as handle:
            got = handle.read()
    assert got == reference_tag_text(tagger, text).encode("utf-8")


class TestEval:
    def test_prints_metrics_json_on_stdout(self, micro_file, capsys):
        code = main(["eval", "--gold", str(micro_file), "--pred", str(micro_file)])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["accuracy"] == 1.0
        assert metrics["tokens"] == 33
        assert metrics["known_accuracy"] is None

    def test_train_corpus_enables_the_vocabulary_split(
        self, micro_file, tmp_path, capsys
    ):
        train = tmp_path / "train.tagged"
        train.write_text("the/DT can/NN\n", encoding="utf-8")
        code = main(
            [
                "eval",
                "--gold",
                str(micro_file),
                "--pred",
                str(micro_file),
                "--train-corpus",
                str(train),
            ]
        )
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["known_tokens"] == 17
        assert metrics["unknown_tokens"] == 16
        assert metrics["unknown_accuracy"] == 1.0

    def test_misaligned_files_are_a_data_error(self, micro_file, tmp_path, capsys):
        pred = tmp_path / "pred.tagged"
        pred.write_text("the/DT\n", encoding="utf-8")
        code = main(["eval", "--gold", str(micro_file), "--pred", str(pred)])
        assert code == 2


class _FailingWrites:
    """A text handle whose first write stops halfway, as on a full disk."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def write(self, text):
        self._handle.write(text[: len(text) // 2])
        self._handle.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _open_failing_writes(file, mode="r", *args, **kwargs):
    handle = open(file, mode, *args, **kwargs)
    return _FailingWrites(handle) if "w" in mode else handle


class TestXval:
    def test_writes_a_full_report(self, micro_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "xval",
                "--corpus",
                str(micro_file),
                "--folds",
                "2",
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert set(report) == {"folds", "mean", "level_curve", "speed"}
        assert len(report["folds"]) == 2
        assert "2-fold" in capsys.readouterr().err
        assert report["speed"]["tokens_per_sec"] > 0

    def test_a_failed_write_leaves_an_existing_report_as_it_was(
        self, micro_file, tmp_path, capsys, monkeypatch
    ):
        report_dir = tmp_path / "reports"
        report_dir.mkdir()
        report_path = report_dir / "report.json"
        report_path.write_bytes(b'{"old": true}\n')
        monkeypatch.setattr(cli, "open", _open_failing_writes, raising=False)
        code = main(
            [
                "xval",
                "--corpus",
                str(micro_file),
                "--folds",
                "2",
                "--report",
                str(report_path),
            ]
        )
        assert code == 2
        assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
        assert report_path.read_bytes() == b'{"old": true}\n'
        assert os.listdir(report_dir) == ["report.json"]

    def test_more_folds_than_sentences_is_a_data_error(
        self, micro_file, tmp_path, capsys
    ):
        code = main(
            [
                "xval",
                "--corpus",
                str(micro_file),
                "--folds",
                "50",
                "--report",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 2


class TestConfig:
    def test_config_floor_suppresses_the_rule(self, micro_file, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threshold1": 5}), encoding="utf-8")
        model_dir = tmp_path / "m"
        code = main(
            [
                "train",
                "--corpus",
                str(micro_file),
                "--model",
                str(model_dir),
                "--config",
                str(config),
            ]
        )
        assert code == 0
        tree_text = (model_dir / "model.rdr").read_text()
        assert "\t\t" not in tree_text

    def test_explicit_flag_beats_the_config(self, micro_file, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threshold1": 5}), encoding="utf-8")
        model_dir = tmp_path / "m"
        code = main(
            [
                "train",
                "--corpus",
                str(micro_file),
                "--model",
                str(model_dir),
                "--config",
                str(config),
                "--threshold1",
                "3",
            ]
        )
        assert code == 0
        assert "\t\t" in (model_dir / "model.rdr").read_text()

    @pytest.mark.parametrize(
        "payload",
        [
            '{"no_such_option": 1}',
            '{"threshold1": "3"}',
            '[1, 2]',
            "{broken",
            '{"workers": 2}',
            '{"folds": 3}',
        ],
    )
    def test_bad_config_is_a_data_error(self, micro_file, tmp_path, payload, capsys):
        config = tmp_path / "config.json"
        config.write_text(payload, encoding="utf-8")
        code = main(
            [
                "train",
                "--corpus",
                str(micro_file),
                "--model",
                str(tmp_path / "m"),
                "--config",
                str(config),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "payload, option",
        [
            ('{"max_level": 0}', "max_level"),
            ('{"separator": ""}', "separator"),
            ('{"separator": " "}', "'separator'"),
            ('{"threshold1": 0}', "threshold1"),
            ('{"threshold2": 0}', "threshold2"),
            ('{"mode": "x"}', "mode"),
        ],
    )
    def test_bad_config_value_fails_before_the_corpus_is_read(
        self, tmp_path, payload, option, capsys
    ):
        config = tmp_path / "config.json"
        config.write_text(payload, encoding="utf-8")
        code = main(
            [
                "train",
                "--corpus",
                str(tmp_path / "no-such-corpus"),
                "--model",
                str(tmp_path / "m"),
                "--config",
                str(config),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert option in err
        assert "no-such-corpus" not in err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["train"],
            ["train", "--corpus", "x"],
            ["frobnicate"],
            ["train", "--corpus", "x", "--model", "y", "--threshold1", "0"],
            ["train", "--corpus", "x", "--model", "y", "--mode", "klingon"],
            ["xval", "--corpus", "x", "--report", "y"],
            ["train", "--corpus", "x", "--model", "y", "--separator", ""],
            ["eval", "--gold", "x", "--pred", "y", "--separator", ""],
            ["train", "--corpus", "x", "--model", "y", "--workers", "2"],
            ["train", "--corpus", "x", "--model", "y", "--init-from", "z"],
            ["xval", "--corpus", "x", "--report", "y", "--folds", "1"],
            ["train", "--corpus", "x", "--model", "y", "--separator", " "],
            ["train", "--corpus", "x", "--model", "y", "--separator", "\t"],
            ["eval", "--gold", "x", "--pred", "y", "--separator", " "],
            ["xval", "--corpus", "x", "--report", "y", "--folds", "2", "--separator", "\t"],
            ["train", "--corpus", "x", "--model", "y", "--threshold1", "abc"],
        ],
    )
    def test_bad_invocations_exit_with_one(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1

    def test_a_bad_separator_reads_the_same_at_every_entry_point(
        self, trained_dir, tmp_path, capsys
    ):
        with pytest.raises(ValueError) as expected:
            check_separator(" ")
        message = str(expected.value)
        with pytest.raises(SystemExit):
            main(["train", "--corpus", "x", "--model", "y", "--separator", " "])
        seen = [capsys.readouterr().err]
        config = tmp_path / "config.json"
        config.write_text('{"separator": " "}', encoding="utf-8")
        main(["train", "--corpus", "x", "--model", "y", "--config", str(config)])
        seen.append(capsys.readouterr().err)
        model_dir = tmp_path / "m"
        shutil.copytree(trained_dir, model_dir)
        meta_path = model_dir / "model.json"
        meta = json.loads(meta_path.read_text())
        meta_path.write_text(json.dumps({**meta, "separator": " "}), encoding="utf-8")
        for call in (
            lambda: TrainOptions(separator=" "),
            lambda: load_model(model_dir),
            lambda: read_tagged_corpus("the DT\n", " "),
            lambda: write_tagged_corpus(TaggedCorpus.from_pairs([[("the", "DT")]]), " "),
        ):
            with pytest.raises(ValueError) as got:
                call()
            seen.append(str(got.value))
        assert all(message in text for text in seen), seen

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_missing_corpus_file_is_a_data_error(self, tmp_path, capsys):
        code = main(
            ["train", "--corpus", str(tmp_path / "absent"), "--model", str(tmp_path / "m")]
        )
        assert code == 2


@pytest.mark.parametrize("module", ["rippletag.cli", "rippletag"])
def test_module_runs_as_a_script(tmp_path, module):
    corpus = tmp_path / "c.tagged"
    corpus.write_text(MICRO, encoding="utf-8")
    model_dir = tmp_path / "m"
    train = subprocess.run(
        [
            sys.executable,
            "-m",
            module,
            "train",
            "--corpus",
            str(corpus),
            "--model",
            str(model_dir),
        ],
        capture_output=True,
        text=True,
    )
    assert train.returncode == 0, train.stderr
    raw = tmp_path / "raw.txt"
    raw.write_text("you can go\n", encoding="utf-8")
    out = tmp_path / "out.tagged"
    tag = subprocess.run(
        [
            sys.executable,
            "-m",
            module,
            "tag",
            "--model",
            str(model_dir),
            "--input",
            str(raw),
            "--output",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert tag.returncode == 0, tag.stderr
    assert out.read_text() == "you/PRP can/MD go/VB\n"
