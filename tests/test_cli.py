import json
import shutil
import subprocess
import sys

import pytest

from rippletag.cli import main
from rippletag.corpus import read_tagged_corpus
from rippletag.data import toy_corpus_path

from helpers import deep_tree_text

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

    def _tag(self, model_dir, tmp_path, data: bytes) -> list[str]:
        raw = tmp_path / "in.txt"
        raw.write_bytes(data)
        out = tmp_path / "out.tagged"
        code = main(
            ["tag", "--model", str(model_dir), "--input", str(raw), "--output", str(out)]
        )
        assert code == 0
        return out.read_bytes().decode("utf-8").split("\n")

    def test_blank_lines_keep_their_place(self, trained_dir, tmp_path, capsys):
        lines = self._tag(trained_dir, tmp_path, b"she walks\n\n \nthe team works\n")
        assert len(lines) == 5 and lines[1:3] == ["", ""] and lines[4] == ""
        assert [t.split("/")[0] for t in lines[0].split()] == ["she", "walks"]
        assert [t.split("/")[0] for t in lines[3].split()] == ["the", "team", "works"]
        assert "tagged 5 tokens in 2 sentences" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("regex_rules", [["(", "NN"]]),
            ("regex_rules", [1]),
            ("regex_rules", [["a", "NN", "VB"]]),
            ("regex_rules", "a"),
            ("separator", 5),
            ("separator", ""),
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
        [('{"max_level": 0}', "max_level"), ('{"separator": ""}', "separator")],
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
        ],
    )
    def test_bad_invocations_exit_with_one(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1

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
