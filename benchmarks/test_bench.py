"""Self-tests of the benchmark's own code.

    python3 -m unittest discover -s benchmarks -p 'test_*.py'
"""

from __future__ import annotations

import inspect
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import prep  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import synth  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_same_bytes(self):
        a = synth.tagged_text(synth.sample(7, "train", 3000))
        b = synth.tagged_text(synth.sample(7, "train", 3000))
        self.assertEqual(a.encode(), b.encode())
        self.assertNotEqual(a, synth.tagged_text(synth.sample(8, "train", 3000)))
        self.assertNotEqual(a, synth.tagged_text(synth.sample(7, "heldout", 3000)))

    def test_language_follows_the_recipe(self):
        sentences = synth.sample(3, "train", 20_000)
        tags = {t for s in sentences for _, t in s}
        self.assertEqual(tags, set(synth.TAGS))
        self.assertEqual(len(synth.TAGS), 18)
        self.assertGreaterEqual(sum(map(len, sentences)), 20_000)
        for s in sentences:
            self.assertEqual(s[-1][1], ".")
            for word, _ in s:
                self.assertFalse(any(c.isspace() or c == "/" for c in word))

    def test_oov_pool_shares_no_open_class_word_with_base(self):
        base = synth.language("base")
        oov = synth.language("oov")
        base_words = {w for words in base.words.values() for w in words}
        oov_words = {w for words in oov.words.values() for w in words}
        self.assertFalse(base_words & oov_words)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_clipped_and_counted_once(self):
        table = [
            ["root", 0.0, 10.0, None],
            ["a", 1.0, 4.0, 0],
            ["b", 3.0, 6.0, 0],
            ["a.child", 2.0, 3.0, 1],
            ["late", 9.0, 12.0, 0],
        ]
        self.assertEqual(spans.self_times(table), [4.0, 2.0, 3.0, 1.0, 3.0])

    def test_nested_self_times_add_up_to_the_root(self):
        ticks = iter(range(100))
        tracer = spans.Tracer(clock=lambda: float(next(ticks)))
        with tracer.span("root"):
            with tracer.span("x"):
                with tracer.span("y"):
                    pass
                with tracer.span("y"):
                    pass
            with tracer.span("z"):
                pass
        root = tracer.spans[0][2] - tracer.spans[0][1]
        self.assertEqual(sum(spans.self_times(tracer.spans)), root)
        seconds, calls = spans.totals(tracer.spans)
        self.assertEqual(calls, {"root": 1, "x": 1, "y": 2, "z": 1})
        self.assertEqual(seconds["y"], 2.0)

    def test_out_of_order_close_is_refused(self):
        tracer = spans.Tracer()
        outer = tracer.begin("outer")
        tracer.begin("inner")
        with self.assertRaises(RuntimeError):
            tracer.end(outer)


class PatcherTest(unittest.TestCase):
    def test_originals_are_restored(self):
        import rippletag.cli as cli
        from rippletag.corpus import TaggedCorpus
        from rippletag.tagger import Tagger

        targets = [(cli, "read_raw"), (TaggedCorpus, "from_pairs"),
                   (Tagger, "tag_sentence"), (Tagger, "__init__")]
        before = [inspect.getattr_static(owner, attr) for owner, attr in targets]
        tracer = spans.Tracer()
        with spans.Patcher(tracer) as patcher:
            for owner, attr in targets:
                patcher.patch(owner, attr, attr)
            self.assertIsNot(inspect.getattr_static(cli, "read_raw"), before[0])
            self.assertEqual(cli.read_raw("a b\n\nc\n"), [["a", "b"], ["c"]])
            corpus = TaggedCorpus.from_pairs([[("a", "DT")]])
            self.assertIsInstance(corpus, TaggedCorpus)
        self.assertEqual([s[0] for s in tracer.spans], ["read_raw", "from_pairs"])
        after = [inspect.getattr_static(owner, attr) for owner, attr in targets]
        for old, new in zip(before, after):
            self.assertIs(old, new)

    def test_restore_runs_when_the_body_raises(self):
        import rippletag.learner as learner

        original = learner.select_rule
        with self.assertRaises(KeyError):
            with spans.Patcher(spans.Tracer()) as patcher:
                patcher.patch(learner, "select_rule", "select")
                raise KeyError("boom")
        self.assertIs(learner.select_rule, original)

    def test_probes_cover_the_layers_and_restore(self):
        import rippletag.cli as cli
        import rippletag.learner as learner
        import rippletag.tagger as tagger

        check = learner._Learning.check_against_tree
        names = {"main": cli.main, "select_rule": learner.select_rule,
                 "evaluate": learner.evaluate, "run_chain": tagger.run_chain}
        with spans.Patcher(spans.Tracer()) as patcher:
            run.install_probes(patcher)
            self.assertIsNot(cli.main, names["main"])
            self.assertIsNot(learner.select_rule, names["select_rule"])
            self.assertIsNot(learner._Learning.check_against_tree, check)
            self.assertIs(learner.evaluate, names["evaluate"])
            self.assertIs(tagger.run_chain, names["run_chain"])
        self.assertIs(cli.main, names["main"])
        self.assertIs(learner.select_rule, names["select_rule"])
        self.assertIs(learner._Learning.check_against_tree, check)


class MismatchTest(unittest.TestCase):
    """A tag that differs from the reference walk is a failed operation."""

    @classmethod
    def setUpClass(cls):
        from rippletag.data import load_toy_corpus
        from rippletag.learner import train_model
        from rippletag.tagger import Tagger

        corpus = load_toy_corpus()
        cls.tagger = Tagger(train_model(corpus))
        cls.sentences = [[t.word for t in s] for s in corpus.sentences[:40]]
        cls.gold = [[t.tag for t in s] for s in corpus.sentences[:40]]
        cls.reference, _ = run.reference_tags(cls.tagger.model, cls.sentences)

    def _output(self, directory: str, tags: list[list[str]]) -> Path:
        path = Path(directory) / "out.tagged"
        path.write_text("".join(
            " ".join(f"{w}/{t}" for w, t in zip(words, row)) + "\n"
            for words, row in zip(self.sentences, tags)), encoding="utf-8")
        return path

    def test_reference_agrees_with_the_tagger(self):
        for words, want in zip(self.sentences, self.reference):
            self.assertEqual(self.tagger.tag_sentence(words), want)

    def test_one_wrong_tag_fails_one_output_operation(self):
        tags = [list(row) for row in self.reference]
        tags[5][0] = "XX" if tags[5][0] != "XX" else "YY"
        with tempfile.TemporaryDirectory() as tmp:
            ops = run.Ops()
            run.check_tagged_output(ops, self._output(tmp, tags), self.sentences,
                                    self.reference, self.gold)
        self.assertEqual(ops.kinds["output_sentence"], [40, 1])
        self.assertEqual(ops.failed, 1)

    def test_missing_line_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = self._output(tmp, self.reference)
            text = path.read_text(encoding="utf-8").splitlines(keepends=True)
            path.write_text("".join(text[:-1]), encoding="utf-8")
            ops = run.Ops()
            run.check_tagged_output(ops, path, self.sentences, self.reference, self.gold)
        self.assertEqual(ops.kinds["output_sentence"], [40, 1])
        self.assertEqual(ops.kinds["output_line_count"], [1, 1])

    def test_wrong_tag_sentence_result_fails_a_latency_call(self):
        class Broken:
            def __init__(self, inner, bad_index):
                self.inner, self.bad, self.calls = inner, bad_index, 0

            def tag_sentence(self, words):
                tags = self.inner.tag_sentence(words)
                self.calls += 1
                if self.calls - 1 == self.bad:
                    tags[-1] = tags[-1] + "x"
                return tags

        w = run.Workload.__new__(run.Workload)
        w.sentences, w.reference = self.sentences, self.reference
        w.wall, w.scaled = {"latency": []}, {"latency": []}
        ops = run.Ops()
        w.latency_pass(ops, Broken(self.tagger, 3))
        self.assertEqual(ops.kinds["tag_sentence"], [40, 1])
        self.assertEqual(len(w.scaled["latency"]), 40)


class TraceCheckTest(unittest.TestCase):
    """The traced run's span checks pass on a sound cycle and can fail."""

    SOUND = [
        ["bench.cycle", 0.0, 10.0, None],
        ["cli.main", 0.1, 9.0, 0],
        ["corpus.read_raw", 0.2, 1.0, 1],
        ["bench.setup", 9.1, 9.9, 0],
        ["tagger.load_model", 9.15, 9.85, 3],
    ]

    def check(self, table):
        ops = run.Ops()
        share = run.check_trace(ops, table)
        return ops, share

    def test_sound_cycle_passes(self):
        ops, share = self.check(self.SOUND)
        self.assertEqual(ops.failed, 0)
        self.assertAlmostEqual(share, (0.1 + 0.1 + 0.1 + 0.05 + 0.05) / 10)

    def test_span_outside_the_root_fails(self):
        table = [list(row) for row in self.SOUND] + [["corpus.write", 10.5, 11.0, None]]
        ops, _ = self.check(table)
        self.assertEqual(ops.kinds["spans_under_root"], [1, 1])
        self.assertEqual(ops.failed, 1)

    def test_unprobed_work_in_a_bench_span_fails(self):
        # Set-up whose load_model escaped the probes: its time is bench.setup's own.
        ops, share = self.check(self.SOUND[:4])
        self.assertGreater(share, run.MAX_BENCH_SHARE)
        self.assertEqual(ops.kinds["bench_self_share"], [1, 1])


class FingerprintTest(unittest.TestCase):
    def test_fingerprint_covers_names_and_bytes(self):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            (d / "a").write_text("x")
            (d / "b").write_text("yz")
            sha, size = prep.model_fingerprint(d)
            self.assertEqual(size, 3)
            (d / "b").write_text("yw")
            self.assertNotEqual(prep.model_fingerprint(d)[0], sha)


if __name__ == "__main__":
    unittest.main()
