#!/usr/bin/env python3
"""The rippletag benchmark: one workload per invocation.

    python3 benchmarks/run.py --workload tag_indomain --seed 1 --seconds 30 --trace 0

Run from the repository root.  A child process first writes the
workload's inputs (and, for the tag workloads, trains their model; see
prep.py).  This process then repeats the workload's cycle through the
entry points users call until ``--seconds`` have passed, checks every
output against a reference tree walk, and prints one JSON object as the
last line of stdout.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced cycles and reports the
per-layer metrics and the tracing overhead.  Working files and a full
report (with the spans of the last traced cycle) go to ``.bench_work/``.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import prep
import spans

WORK = prep.ROOT / ".bench_work"
BASELINE = prep.HERE / "baseline.json"
# `load_model` + `Tagger(model)` repetitions per cycle; one takes ~10 ms.
SETUP_LOADS = 20
PREP_TIMEOUT_S = 170
CENSUS_LEVELS = 4
SAMPLE_KINDS = ("command", "tag", "setup", "latency")
# Largest share of a traced cycle the benchmark's own bench.* spans may
# take as self time (see check_trace).
MAX_BENCH_SHARE = 0.05

# Times are reported in reference seconds: wall time multiplied by
# CALIBRATION_REF_S / (the time of the calibration loop, measured while
# the program is idle, right before and right after the timed work).  On
# a 2-vCPU VM shared with other tenants, wall times of one operation
# spread by 28-49% (quartile distance over median) across 20 s windows,
# while the ratio to this loop spread by 2-7%; see README.md.
CALIBRATION_REF_S = 0.025
_CALIBRATION_WORDS = tuple(f"w{i * 7919 % 1009}x{i % 13}" for i in range(4000))


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop, measured now.

    It does what the tagger does most: build tuples, slice strings and
    update dicts.  It calls nothing in the package, so no change to the
    program can change its cost.
    """
    start = time.perf_counter()
    counts: dict[tuple, int] = {}
    for _ in range(4):
        prev = ""
        for i, word in enumerate(_CALIBRATION_WORDS):
            key = (word[-3:], prev, i & 7)
            counts[key] = counts.get(key, 0) + 1
            prev = word[:2]
        sorted(counts.items())
    return time.perf_counter() - start


class Ops:
    """Operations attempted and failed, by kind."""

    def __init__(self) -> None:
        self.kinds: dict[str, list[int]] = {}

    def check(self, kind: str, ok: bool) -> None:
        counts = self.kinds.setdefault(kind, [0, 0])
        counts[0] += 1
        counts[1] += not ok

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.kinds.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.kinds.values())


def file_sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def reference_tags(model, sentences: list[list[str]]) -> tuple[list[list[str]], int]:
    """Tags from the plain tree walk, and how many differ from the first guess.

    Uses ``scrdr.evaluate`` over ``make_tag_objects`` of the first
    guesses, which shares no code with the tagger's compiled chains.
    """
    from rippletag.initial_tagger import InitialTagger, InitialTaggerOptions
    from rippletag.scrdr import evaluate, make_tag_objects

    initial = InitialTagger(
        model.lexicon,
        InitialTaggerOptions(mode=model.mode, regex_rules=model.regex_rules),
    )
    out, corrected = [], 0
    for words in sentences:
        guesses = initial.tag_sentence(words)
        tags = []
        for obj, guess in zip(make_tag_objects(words, guesses), guesses):
            tag = evaluate(model.tree, obj).node.rule.conclusion or guess
            corrected += tag != guess
            tags.append(tag)
        out.append(tags)
    return out, corrected


def check_tagged_output(ops: Ops, path: Path, sentences, reference, gold) -> int:
    """One operation per output line; returns tokens tagged as ``gold``."""
    from rippletag.corpus import read_tagged_corpus

    lines = path.read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    right = 0
    for i, words in enumerate(sentences):
        line = lines[i] if i < len(lines) else ""
        try:
            tokens = read_tagged_corpus(line).sentences[0] if line.strip() else ()
        except ValueError:
            tokens = ()
        got_words = [t.word for t in tokens]
        got_tags = [t.tag for t in tokens]
        ops.check("output_sentence", got_words == words and got_tags == reference[i])
        right += sum(g == t for g, t in zip(got_tags, gold[i]))
    ops.check("output_line_count", len(lines) == len(sentences))
    return right


class Workload:
    """One run's inputs, model and cycle."""

    def __init__(self, name: str, work: Path, info: dict) -> None:
        from rippletag.corpus import read_raw

        self.name = name
        self.train = prep.is_train(name)
        self.corpus = work / "train.tagged"
        self.raw = work / "text.raw"
        self.gold = work / "text.gold.tagged"
        self.out = work / "out.tagged"
        self.model_dir = work / "model" if self.train else Path(info["model"])
        self.sentences = read_raw(self.raw.read_text(encoding="utf-8"))
        self.tokens = sum(len(s) for s in self.sentences)
        self.reference: list[list[str]] | None = None
        self.corrected = 0
        self.model_sha: str | None = None
        self.output_sha: str | None = None
        # Per kind of sample: raw wall seconds, and the same scaled by the
        # calibration measured around them (see calibrate()).
        # Arrays keep ~100k latency samples from growing the heap much.
        self.wall = {k: array.array("d") for k in SAMPLE_KINDS}
        self.scaled = {k: array.array("d") for k in SAMPLE_KINDS}

    def record(self, kind: str, walls, before: float, after: float) -> None:
        scale = 2 * CALIBRATION_REF_S / (before + after)
        self.wall[kind].extend(walls)
        self.scaled[kind].extend(w * scale for w in walls)

    def measured(self, kind: str, fn, *args):
        """Time ``fn(*args)`` between two calibrations and record it."""
        gc.collect()
        before = calibrate()
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        self.record(kind, [wall], before, calibrate())
        return result

    def cycle(self, ops: Ops, tracer: spans.Tracer | None = None, record: bool = True):
        """The workload's commands and set-up; returns the last Tagger.

        With ``record`` each command and the set-up group are timed between
        calibrations and kept as samples.  The traced run turns it off and
        times whole cycles, so that no calibration lands in a span.
        """
        import rippletag.cli as cli
        import rippletag.tagger as tagger_mod

        def command(kind: str, argv: list[str]) -> int:
            return self.measured(kind, cli.main, argv) if record else cli.main(argv)

        if self.train:
            code = command("command", [
                "train", "--corpus", str(self.corpus), "--model", str(self.model_dir)])
            ops.check("train_exit", code == 0)
            sha, _ = prep.model_fingerprint(self.model_dir)
            self.model_sha = self.model_sha or sha
            ops.check("train_model_repeat", sha == self.model_sha)
        tag_argv = ["tag", "--model", str(self.model_dir),
                    "--input", str(self.raw), "--output", str(self.out)]
        code = command("tag", tag_argv)
        ops.check("tag_exit", code == 0)
        sha = file_sha(self.out)
        self.output_sha = self.output_sha or sha
        ops.check("tag_output_repeat", sha == self.output_sha)
        if record and not self.train:
            self.wall["command"].append(self.wall["tag"][-1])
            self.scaled["command"].append(self.scaled["tag"][-1])
        if record:
            gc.collect()
            before = calibrate()
        walls = []
        with tracer.span("bench.setup") if tracer else contextlib.nullcontext():
            for _ in range(SETUP_LOADS):
                start = time.perf_counter()
                tagger = tagger_mod.Tagger(tagger_mod.load_model(self.model_dir))
                walls.append(time.perf_counter() - start)
        if record:
            self.record("setup", walls, before, calibrate())
        return tagger

    def ensure_reference(self, tagger) -> float:
        """Reference tags for the text, computed once; returns seconds spent."""
        if self.reference is not None:
            return 0.0
        start = time.perf_counter()
        self.reference, self.corrected = reference_tags(tagger.model, self.sentences)
        return time.perf_counter() - start

    def gold_tags(self) -> list[list[str]]:
        from rippletag.corpus import read_tagged_corpus

        gold = read_tagged_corpus(self.gold.read_text(encoding="utf-8"))
        return [[t.tag for t in s] for s in gold.sentences]

    def latency_pass(self, ops: Ops, tagger) -> None:
        gc.collect()
        before = calibrate()
        clock = time.perf_counter
        walls = array.array("d")
        for words, want in zip(self.sentences, self.reference):
            start = clock()
            tags = tagger.tag_sentence(words)
            walls.append(clock() - start)
            ops.check("tag_sentence", tags == want)
        self.record("latency", walls, before, calibrate())

    def medians(self) -> dict[str, float]:
        """Median raw wall seconds per kind of sample, for the report."""
        return {k: statistics.median(v) for k, v in self.wall.items() if v}


def census(model_dir: Path) -> tuple[int, dict[int, int]]:
    from rippletag.scrdr import count_rules, layer_census
    from rippletag.tagger import load_model

    tree = load_model(model_dir).tree
    return count_rules(tree), layer_census(tree)


def input_properties(w: Workload) -> dict[str, float]:
    """Tokens, sentences, unknown and repeated-type shares of the main input."""
    from rippletag.corpus import read_tagged_corpus
    from rippletag.tagger import load_model

    if w.train:
        corpus = read_tagged_corpus(w.corpus.read_text(encoding="utf-8"))
        words = [t.word for t in corpus.tokens()]
        counts: dict[str, int] = {}
        for word in words:
            counts[word] = counts.get(word, 0) + 1
        # Training masks words seen once, so the first guesser treats them as unknown.
        unknown = sum(1 for word in words if counts[word] == 1)
        sentences = len(corpus)
    else:
        known = load_model(w.model_dir).lexicon.word_tags
        words = [word for s in w.sentences for word in s]
        unknown = sum(1 for word in words if word not in known)
        sentences = len(w.sentences)
    return {
        "input.tokens": len(words),
        "input.sentences": sentences,
        "initial_tagger.unknown_share": unknown / len(words),
        "initial_tagger.repeat_type_share": 1 - len(set(words)) / len(words),
    }


def fingerprint_checks(ops: Ops, w: Workload, seed: int, accuracy: float) -> dict:
    """Compare the model, and at the default seed the accuracy, with baseline.json.

    No model depends on the seed, so the model is checked on every run.
    """
    sha, size = prep.model_fingerprint(w.model_dir)
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    want = baseline["fingerprints"][w.name]
    ops.check("model_sha256", sha == want["model_sha256"])
    ops.check("model_bytes", size == want["model_bytes"])
    if seed == baseline["default_seed"]:
        ops.check("heldout_accuracy", accuracy == want["heldout_accuracy"])
    return {"model_sha256": sha, "model_bytes": size, "heldout_accuracy": accuracy}


def run_untraced(w: Workload, ops: Ops, seconds: float) -> dict:
    # The one-off reference walk does not count against the measured time.
    deadline = time.perf_counter() + seconds
    while True:
        tagger = w.cycle(ops)
        deadline += w.ensure_reference(tagger)
        w.latency_pass(ops, tagger)
        del tagger
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latency = sorted(w.scaled["latency"])
    return {
        "command_s": statistics.median(w.scaled["command"]),
        "setup_s": statistics.median(w.scaled["setup"]),
        "tag_tok_per_s": w.tokens / statistics.median(w.scaled["tag"]),
        "tag_sentence_p50_us": percentile(latency, 50) * 1e6,
        "tag_sentence_p99_us": percentile(latency, 99) * 1e6,
        "peak_rss_mb": peak_rss_mb,
    }


def install_probes(patcher: spans.Patcher) -> None:
    """Wrap each layer's public functions where the program looks them up."""
    import rippletag.cli as cli
    import rippletag.learner as learner
    import rippletag.tagger as tagger
    from rippletag.corpus import TaggedCorpus
    from rippletag.initial_tagger import InitialTagger

    def count_selection(counters, args, kwargs, result):
        wrong, correct = args[0], args[1]
        counters["learner.records_scanned"] += len(wrong) + len(correct or ())
        counters["learner.select_rule_hits"] += result is not None

    probes = [
        (cli, "main", "cli.main"),
        (cli, "read_tagged_corpus", "corpus.read_tagged"),
        (cli, "read_raw", "corpus.read_raw"),
        (cli, "write_tagged_corpus", "corpus.write"),
        (TaggedCorpus, "from_pairs", "corpus.from_pairs"),
        (cli, "train_model", "learner.train_model"),
        (learner, "build_lexicon", "lexicon.build"),
        (learner, "initialize_corpus", "initial_tagger.initialize"),
        (learner, "learn_tree", "learner.learn_tree"),
        (learner, "make_tag_objects", "scrdr.make_tag_objects"),
        (learner._Learning, "check_against_tree", "learner.self_check"),
        (cli, "save_model", "tagger.save_model"),
        (cli, "load_model", "tagger.load_model"),
        (tagger, "load_model", "tagger.load_model"),
        (tagger, "parse_lexicon", "lexicon.parse"),
        (tagger, "parse_tree", "scrdr.parse_tree"),
        (tagger, "make_tag_objects", "scrdr.make_tag_objects"),
        (tagger.Tagger, "__init__", "tagger.compile"),
        (tagger.Tagger, "tag_sentences", "tagger.tag_sentences"),
        # run_chain recurses through its module global and is not wrapped:
        # its time is the self time of tag_sentence.
        (tagger.Tagger, "tag_sentence", "tagger.tag_sentence"),
        (InitialTagger, "tag_sentence", "initial_tagger.first_guess"),
    ]
    for owner, attr, name in probes:
        patcher.patch(owner, attr, name)
    patcher.patch(learner, "select_rule", "learner.select_rule", count_selection)


def layer_metrics(tracer: spans.Tracer, scale: float) -> dict[str, float]:
    """Per-layer numbers of one traced cycle; self times multiplied by ``scale``."""
    raw, calls = spans.totals(tracer.spans)
    seconds = {name: value * scale for name, value in raw.items()}
    select_calls = calls.get("learner.select_rule", 0)
    return {
        "corpus.read_tagged_s": seconds.get("corpus.read_tagged", 0.0),
        "corpus.read_raw_s": seconds.get("corpus.read_raw", 0.0),
        "corpus.from_pairs_s": seconds.get("corpus.from_pairs", 0.0),
        "corpus.write_s": seconds.get("corpus.write", 0.0),
        "lexicon.build_s": seconds.get("lexicon.build", 0.0),
        "lexicon.parse_s": seconds.get("lexicon.parse", 0.0),
        "initial_tagger.initialize_s": seconds.get("initial_tagger.initialize", 0.0),
        "initial_tagger.first_guess_s": seconds.get("initial_tagger.first_guess", 0.0),
        "scrdr.make_tag_objects_s": seconds.get("scrdr.make_tag_objects", 0.0),
        "scrdr.make_tag_objects_calls": calls.get("scrdr.make_tag_objects", 0),
        "scrdr.parse_tree_s": seconds.get("scrdr.parse_tree", 0.0),
        "learner.select_rule_s": seconds.get("learner.select_rule", 0.0),
        "learner.select_rule_calls": select_calls,
        "learner.select_rule_hit_ratio": (
            tracer.counters["learner.select_rule_hits"] / select_calls
            if select_calls else 0.0
        ),
        "learner.records_scanned": tracer.counters["learner.records_scanned"],
        "learner.self_check_s": seconds.get("learner.self_check", 0.0),
        "learner.self_s": seconds.get("learner.learn_tree", 0.0),
        "tagger.compile_s": seconds.get("tagger.compile", 0.0),
        "tagger.walk_s": seconds.get("tagger.tag_sentence", 0.0),
        "tagger.save_model_s": seconds.get("tagger.save_model", 0.0),
        "cli.self_s": seconds.get("cli.main", 0.0),
    }


def check_trace(ops: Ops, table: list[list]) -> float:
    """Check one traced cycle's spans; returns the benchmark's own share of it.

    Every span must be closed and lie inside the root ``bench.cycle``,
    and the self time of the benchmark's own ``bench.*`` spans (loop
    overhead, output hashing, fingerprints) must stay below
    MAX_BENCH_SHARE of the root.  A larger share would mean that program
    work escaped the probes, so the layer numbers would not account for
    the cycle.  (The self times of all spans add up to the root by
    construction; see spans.self_times.)
    """
    root_name, root_start, root_end, _ = table[0]
    ops.check("trace_root", root_name == "bench.cycle" and root_end is not None)
    ops.check("spans_under_root", all(
        parent is not None and end is not None and root_start <= start <= end <= root_end
        for _, start, end, parent in table[1:]))
    own = sum(t for (name, *_), t in zip(table, spans.self_times(table))
              if name.startswith("bench."))
    share = own / (root_end - root_start)
    ops.check("bench_self_share", share <= MAX_BENCH_SHARE)
    return share


def run_traced(w: Workload, ops: Ops, seconds: float) -> tuple[dict, spans.Tracer, float]:
    """Alternate untraced and traced cycles; per-layer medians and overhead."""
    plain_s: list[float] = []
    traced_s: list[float] = []
    per_cycle: list[dict[str, float]] = []
    bench_shares: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        before = calibrate()
        t0 = time.perf_counter()
        tagger = w.cycle(ops, record=False)
        wall = time.perf_counter() - t0
        plain_s.append(wall * 2 * CALIBRATION_REF_S / (before + calibrate()))
        deadline += w.ensure_reference(tagger)
        del tagger

        tracer = spans.Tracer()
        gc.collect()
        before = calibrate()
        with spans.Patcher(tracer) as patcher:
            install_probes(patcher)
            with tracer.span("bench.cycle"):
                w.cycle(ops, tracer, record=False)
        scale = 2 * CALIBRATION_REF_S / (before + calibrate())
        root = tracer.spans[0][2] - tracer.spans[0][1]
        traced_s.append(root * scale)
        bench_shares.append(check_trace(ops, tracer.spans))
        per_cycle.append(layer_metrics(tracer, scale))
        if time.perf_counter() >= deadline:
            break
    metrics = {k: statistics.median(c[k] for c in per_cycle) for k in per_cycle[0]}
    metrics["trace.root_s"] = statistics.median(traced_s)
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
    return metrics, tracer, max(bench_shares)


def declared_units(trace: bool) -> dict[str, str]:
    """Unit of every metric BENCHMARK.json declares for this kind of run."""
    spec = json.loads((prep.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(prep.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (prep.SRC / "rippletag" / "__init__.py").is_file():
        print(f"run.py: no package under {prep.SRC}; run from a rippletag checkout",
              file=sys.stderr)
        return 2
    work = WORK / "runs" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    prep_cmd = [sys.executable, str(prep.HERE / "prep.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--out", str(work),
                "--cache", str(WORK / "models")]
    done = subprocess.run(prep_cmd, timeout=PREP_TIMEOUT_S)
    if done.returncode != 0:
        print(f"run.py: preparation exited with {done.returncode}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(prep.SRC))
    info = json.loads((work / "prep.json").read_text(encoding="utf-8"))
    w = Workload(args.workload, work, info)
    ops = Ops()
    tracer = None
    if args.trace:
        metrics, tracer, bench_share = run_traced(w, ops, args.seconds)
    else:
        metrics = run_untraced(w, ops, args.seconds)

    right = check_tagged_output(ops, w.out, w.sentences, w.reference, w.gold_tags())
    facts = fingerprint_checks(ops, w, args.seed, right / w.tokens)
    rules, levels = census(w.model_dir)
    if args.trace:
        metrics.update(input_properties(w))
        metrics["tagger.corrected_share"] = w.corrected / w.tokens
        metrics["learner.rules"] = rules
        for level in range(1, CENSUS_LEVELS + 1):
            metrics[f"learner.census_l{level}"] = levels.get(level, 0)
        metrics[f"learner.census_l{CENSUS_LEVELS + 1}plus"] = sum(
            n for level, n in levels.items() if level > CENSUS_LEVELS)
    else:
        metrics["heldout_accuracy"] = facts["heldout_accuracy"]
        metrics["model_bytes"] = facts["model_bytes"]
    units = declared_units(bool(args.trace))
    if set(metrics) != set(units):
        print(f"run.py: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "operations": {k: {"attempted": a, "failed": f} for k, (a, f) in ops.kinds.items()},
        "samples": {k: len(v) for k, v in w.wall.items()},
        "wall_medians_s": w.medians(),
        "fingerprint": facts,
        "rules": rules,
        "census": levels,
    }
    if tracer is not None:
        report["max_bench_share"] = bench_share
        report["last_cycle"] = tracer.to_json()
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({k: report[k] for k in ("metrics", "operations", "samples",
                                             "wall_medians_s")}),
          file=sys.stderr)

    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
