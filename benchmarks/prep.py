#!/usr/bin/env python3
"""Untimed preparation of one benchmark run: inputs and models.

``run.py`` starts this as a child process and waits for it before the
timed phase begins, so that generating text and training the tag
workloads' models neither sets the timed process's peak RSS nor leaves
objects in its heap.

Every workload trains on the same fixed 40k-token corpus: between 40k
samples of the language the learner's work differs by 10.6% (quartile
distance over median of the records handed to ``select_rule``, seeds
1-10), more than a regression bound can absorb.  The seed draws the
text that is tagged: the train workload's held-out slice and the tag
workloads' 150k tokens.  The tag workloads' models are stored under the
cache directory keyed on a hash of the package sources and of the
generator, so the first run in a checkout trains them and later runs
reuse them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

import synth

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

TRAIN_TOKENS = 40_000
HELDOUT_TOKENS = 50_000
TEXT_TOKENS = 150_000
# Every model is trained on this seed's "train" stream.
TRAIN_SEED = 0

WORKLOADS = {
    "train_synth40k": {"mode": "generic", "pool": "base"},
    "tag_indomain": {"mode": "generic", "pool": "base"},
    "tag_oov_regex": {"mode": "english-regex", "pool": "oov"},
}


def is_train(workload: str) -> bool:
    return workload.startswith("train_")


def source_key() -> str:
    """Hash of every file a cached model depends on."""
    digest = hashlib.sha256()
    files = sorted((SRC / "rippletag").rglob("*.py"))
    files += [HERE / "synth.py", HERE / "prep.py"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def model_fingerprint(directory: Path) -> tuple[str, int]:
    """SHA-256 over the model directory's file names and bytes, and its size."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data + b"\0")
        size += len(data)
    return digest.hexdigest(), size


def _write(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def train_text() -> str:
    return synth.tagged_text(synth.sample(TRAIN_SEED, "train", TRAIN_TOKENS))


def ensure_model(workload: str, cache: Path) -> Path:
    final = cache / f"{workload}-{source_key()}"
    if final.is_dir():
        return final
    from rippletag.cli import main

    cache.mkdir(parents=True, exist_ok=True)
    staging = cache / f".{final.name}.{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir()
    corpus = staging / "corpus.tagged"
    _write(corpus, train_text())
    code = main(["train", "--corpus", str(corpus), "--model", str(staging / "model"),
                 "--mode", WORKLOADS[workload]["mode"]])
    if code != 0:
        raise SystemExit(f"training the {workload} model exited with {code}")
    os.replace(staging / "model", final)
    shutil.rmtree(staging)
    return final


def prepare(workload: str, seed: int, out: Path, cache: Path) -> dict:
    """Write the run's inputs under ``out``; return where they are."""
    out.mkdir(parents=True, exist_ok=True)
    if is_train(workload):
        _write(out / "train.tagged", train_text())
        text = synth.sample(seed, "heldout", HELDOUT_TOKENS)
        model = None
    else:
        text = synth.sample(seed, "text", TEXT_TOKENS, WORKLOADS[workload]["pool"])
        model = str(ensure_model(workload, cache))
    _write(out / "text.raw", synth.raw_text(text))
    _write(out / "text.gold.tagged", synth.tagged_text(text))
    info = {"model": model}
    _write(out / "prep.json", json.dumps(info) + "\n")
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--cache", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    prepare(args.workload, args.seed, args.out, args.cache)
    return 0


if __name__ == "__main__":
    sys.exit(main())
