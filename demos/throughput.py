#!/usr/bin/env python3
"""Measure tagging throughput as the rule count grows.

The sample corpus only learns a couple dozen rules, which says little
about speed at realistic model sizes.  So this pads a trained tree
with rules conditioned on words that never occur: outputs stay
identical, but every seed's list of exceptions grows long, and the tagger's
first-test index has to keep the walk from scanning it.
"""

from dataclasses import replace

from rippletag.data import load_toy_corpus
from rippletag.evaluation import measure_tagging_speed
from rippletag.learner import train_model
from rippletag.scrdr import FIELD_INDEX, Rule, count_rules, insert_exception, parse_tree, serialize_tree
from rippletag.tagger import Tagger

WORD = FIELD_INDEX["word"]

corpus = load_toy_corpus()
words = [[t.word for t in s] for s in corpus.sentences]
base = train_model(corpus)


def padded_to(model, target):
    tree = parse_tree(serialize_tree(model.tree))
    seeds = tree.exceptions
    i = 0
    while count_rules(tree) < target:
        insert_exception(seeds[i % len(seeds)], Rule(((WORD, f"zz{i}"),), "NN"))
        i += 1
    return replace(model, tree=tree)


print(f"{corpus.token_count} tokens per pass, 5 repeats each\n")
print("rules   tokens/sec")
for target in (count_rules(base.tree), 250, 500, 1000, 2000, 4000):
    tagger = Tagger(padded_to(base, target))
    report = measure_tagging_speed(tagger, words, repeats=5)
    print(f"{count_rules(tagger.model.tree):>5}   {report['tokens_per_sec']:>10,.0f}")
