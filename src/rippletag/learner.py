"""Error-driven construction of the exception tree.

Layer 1 seeds one node per tag the first-guess tagger produced, each
passing its tag through unchanged.  Every training token is then filed
at the node that currently decides it: as a correct record if its gold
tag is the node's conclusion, as a wrong record otherwise.  Nodes with
wrong records grow exception children (``select_rule``): candidate
rules come from filling templates with the wrong records' own context
values, a candidate's score is (wrong records it fixes) minus (wrong
records it matches but leaves wrong), and the best scorer above the
level's threshold is attached.  Matching records move down to the new
child, which is expanded in turn before the parent looks for its next
exception.  Once the tree is finished, a self-check re-derives every
node's records from a fresh walk and raises ``LearnerStateError`` on
any difference.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .corpus import TaggedCorpus, check_aligned
from .initial_tagger import (
    DEFAULT_ENGLISH_RULES,
    MODE_GENERIC,
    InitialTagger,
    InitialTaggerOptions,
    initialize_corpus,
)
from .lexicon import build_lexicon
from .scrdr import (
    FIELD_INDEX,
    Node,
    Rule,
    TagObject,
    evaluate,
    insert_exception,
    make_tag_objects,
    new_root,
    render_rule,
)
from .templates import CATALOG, instantiate

_CURRENT_TAG = FIELD_INDEX["currentTag"]
# one key function per CATALOG entry, in catalog order
_KEY_GETTERS = tuple(itemgetter(*t.fields) for t in CATALOG)

DEFAULT_MAX_LEVEL = 50


class LearnerStateError(RuntimeError):
    """The incremental record bookkeeping disagrees with the final tree."""


@dataclass(frozen=True)
class Thresholds:
    """Minimum rule scores per layer.

    ``layer2`` gates exceptions to the seed nodes, ``deeper`` gates
    everything below.  A rule must score strictly above the threshold.
    """

    layer2: int = 3
    deeper: int = 2

    def __post_init__(self) -> None:
        if self.layer2 < 1 or self.deeper < 1:
            raise ValueError("thresholds must be at least 1")

    def for_level(self, level: int) -> int:
        return self.layer2 if level == 2 else self.deeper


@dataclass(frozen=True)
class TrainOptions:
    thresholds: Thresholds = Thresholds()
    mode: str = MODE_GENERIC
    regex_rules: tuple[tuple[str, str], ...] = DEFAULT_ENGLISH_RULES
    max_level: int = DEFAULT_MAX_LEVEL
    separator: str = "/"


class Record(NamedTuple):
    obj: TagObject
    gold: str


class Selection(NamedTuple):
    rule: Rule
    template_id: int
    a: int
    b: int
    score: int


class LearnResult(NamedTuple):
    root: Node
    audit: list[dict]


class _NodeRecords:
    __slots__ = ("wrong", "correct")

    def __init__(self) -> None:
        self.wrong: list[Record] = []
        self.correct: list[Record] = []

    def file(self, record: Record, conclusion: str) -> None:
        """File a record at a node that concludes ``conclusion``.

        The record is correct there iff its gold tag is the conclusion.
        """
        (self.correct if record.gold == conclusion else self.wrong).append(record)


def select_rule(
    wrong: list[Record],
    correct: list[Record] | None,
    thresholds: Thresholds,
    level: int,
) -> Selection | None:
    """Pick the highest-scoring candidate rule for one node.

    Candidates fill each template with a wrong record's own values and
    conclude its gold tag.  Per template, ``matched[values]`` counts the
    wrong records a candidate matches and ``fixed[values, gold]`` those
    it would fix, so its score is fixed minus still-wrong:
    ``2 * fixed - matched``.  Both counters are filled by ``Counter``
    from the template's ``itemgetter`` keys, so projecting and counting
    run in C rather than in a Python loop per record.  Since
    ``matched >= fixed``, a score never exceeds ``fixed``, and a
    candidate with ``fixed`` at or below the level's floor is skipped
    before anything else is computed for it.

    ``correct`` enables the no-regression check: candidates matching
    any correct record are discarded.  Pass None to skip it (used at
    the seed nodes, whose correct sets are most of the corpus).  A
    template's correct-record keys are only collected once it has a
    candidate that could still beat the best so far.

    Ties break on template id, then field values, then conclusion, so
    the choice never depends on iteration order.
    """
    floor = thresholds.for_level(level)
    objs = [r.obj for r in wrong]
    golds = [r.gold for r in wrong]
    correct_objs = None if correct is None else [r.obj for r in correct]
    best = None
    for template, get in zip(CATALOG, _KEY_GETTERS):
        # a one-field getter returns the bare value, not a 1-tuple;
        # within one template both sort alike, so the tie-break holds
        single = len(template.fields) == 1
        keys = list(map(get, objs))
        matched = Counter(keys)
        fixed = Counter(zip(keys, golds))
        blocked = None
        for (values, conclusion), a in fixed.items():
            if a <= floor:
                continue
            if (values is None) if single else (None in values):
                continue
            score = 2 * a - matched[values]
            if score <= floor:
                continue
            key = (-score, template.id, values, conclusion)
            if best is not None and key >= best[0]:
                continue
            if correct_objs is not None:
                if blocked is None:
                    blocked = set(map(get, correct_objs))
                if values in blocked:
                    continue
            best = (key, template, a, matched[values] - a)
    if best is None:
        return None
    (_, _, values, conclusion), template, a, b = best
    if len(template.fields) == 1:
        values = (values,)
    return Selection(instantiate(template, values, conclusion), template.id, a, b, a - b)


class _Learning:
    """One learning run: tree plus per-node record sets plus audit."""

    def __init__(self, thresholds: Thresholds, max_level: int) -> None:
        self.thresholds = thresholds
        self.max_level = max_level
        self.root = new_root()
        self.addresses: dict[Node, str] = {self.root: ""}
        self.records: dict[Node, _NodeRecords] = {}
        self.audit: list[dict] = []

    def attach(self, parent: Node, rule: Rule) -> Node:
        node = insert_exception(parent, rule)
        if parent.except_child is node:
            base, edge = self.addresses[parent], "e"
        else:
            prev = parent.except_child
            while prev.ifnot_child is not node:
                prev = prev.ifnot_child
            base, edge = self.addresses[prev], "i"
        self.addresses[node] = f"{base}.{edge}" if base else edge
        self.records[node] = _NodeRecords()
        return node

    def seed(self, tag: str) -> Node:
        node = self.attach(self.root, Rule(((_CURRENT_TAG, tag),), tag))
        self.audit.append(
            {
                "event": "seed",
                "address": self.addresses[node],
                "level": 1,
                "rule": render_rule(node.rule),
            }
        )
        return node

    def expand(self, node: Node) -> None:
        level = node.level + 1
        if level > self.max_level:
            return
        state = self.records[node]
        while state.wrong:
            correct = state.correct if node.level >= 2 else None
            selection = select_rule(state.wrong, correct, self.thresholds, level)
            if selection is None:
                return
            child = self.attach(node, selection.rule)
            wrong_before = len(state.wrong)
            moved = self.migrate(state, child)
            moved_wrong = wrong_before - len(state.wrong)
            # checked now, not in the final self-check: a rule that moves
            # no wrong record would be selected and attached again forever
            if moved_wrong != selection.a + selection.b:
                raise LearnerStateError(
                    f"{render_rule(selection.rule)!r} moved {moved_wrong} wrong "
                    f"records, its selection counted {selection.a + selection.b}"
                )
            self.audit.append(
                {
                    "event": "insert",
                    "address": self.addresses[child],
                    "level": level,
                    "rule": render_rule(child.rule),
                    "template": selection.template_id,
                    "a": selection.a,
                    "b": selection.b,
                    "score": selection.score,
                    "threshold": self.thresholds.for_level(level),
                    "moved_wrong": moved_wrong,
                    "moved_correct": moved,
                }
            )
            self.expand(child)

    def migrate(self, state: _NodeRecords, child: Node) -> int:
        """Move records the new child captures; returns how many were correct."""
        rule = child.rule
        child_state = self.records[child]
        correct_before = len(state.correct)
        for records in (state.wrong, state.correct):
            kept = []
            for r in records:
                if rule.matches(r.obj):
                    child_state.file(r, rule.conclusion)
                else:
                    kept.append(r)
            records[:] = kept
        return correct_before - len(state.correct)

    def check_against_tree(self, all_records: list[Record]) -> None:
        """Re-derive every node's record sets from the finished tree.

        The incremental moves done during learning must land each
        record exactly where a fresh tree walk says it belongs; any
        difference means the learner corrupted its own state.
        """
        fresh: dict[Node, tuple[Counter, Counter]] = {
            node: (Counter(), Counter()) for node in self.records
        }
        for r in all_records:
            node = evaluate(self.root, r.obj).node
            if node not in fresh:
                raise LearnerStateError(f"record landed on untracked node {node!r}")
            wrong_c, correct_c = fresh[node]
            (correct_c if r.gold == node.rule.conclusion else wrong_c)[r] += 1
        for node, state in self.records.items():
            wrong_c, correct_c = fresh[node]
            if Counter(state.wrong) != wrong_c or Counter(state.correct) != correct_c:
                raise LearnerStateError(
                    f"stale record sets at {render_rule(node.rule)!r}"
                )


def learn_tree(
    initialized: TaggedCorpus,
    gold: TaggedCorpus,
    thresholds: Thresholds = Thresholds(),
    max_level: int = DEFAULT_MAX_LEVEL,
) -> LearnResult:
    """Grow an exception tree that corrects the initialized corpus toward gold.

    Both corpora must share the same words in the same layout; the
    initialized one carries first-guess tags, the gold one the truth.
    Raises LearnerStateError if a new rule moves other wrong records
    than it was scored on, or if the self-check finds the records out
    of step with the finished tree.
    """
    check_aligned(initialized, gold)
    if max_level < 1:
        raise ValueError(f"max_level must be at least 1, got {max_level}")
    learning = _Learning(thresholds, max_level)
    learning.audit.append(
        {
            "event": "begin",
            "sentences": len(gold),
            "tokens": gold.token_count,
            "seed_tags": list(initialized.tags_in_order()),
            "layer2_threshold": thresholds.layer2,
            "deeper_threshold": thresholds.deeper,
            # Floors are always strict; kept so audit.jsonl bytes stay the same.
            "strict": True,
            "max_level": max_level,
        }
    )

    all_records: list[Record] = []
    for init_sent, gold_sent in zip(initialized.sentences, gold.sentences):
        words = [t.word for t in init_sent]
        tags = [t.tag for t in init_sent]
        objects = make_tag_objects(words, tags)
        for obj, gold_token in zip(objects, gold_sent):
            all_records.append(Record(obj, gold_token.tag))

    seeds = [learning.seed(tag) for tag in initialized.tags_in_order()]
    by_tag = {node.rule.conclusion: node for node in seeds}
    for r in all_records:
        node = by_tag[r.obj.currentTag]
        learning.records[node].file(r, node.rule.conclusion)

    for node in seeds:
        learning.expand(node)

    learning.check_against_tree(all_records)
    return LearnResult(learning.root, learning.audit)


def train_model(gold: TaggedCorpus, options: TrainOptions = TrainOptions()):
    """Full pipeline: lexicon, first guesses, tree.  Returns a Model.

    Training starts from the same first-guess chain that tagging uses.
    """
    from .tagger import Model

    lexicon = build_lexicon(gold)
    initial = InitialTagger(
        lexicon,
        InitialTaggerOptions(mode=options.mode, regex_rules=options.regex_rules),
    )
    initialized = initialize_corpus(gold, initial)
    result = learn_tree(
        initialized,
        gold,
        thresholds=options.thresholds,
        max_level=options.max_level,
    )
    return Model(
        lexicon=lexicon,
        tree=result.root,
        mode=options.mode,
        regex_rules=options.regex_rules,
        separator=options.separator,
        audit=tuple(result.audit),
    )
