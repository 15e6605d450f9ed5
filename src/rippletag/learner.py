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
exception.

Selection does not recount a node's records for every rule, in the
manner of Ngai & Florian's "fast lane" transformation-based learning
(NAACL 2001).  When a node's first selection runs, its records are
counted once per template into candidate tables (``_Candidates``),
which keep only the candidates above the level's floor: records never
enter a node after it is created, so no other candidate can ever win
there.  Each move to a child subtracts the leaving records' counts, so
every record is counted into a node's tables once and out of them at
most once.  The tables live only while the node is being expanded.

Once the tree is finished, a self-check re-derives every node's
records from a fresh walk and raises ``LearnerStateError`` on any
difference.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import eq, itemgetter, not_
from typing import Callable, NamedTuple

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
    insert_exception,
    last_fired,
    make_tag_objects,
    new_root,
    render_rule,
)
from .templates import CATALOG, Template, instantiate

# Unused here; the benchmark's probe self-test looks the name up in this module.
from .scrdr import evaluate  # noqa: F401

_CURRENT_TAG = FIELD_INDEX["currentTag"]
# one key function per CATALOG entry, in catalog order
_KEY_GETTERS = tuple(itemgetter(*t.fields) for t in CATALOG)
_OBJ = itemgetter(0)
_GOLD = itemgetter(1)

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
    __slots__ = ("wrong", "correct", "candidates")

    def __init__(self) -> None:
        self.wrong: list[Record] = []
        self.correct: list[Record] = []
        # the node's candidate tables, only while ``expand`` works on it
        self.candidates: _Candidates | None = None

    def file(self, record: Record, conclusion: str) -> None:
        """File a record at a node that concludes ``conclusion``.

        The record is correct there iff its gold tag is the conclusion.
        """
        (self.correct if record.gold == conclusion else self.wrong).append(record)


class _Table(NamedTuple):
    """One template's candidate counts at one node.

    ``fixed[values, gold]`` counts the wrong records with these values
    and this gold tag, for hot candidates only: those above the floor
    whose values contain no None.  ``matched[values]`` counts all wrong
    records with these values and ``blocked[values]`` the correct ones
    (None when the node does not veto); both hold the values of hot
    candidates only, and ``blocked`` no zero counts.
    """

    template: Template
    get: Callable[[TagObject], object]
    fixed: dict
    matched: dict
    blocked: dict | None


class _Candidates:
    """Every candidate rule of one node that can still win there.

    Filled once from the node's records; ``remove`` keeps it in step as
    records leave for a new child.  Records never enter a node after
    it is created, so a candidate's ``fixed`` count only falls: one at
    or below the floor can never win again and is dropped for good,
    and a template left with no candidate is dropped with it.
    """

    __slots__ = ("floor", "golds", "tables", "vetoes")

    def __init__(
        self, wrong: list[Record], correct: list[Record] | None, floor: int
    ) -> None:
        self.floor = floor
        objs = list(map(_OBJ, wrong))
        golds = list(map(_GOLD, wrong))
        # every conclusion a candidate here can have
        self.golds = set(golds)
        # a vetoing node keeps ``blocked`` tables and selects no candidate
        # that matches one of its correct records
        self.vetoes = correct is not None
        correct_objs = list(map(_OBJ, correct)) if self.vetoes else None
        self.tables: list[_Table] = []
        for template, get in zip(CATALOG, _KEY_GETTERS):
            keys = list(map(get, objs))
            # a one-field getter returns the bare value, not a 1-tuple;
            # within one template both sort alike, so the tie-break holds
            single = len(template.fields) == 1
            counts = Counter(zip(keys, golds))
            # the floor filter runs in C; about one candidate in ten passes it
            fixed = {
                key: counts[key]
                for key in compress(counts, map(floor.__lt__, counts.values()))
                if not ((key[0] is None) if single else (None in key[0]))
            }
            if not fixed:
                continue
            all_matched = Counter(keys)
            matched = {values: all_matched[values] for values, _ in fixed}
            blocked = None
            if self.vetoes:
                all_blocked = Counter(map(get, correct_objs))
                blocked = {
                    v: all_blocked[v] for v in all_blocked.keys() & matched.keys()
                }
            self.tables.append(_Table(template, get, fixed, matched, blocked))

    def remove(self, wrong: list[Record]) -> None:
        """Subtract the wrong records that left; drop what falls to the floor.

        Each leaving record is projected once per template, counted in
        C, and only the entries both counted and still hot are visited.
        No correct record leaves a vetoing node, so ``blocked`` only
        loses the values that cool.
        """
        if not wrong:
            return
        floor = self.floor
        objs = list(map(_OBJ, wrong))
        golds = list(map(_GOLD, wrong))
        for table in self.tables:
            fixed, matched, blocked = table.fixed, table.matched, table.blocked
            keys = list(map(table.get, objs))
            gone = Counter(keys)
            hit = matched.keys() & gone.keys()
            if not hit:
                continue
            for values in hit:
                matched[values] -= gone[values]
            gone_fixed = Counter(zip(keys, golds))
            cooled = set()
            for key in fixed.keys() & gone_fixed.keys():
                a = fixed[key] - gone_fixed[key]
                if a > floor:
                    fixed[key] = a
                else:
                    del fixed[key]
                    cooled.add(key[0])
            for values in cooled:
                if not any((values, gold) in fixed for gold in self.golds):
                    del matched[values]
                    if blocked is not None:
                        blocked.pop(values, None)
        self.tables = [table for table in self.tables if table.fixed]


def select_rule(
    wrong: list[Record],
    correct: list[Record] | None,
    thresholds: Thresholds,
    level: int,
    candidates: _Candidates | None = None,
) -> Selection | None:
    """Pick the highest-scoring candidate rule for one node.

    Candidates fill each template with a wrong record's own values and
    conclude its gold tag.  Per template, ``matched[values]`` counts the
    wrong records a candidate matches and ``fixed[values, gold]`` those
    it would fix, so its score is fixed minus still-wrong:
    ``2 * fixed - matched``.  ``correct`` enables the no-regression
    check: candidates matching any correct record (``blocked[values]``
    above 0) are discarded.  Pass None to skip it (used at the seed
    nodes, whose correct sets are most of the corpus).

    The counts live in ``candidates``, the node's tables, which
    ``expand`` builds from the node's records at its first selection
    and ``migrate`` keeps in step; without them they are built here
    from ``wrong`` and ``correct``.  They hold only hot candidates,
    those whose ``fixed`` is above the level's floor.  That loses
    nothing: since ``matched >= fixed``, a score never exceeds
    ``fixed``, and ``fixed`` never rises at a node, because records
    only ever leave it.  The score itself can rise or fall as records
    leave, so it is recomputed on every call.

    Ties break on template id, then field values, then conclusion, so
    the choice never depends on iteration order.
    """
    floor = thresholds.for_level(level)
    if candidates is None:
        candidates = _Candidates(wrong, correct, floor)
    best = None
    best_score = floor + 1
    for table in candidates.tables:
        template, matched, blocked = table.template, table.matched, table.blocked
        for (values, conclusion), a in table.fixed.items():
            m = matched[values]
            score = 2 * a - m
            if score < best_score:
                continue
            key = (-score, template.id, values, conclusion)
            if best is not None and key >= best[0]:
                continue
            if blocked and values in blocked:
                continue
            best = (key, template, a, m - a)
            best_score = score
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
        state = self.records[node]
        if level > self.max_level or not state.wrong:
            return
        correct = state.correct if node.level >= 2 else None
        state.candidates = _Candidates(
            state.wrong, correct, self.thresholds.for_level(level)
        )
        while state.wrong:
            selection = select_rule(
                state.wrong, correct, self.thresholds, level, state.candidates
            )
            if selection is None:
                break
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
        state.candidates = None

    def migrate(self, state: _NodeRecords, child: Node) -> int:
        """Move records the new child captures; returns how many were correct.

        The moved records are subtracted from the node's candidate tables.
        At a vetoing node the selected rule matches no correct record, so
        only the wrong ones are tested; the self-check would catch a
        correct record left behind.
        """
        rule = child.rule
        fields = tuple(i for i, _ in rule.tests)
        wanted = tuple(value for _, value in rule.tests)
        if len(fields) == 1:
            wanted = wanted[0]
        get = itemgetter(*fields)

        def take(records: list[Record]) -> list[Record]:
            hits = list(map(eq, map(get, map(_OBJ, records)), repeat(wanted)))
            taken = list(compress(records, hits))
            records[:] = list(compress(records, map(not_, hits)))
            return taken

        moved_wrong = take(state.wrong)
        moved_correct = [] if state.candidates.vetoes else take(state.correct)
        child_state = self.records[child]
        for r in chain(moved_wrong, moved_correct):
            child_state.file(r, rule.conclusion)
        state.candidates.remove(moved_wrong)
        return len(moved_correct)

    def check_against_tree(self, all_records: list[Record]) -> None:
        """Re-derive every node's record sets from the finished tree.

        The incremental moves done during learning must land each
        record exactly where a fresh tree walk says it belongs; any
        lost, duplicated or misfiled record means the learner
        corrupted its own state.
        """
        fresh: dict[Node, tuple[list[Record], list[Record]]] = {
            node: ([], []) for node in self.records
        }
        for r in all_records:
            node = last_fired(self.root, r.obj)
            if node not in fresh:
                raise LearnerStateError(f"record landed on untracked node {node!r}")
            fresh[node][r.gold == node.rule.conclusion].append(r)
        for node, state in self.records.items():
            wrong, correct = fresh[node]
            if not (
                _same_records(state.wrong, wrong)
                and _same_records(state.correct, correct)
            ):
                raise LearnerStateError(
                    f"stale record sets at {render_rule(node.rule)!r}"
                )


def _same_records(filed: list[Record], walked: list[Record]) -> bool:
    """Whether ``filed`` holds exactly the record objects of ``walked``.

    The walk files each record once, so equal lengths plus equal sets
    of identities rule out lost, duplicated and swapped records alike;
    records are compared as objects, since equal records may be many.
    """
    return len(filed) == len(walked) and set(map(id, filed)) == set(map(id, walked))


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
