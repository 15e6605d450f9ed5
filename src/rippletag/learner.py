"""Error-driven construction of the exception tree.

A training record is a row: row ``r`` of the corpus-wide context
columns (``scrdr.corpus_columns``, the ``block_columns`` window that
the tagger's compiled walk reads, with every suffix cut) is token ``r``
of the corpus, and ``gold[r]`` is its gold tag.

Layer 1 seeds one node per tag the first-guess tagger produced, each
passing its tag through unchanged.  Every training token is then filed
at the node that currently decides it: as a correct record if its gold
tag is the node's conclusion, as a wrong record otherwise.  Nodes with
wrong records grow exception children (``select_rule``): candidate
rules come from filling templates with the wrong records' own context
values, a candidate's score is (wrong records it fixes) minus (wrong
records it matches but leaves wrong), and the best scorer above the
level's threshold is attached.  Matching records move down to the new
child, filed there as it is attached, and the child is expanded in
turn before the parent looks for its next exception.

Selection does not recount a node's records for every rule, in the
manner of Ngai & Florian's "fast lane" transformation-based learning
(NAACL 2001).  Each node keeps one candidate table per template
(``_Candidates``), holding only the candidates above the level's
floor: records never enter a node after it is created, so no other
candidate can ever win there.  The wrong records are split by gold tag
first, and each gold group's bare template values are counted on their
own, so counting a table never builds a (values, gold) pair per
record; subtracting builds one only for a leaving record whose values
are still hot.

Below the seed layer a node vetoes: it selects no rule that matches
one of its correct records.  The veto is applied once, when a table is
filled: a candidate whose values some correct record has never enters
the table.  Correct records never leave a vetoing node and hot values
only cool, so the values vetoed at the fill cover every later count.

The tables are lazy.  At the node's first selection only the
single-field templates are counted; each table's bound, its largest
unvetoed count, caps every score it can give, and a multi-field
template starts unfilled, bounded by its fields' largest counts before
the veto, since a tuple of values can pass the veto although each of
its values fails it.  Records leave an expanding node only through
``_Candidates.move``, which takes the rows a new child's rule matches
out of the node's lists and logs the wrong ones for the tables.
Selection visits the tables by descending bound, brings each one up to
date as it visits it (counting it, or subtracting the records that
left since its last visit) and stops at the first table whose bound is
below the best score found, so a table that cannot hold the winner is
not counted at all.  A table reads at most the node's records at its
first selection plus those that left it.  The tables live only while
the node is being expanded.

Once the tree is finished, a self-check gives each row one owner: a
list of length n holds, for every row, the node and the side (wrong or
correct) of the record list that files it, and the rows filed are
counted.  It then reruns the tagger's compiled walk
(``tagger.run_chain``) over every row in one call, each node labelled
by itself, and reads the walk's labels one at a time beside the owners,
never holding a list of them.  It raises ``LearnerStateError`` unless
every row's owner is the node that the walk says decides it, on the
side its gold tag gives, and exactly n rows were filed.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
from itertools import compress, repeat
from operator import attrgetter, eq, itemgetter, not_
from typing import Iterable, NamedTuple, Sequence

from .corpus import (
    DEFAULT_SEPARATOR,
    AlignmentError,
    TaggedCorpus,
    check_separator,
    check_tag,
)
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
    corpus_columns,
    insert_exception,
    new_root,
    render_rule,
)
from .tagger import Model, compile_chain, run_chain
from .templates import CATALOG, Template, instantiate

# Unused here; the benchmark's probes look the names up in this module.
from .scrdr import evaluate, make_tag_objects  # noqa: F401

_CURRENT_TAG = FIELD_INDEX["currentTag"]

# The context columns of all training rows, as ``corpus_columns`` returns them.
Columns = Sequence[Sequence[str | None]]

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
            raise ValueError(
                "threshold1 and threshold2 (layer2 and deeper) must be at least 1, "
                f"got {self.layer2} and {self.deeper}"
            )

    def for_level(self, level: int) -> int:
        return self.layer2 if level == 2 else self.deeper


@dataclass(frozen=True)
class TrainOptions:
    """Training settings, checked here as ``load_model`` would check them."""

    thresholds: Thresholds = Thresholds()
    mode: str = MODE_GENERIC
    regex_rules: tuple[tuple[str, str], ...] = DEFAULT_ENGLISH_RULES
    max_level: int = DEFAULT_MAX_LEVEL
    separator: str = DEFAULT_SEPARATOR

    def __post_init__(self) -> None:
        InitialTaggerOptions(self.mode, self.regex_rules)
        if self.max_level < 1:
            raise ValueError(f"max_level must be at least 1, got {self.max_level}")
        check_separator(self.separator)


class Selection(NamedTuple):
    rule: Rule
    template_id: int
    a: int
    b: int


class LearnResult(NamedTuple):
    root: Node
    audit: list[dict]


def _keys(columns: Columns, fields: tuple[int, ...], rows: list[int]) -> list:
    """Each row's values of ``fields``, in row order.

    A one-field key is the bare value, not a 1-tuple; within one
    template both sort alike, so the tie-break holds.
    """
    if len(fields) == 1:
        return list(map(columns[fields[0]].__getitem__, rows))
    return list(zip(*[map(columns[f].__getitem__, rows) for f in fields]))


def _rows_by(values: Sequence[str], rows: Iterable[int]) -> dict[str, list[int]]:
    """``rows`` grouped by ``values[row]``.

    Groups come in order of their value's first occurrence, and each
    keeps its rows in the order given.
    """
    groups: dict[str, list[int]] = {}
    for row in rows:
        groups.setdefault(values[row], []).append(row)
    return groups


class _NodeRecords:
    """The records filed at a node that concludes ``conclusion``.

    A record is correct there iff its gold tag is the conclusion.
    """

    __slots__ = ("wrong", "correct")

    def __init__(self, rows: list[int], gold: Sequence[str], conclusion: str) -> None:
        hits = list(map(conclusion.__eq__, map(gold.__getitem__, rows)))
        self.correct = list(compress(rows, hits))
        self.wrong = list(compress(rows, map(not_, hits)))


class _Table:
    """One template's candidate counts at one node, brought up to date on demand.

    ``fixed[values, gold]`` counts the wrong records with these values
    and this gold tag, for hot candidates only: those above the floor
    whose values contain no None and, at a vetoing node, match no
    correct record.  It is read off the count of the bare values within
    that gold tag's group of wrong records.  ``matched[values]`` counts
    all wrong records with these values, the sum over the gold groups,
    for the values of hot candidates only.  ``hot[values]`` counts the
    gold tags that these values have a ``fixed`` entry with, so values
    leave ``matched`` when it falls to 0.

    ``blocked`` is the set of values that were above the floor at the
    fill and that a correct record has; the veto drops them from every
    count.  It is None while the table is unfilled or when the node
    does not veto.  ``top`` is the largest count above the floor at the
    fill, vetoed values included: the bound a multi-field template
    starts from.

    The counts are those of the node's rows when the first ``seen``
    rows of ``_Candidates.left`` had left it; ``seen`` is None, and the
    counts are None, while the table is unfilled.  ``bound`` is at
    least the largest ``fixed`` count of the node's current rows, and
    equal to it right after ``_Candidates.refresh``.
    """

    __slots__ = (
        "template", "bound", "top", "seen", "fixed", "matched", "blocked", "hot"
    )

    def __init__(self, template: Template, bound: int = 0) -> None:
        self.template = template
        self.bound = bound
        self.top = 0
        self.seen: int | None = None
        self.fixed: dict | None = None
        self.matched: dict | None = None
        self.blocked: set | None = None
        self.hot: Counter | None = None


class _Candidates:
    """The candidate tables of one node: every template that can still win.

    The single-field templates are counted when the node's first
    selection runs.  A multi-field template starts unfilled, its bound
    the smallest of its fields' tables' ``top`` counts, since a tuple of
    values cannot occur in a gold group more often than any one of its
    values; it is not kept at all when that bound is at or below the
    floor.  ``top`` counts vetoed values too: a tuple can match no
    correct record although each of its values matches one.

    While the node is expanded, rows leave it only through ``move``,
    which takes them out of ``state``, the node's records, and only
    logs the wrong ones; ``refresh`` brings a table up to date when
    ``select_rule`` visits it.  Records never enter a node after it is
    created, so a ``fixed`` count, and with it every bound, only falls:
    a table whose bound, its largest unvetoed count, falls to the floor
    can never give the winner again and is dropped for good.
    """

    __slots__ = (
        "columns", "gold", "state", "vetoes", "floor", "left", "tables", "_groups"
    )

    def __init__(
        self,
        columns: Columns,
        gold: Sequence[str],
        state: _NodeRecords,
        vetoes: bool,
        floor: int,
    ) -> None:
        self.columns = columns
        self.gold = gold
        self.state = state
        # a vetoing node keeps no candidate that matches one of its
        # correct records in its tables
        self.vetoes = vetoes
        self.floor = floor
        # the wrong rows that left the node, in the order they left
        self.left: list[int] = []
        # the node's wrong rows grouped by gold tag, until rows leave
        self._groups: dict[str, list[int]] | None = None
        singles = {}
        for template in CATALOG:
            if len(template.fields) == 1:
                table = _Table(template)
                self.refresh(table)
                if table.top > floor:
                    singles[template.fields[0]] = table
        # a single whose candidates are all vetoed leaves at the first
        # ``by_bound``, but still bounds the tuples of its field
        self.tables = list(singles.values())
        for template in CATALOG:
            parents = [singles.get(field) for field in template.fields]
            if len(parents) > 1 and None not in parents:
                bound = min(parent.top for parent in parents)
                self.tables.append(_Table(template, bound))

    def move(self, rule: Rule) -> tuple[list[int], list[int]]:
        """Take the rows ``rule`` matches out of the node: (wrong, correct).

        The wrong rows taken are logged for the tables.  At a vetoing
        node the selected rule matches no correct record, so only the
        wrong ones are tested; the self-check would catch a correct
        record left behind.
        """
        fields = tuple(i for i, _ in rule.tests)
        wanted = tuple(value for _, value in rule.tests)
        if len(fields) == 1:
            wanted = wanted[0]

        def take(rows: list[int]) -> list[int]:
            hits = list(map(eq, _keys(self.columns, fields, rows), repeat(wanted)))
            taken = list(compress(rows, hits))
            rows[:] = list(compress(rows, map(not_, hits)))
            return taken

        wrong = take(self.state.wrong)
        correct = [] if self.vetoes else take(self.state.correct)
        self.left += wrong
        self._groups = None
        return wrong, correct

    def by_bound(self) -> list[_Table]:
        """The tables whose bound is above the floor, largest bound first."""
        self.tables = [table for table in self.tables if table.bound > self.floor]
        self.tables.sort(key=attrgetter("bound"), reverse=True)
        return self.tables

    def refresh(self, table: _Table) -> None:
        """Bring ``table`` up to the node's current rows; its bound becomes exact.

        The bound is then the largest unvetoed ``fixed`` count, or 0.

        An unfilled table is counted from the rows that remain.  A
        stale one subtracts the rows that left since it was last
        brought up to date, unless more left than remain: then it is
        recounted from the rows that remain.  All three give exactly
        the counts of a fresh fill.
        """
        left = self.left
        if table.seen is None or len(left) - table.seen > len(self.state.wrong):
            self._count(table)
        elif table.seen < len(left):
            self._subtract(table, left[table.seen :])
        table.seen = len(left)
        table.bound = max(table.fixed.values(), default=0)

    def _count(self, table: _Table) -> None:
        """Count ``table`` from the node's current rows.

        The hot candidates are found first.  At a vetoing node those
        whose values are in ``blocked`` are then dropped; the fill
        finds ``blocked`` among the values hot then.  A recount keeps
        it: no correct record leaves the node, and a value hot now was
        hot at the fill, since counts only fall.
        """
        columns, floor, fields = self.columns, self.floor, table.template.fields
        single = len(fields) == 1
        if self._groups is None:
            self._groups = _rows_by(self.gold, self.state.wrong)
        fixed = {}
        counted = []
        for conclusion, rows in self._groups.items():
            counts = Counter(_keys(columns, fields, rows))
            counted.append(counts)
            # the floor filter runs in C; few values pass it
            for values in compress(counts, map(floor.__lt__, counts.values())):
                if not ((values is None) if single else (None in values)):
                    fixed[values, conclusion] = counts[values]
        if table.seen is None:
            table.top = max(fixed.values(), default=0)
            if self.vetoes:
                table.blocked = self._vetoed(fields, {values for values, _ in fixed})
        blocked = table.blocked
        if blocked:
            fixed = {key: a for key, a in fixed.items() if key[0] not in blocked}
        hot = Counter(values for values, _ in fixed)
        keys = list(hot)
        sums = map(sum, zip(*[map(counts.__getitem__, keys) for counts in counted]))
        table.fixed, table.matched, table.hot = fixed, dict(zip(keys, sums)), hot

    def _vetoed(self, fields: tuple[int, ...], hot: set) -> set:
        """The values in ``hot`` that some correct record of the node has.

        For more than one field, only the correct records whose first
        field starts some hot value are projected in full.
        """
        if not hot:
            return set()
        rows, first = self.state.correct, self.columns[fields[0]]
        if len(fields) == 1:
            return set(filter(hot.__contains__, map(first.__getitem__, rows)))
        starts = {values[0] for values in hot}
        hits = map(starts.__contains__, map(first.__getitem__, rows))
        rows = list(compress(rows, hits))
        return set(filter(hot.__contains__, _keys(self.columns, fields, rows)))

    def _subtract(self, table: _Table, rows: list[int]) -> None:
        """Subtract the wrong records ``rows`` that left; drop what cools.

        Each record is projected once, and the values still in
        ``matched`` (the hot ones, vetoed values never among them) are
        filtered out in C before they are counted with their gold tag;
        only those counts are subtracted from ``matched`` and ``fixed``.
        A ``fixed`` entry that falls to the floor goes, and a value
        leaves ``matched`` when its last ``fixed`` entry goes.
        """
        floor = self.floor
        fixed, matched, hot = table.fixed, table.matched, table.hot
        keys = _keys(self.columns, table.template.fields, rows)
        hits = list(map(matched.__contains__, keys))
        golds = map(self.gold.__getitem__, rows)
        gone = Counter(zip(compress(keys, hits), compress(golds, hits)))
        for (values, conclusion), n in gone.items():
            m = matched.get(values)
            if m is None:
                continue  # cooled under another gold tag earlier in this loop
            matched[values] = m - n
            key = values, conclusion
            a = fixed.get(key)
            if a is None:
                continue
            if a - n > floor:
                fixed[key] = a - n
                continue
            del fixed[key]
            hot[values] -= 1
            if not hot[values]:
                del hot[values], matched[values]


def select_rule(
    wrong: list[int], correct: list[int] | None, candidates: _Candidates
) -> Selection | None:
    """Pick the highest-scoring candidate rule for one node.

    Candidates fill each template with a wrong record's own values and
    conclude its gold tag.  Per template, ``matched[values]`` counts the
    wrong records a candidate matches and ``fixed[values, gold]`` those
    it would fix, so its score is fixed minus still-wrong:
    ``2 * fixed - matched``.  Below the seed layer the no-regression
    check holds: a candidate that matches a correct record of the node
    is never selected.  The tables apply it when they are filled, so
    such a candidate is in no table.  The seed nodes, whose correct
    sets are most of the corpus, skip it.

    The counts live in ``candidates``, the node's tables, which
    ``expand`` creates at the node's first selection and whose ``move``
    takes every record that leaves.  ``wrong`` and ``correct`` (None
    where the node does not veto) are the node's records.  They are
    not read here; they stay the first two parameters because the
    benchmark's selection probe counts the records each call is handed
    from their lengths.  The tables hold only hot candidates, those
    whose ``fixed`` is above the level's floor, ``candidates.floor``,
    and that pass the veto.  That loses nothing: since
    ``matched >= fixed``, a score never exceeds ``fixed``, and ``fixed``
    never rises at a node, because records only ever leave it.  For the
    same reason a table's bound, its largest unvetoed ``fixed``, caps
    every score it can give.  Tables are visited by descending bound
    and brought up to date only when visited; the scan stops at the
    first table whose bound is below the best score so far.  One whose
    bound equals it is still visited, so the tie-break stays exact.

    Ties break on template id, then field values, then conclusion, so
    the choice never depends on iteration order.
    """
    best = None
    best_score = candidates.floor + 1
    for table in candidates.by_bound():
        if table.bound < best_score:
            break
        candidates.refresh(table)
        if table.bound < best_score:
            continue
        template, matched = table.template, table.matched
        for (values, conclusion), a in table.fixed.items():
            m = matched[values]
            score = 2 * a - m
            if score < best_score:
                continue
            key = (-score, template.id, values, conclusion)
            if best is not None and key >= best[0]:
                continue
            best = (key, template, a, m - a)
            best_score = score
    if best is None:
        return None
    (_, _, values, conclusion), template, a, b = best
    if len(template.fields) == 1:
        values = (values,)
    return Selection(instantiate(template, values, conclusion), template.id, a, b)


class _Learning:
    """One learning run: tree plus per-node record sets plus audit.

    Records are row indices into ``columns`` and ``gold``.
    """

    def __init__(
        self,
        columns: Columns,
        gold: Sequence[str],
        thresholds: Thresholds,
        max_level: int,
    ) -> None:
        self.columns = columns
        self.gold = gold
        self.thresholds = thresholds
        self.max_level = max_level
        self.root = new_root()
        self.addresses: dict[Node, str] = {self.root: ""}
        self.records: dict[Node, _NodeRecords] = {}
        self.audit: list[dict] = []

    def attach(self, parent: Node, rule: Rule, rows: list[int]) -> Node:
        """Insert ``rule`` under ``parent`` and file ``rows`` at the new node."""
        node = insert_exception(parent, rule)
        # "e" to parent's first exception, then one "i" per later sibling
        base = self.addresses[parent]
        path = "e" + ".i" * (len(parent.exceptions) - 1)
        self.addresses[node] = f"{base}.{path}" if base else path
        self.records[node] = _NodeRecords(rows, self.gold, rule.conclusion)
        return node

    def seed(self, tag: str, rows: list[int]) -> Node:
        node = self.attach(self.root, Rule(((_CURRENT_TAG, tag),), tag), rows)
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
        vetoes = node.level >= 2
        floor = self.thresholds.for_level(level)
        candidates = _Candidates(self.columns, self.gold, state, vetoes, floor)
        while state.wrong:
            selection = select_rule(
                state.wrong, state.correct if vetoes else None, candidates
            )
            if selection is None:
                break
            wrong, correct = candidates.move(selection.rule)
            child = self.attach(node, selection.rule, wrong + correct)
            # checked now, not in the final self-check: a rule that moves
            # no wrong record would be selected and attached again forever
            if len(wrong) != selection.a + selection.b:
                raise LearnerStateError(
                    f"{render_rule(selection.rule)!r} moved {len(wrong)} wrong "
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
                    "score": selection.a - selection.b,
                    "threshold": floor,
                    "moved_wrong": len(wrong),
                    "moved_correct": len(correct),
                }
            )
            self.expand(child)

    def check_against_tree(self) -> None:
        """Check that each row has one owner: the node the finished tree names.

        ``owner[row]`` is the (node, correct) pair of the record list
        that holds the row, and the rows filed are counted.  Every row
        is then walked by the tagger's compiled walk, with each node
        labelled by itself, so the check names the deciding node, not
        just its tag; the incremental moves done during learning must
        have filed the row there, on the side its gold tag gives.  A
        lost, misfiled or moved row differs from the walk, and a row
        filed twice at its own node, on the same side, shows in the
        count.  Any of them means the learner corrupted its own state.
        """
        records, columns, gold = self.records, self.columns, self.gold
        owner: list[tuple[Node, bool] | None] = [None] * len(gold)
        for node, state in records.items():
            for side, rows in ((False, state.wrong), (True, state.correct)):
                # the itertools "consume" recipe: the stores run in C
                deque(map(owner.__setitem__, rows, repeat((node, side))), maxlen=0)
        filed = sum(len(state.wrong) + len(state.correct) for state in records.values())
        compiled = compile_chain(self.root, lambda node: node)
        # every first guess has a seed that fires, so no row keeps its default
        walked = run_chain(compiled, columns, columns[_CURRENT_TAG])
        for row, (filed_at, node) in enumerate(zip(owner, walked)):
            if filed_at != (node, gold[row] == node.rule.conclusion):
                raise LearnerStateError(
                    f"stale record sets at {render_rule(node.rule)!r}"
                    if node in records
                    else f"row {row} landed on untracked node {node!r}"
                )
        if filed != len(gold):
            raise LearnerStateError(f"{filed} records filed for {len(gold)} rows")


def learn_tree(
    first_guesses: list[str],
    gold: TaggedCorpus,
    thresholds: Thresholds = Thresholds(),
    max_level: int = DEFAULT_MAX_LEVEL,
) -> LearnResult:
    """Grow an exception tree that corrects the first guesses toward gold.

    ``first_guesses`` holds one first-guess tag per gold token, in token
    order; the list itself becomes the current-tag column, which
    learning never writes.  Raises AlignmentError if its length is not
    gold's token count, and LearnerStateError if a new rule moves other
    wrong records than it was scored on, or if the self-check finds the
    records out of step with the finished tree: a row whose owner, the
    node and side that file it, is not the one the tree's walk gives,
    or more records filed than there are rows.
    """
    if len(first_guesses) != gold.token_count:
        raise AlignmentError(
            f"token counts differ: {len(first_guesses)} vs {gold.token_count}"
        )
    if max_level < 1:
        raise ValueError(f"max_level must be at least 1, got {max_level}")
    columns = corpus_columns(
        list(map(itemgetter(0), gold.tokens())),
        first_guesses,
        map(len, gold.sentences),
    )
    gold_tags = list(map(itemgetter(1), gold.tokens()))
    # rows by first-guess tag, in order of the tag's first occurrence
    rows_by_tag = _rows_by(columns[_CURRENT_TAG], range(len(gold_tags)))
    seed_tags = list(rows_by_tag)
    learning = _Learning(columns, gold_tags, thresholds, max_level)
    learning.audit.append(
        {
            "event": "begin",
            "sentences": len(gold),
            "tokens": gold.token_count,
            "seed_tags": seed_tags,
            "layer2_threshold": thresholds.layer2,
            "deeper_threshold": thresholds.deeper,
            # Floors are always strict; kept so audit.jsonl bytes stay the same.
            "strict": True,
            "max_level": max_level,
        }
    )

    # each tag's rows are dropped once filed at its seed, not held through learning
    seeds = [learning.seed(tag, rows_by_tag.pop(tag)) for tag in seed_tags]
    for node in seeds:
        learning.expand(node)

    learning.check_against_tree()
    return LearnResult(learning.root, learning.audit)


def train_model(gold: TaggedCorpus, options: TrainOptions = TrainOptions()) -> Model:
    """Full pipeline: lexicon, first guesses, tree.  Returns a Model.

    The model's ``audit_text`` holds the learner's audit entries, one
    ``json.dumps(entry, sort_keys=True)`` line each, as ``audit.jsonl``
    stores them.  Training starts from the same first-guess chain that tagging uses.
    A gold tag that ``check_tag`` refuses is refused first, since the
    tagged output could not be written.
    """
    for tag in sorted(gold.tagset):
        check_tag(tag, options.separator)
    lexicon = build_lexicon(gold)
    initial = InitialTagger(
        lexicon,
        InitialTaggerOptions(mode=options.mode, regex_rules=options.regex_rules),
    )
    result = learn_tree(
        initialize_corpus(gold, initial),
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
        audit_text="".join(
            json.dumps(entry, sort_keys=True) + "\n" for entry in result.audit
        ),
    )
