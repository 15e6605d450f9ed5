from rippletag.scrdr import FIELD_NAMES, Rule
from rippletag.templates import CATALOG, instantiate

from helpers import TEMPLATE_BY_ID, candidate_rules, project, random_object
import random

import pytest


def names(template):
    return tuple(FIELD_NAMES[i] for i in template.fields)


def test_catalog_has_29_templates_numbered_in_order():
    assert [t.id for t in CATALOG] == list(range(1, 30))
    assert len(TEMPLATE_BY_ID) == 29


def test_field_tuples_are_sorted_unique_and_in_range():
    for t in CATALOG:
        assert 1 <= len(t.fields) <= 3
        assert list(t.fields) == sorted(set(t.fields))
        assert all(0 <= i < len(FIELD_NAMES) for i in t.fields)


def test_no_two_templates_share_a_field_set():
    seen = {t.fields for t in CATALOG}
    assert len(seen) == len(CATALOG)


def test_every_context_field_is_reachable():
    used = {i for t in CATALOG for i in t.fields}
    assert used == set(range(len(FIELD_NAMES)))


def test_fixed_rows_pin_the_numbering():
    by_id = {t.id: names(t) for t in CATALOG}
    assert by_id[2] == ("prev1Word",)
    assert by_id[3] == ("word",)
    assert by_id[4] == ("next1Word",)
    assert by_id[10] == ("word", "next2Word")
    assert by_id[15] == ("prev1Tag",)
    assert by_id[16] == ("currentTag",)
    assert by_id[20] == ("prev1Tag", "next1Tag")
    assert by_id[27] == ("suffix2",)
    assert by_id[29] == ("suffix4",)


def test_project_returns_field_values_or_none():
    rng = random.Random(5)
    obj = random_object(rng)
    for t in CATALOG:
        values = project(t, obj)
        raw = tuple(obj[i] for i in t.fields)
        if any(v is None for v in raw):
            assert values is None
        else:
            assert values == raw


def test_instantiate_builds_a_sorted_rule():
    t = TEMPLATE_BY_ID[20]
    rule = instantiate(t, ("DT", "NN"), "JJ")
    assert rule == Rule(((3, "DT"), (7, "NN")), "JJ")
    with pytest.raises(ValueError):
        instantiate(t, ("DT",), "JJ")


def test_candidate_rules_skip_templates_with_unset_fields():
    rng = random.Random(11)
    for _ in range(20):
        obj = random_object(rng)
        pairs = candidate_rules(obj, "Z")
        ids = [t.id for t, _ in pairs]
        assert ids == sorted(ids)
        for t, rule in pairs:
            assert rule.conclusion == "Z"
            assert rule.matches(obj)
        skipped = {t.id for t in CATALOG} - set(ids)
        for tid in skipped:
            assert project(TEMPLATE_BY_ID[tid], obj) is None
