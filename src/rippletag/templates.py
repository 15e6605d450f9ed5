"""Rule templates: which context-field combinations a learned rule may test.

A template names one to three fields of the context object.  Filling a
template with the field values of a concrete object yields a candidate
rule condition.  The catalog order is fixed and template ids are part
of the audit trail, so entries must never be reordered.
"""

from __future__ import annotations

from typing import NamedTuple

from .scrdr import FIELD_INDEX, Rule


class Template(NamedTuple):
    id: int
    fields: tuple[int, ...]


def _t(template_id: int, *names: str) -> Template:
    return Template(template_id, tuple(FIELD_INDEX[n] for n in names))


CATALOG: tuple[Template, ...] = (
    # single surrounding words
    _t(1, "prev2Word"),
    _t(2, "prev1Word"),
    _t(3, "word"),
    _t(4, "next1Word"),
    _t(5, "next2Word"),
    # word pairs
    _t(6, "prev2Word", "word"),
    _t(7, "prev1Word", "word"),
    _t(8, "prev1Word", "next1Word"),
    _t(9, "word", "next1Word"),
    _t(10, "word", "next2Word"),
    # word triples
    _t(11, "prev2Word", "prev1Word", "word"),
    _t(12, "prev1Word", "word", "next1Word"),
    _t(13, "word", "next1Word", "next2Word"),
    # single tags
    _t(14, "prev2Tag"),
    _t(15, "prev1Tag"),
    _t(16, "currentTag"),
    _t(17, "next1Tag"),
    _t(18, "next2Tag"),
    # tag pairs
    _t(19, "prev2Tag", "prev1Tag"),
    _t(20, "prev1Tag", "next1Tag"),
    _t(21, "next1Tag", "next2Tag"),
    # words combined with tags
    _t(22, "prev1Tag", "word"),
    _t(23, "word", "next1Tag"),
    _t(24, "prev1Tag", "word", "next1Tag"),
    _t(25, "prev2Tag", "prev1Tag", "word"),
    _t(26, "word", "next1Tag", "next2Tag"),
    # word-final character n-grams
    _t(27, "suffix2"),
    _t(28, "suffix3"),
    _t(29, "suffix4"),
)


def instantiate(
    template: Template, values: tuple[str, ...], conclusion: str
) -> Rule:
    if len(values) != len(template.fields):
        raise ValueError(
            f"template {template.id} takes {len(template.fields)} values, "
            f"got {len(values)}"
        )
    return Rule(tuple(zip(template.fields, values)), conclusion)
