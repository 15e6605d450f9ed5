"""In-memory spans for the benchmark's traced run.

A span records a name, a start, an end and the index of its parent
span.  Spans stay in a list while the run goes on and are written out
as JSON once it ends.  ``Patcher`` swaps a function for a wrapper that
opens a span around each call, at the attribute where the program looks
the function up (``rippletag.cli.read_raw``, ``Tagger.tag_sentence``),
and puts the original back on ``restore``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import Counter
from typing import Callable, Iterator


class Tracer:
    """Spans and counters of one traced cycle."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        # [name, start, end, parent index or None]
        self.spans: list[list] = []
        self.counters: Counter[str] = Counter()
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.clock(), None, parent])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self._open.pop()
        self.spans[index][2] = self.clock()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def wrap(self, fn: Callable, name: str, observe: Callable | None = None) -> Callable:
        """``fn`` with a span around every call.

        ``observe(counters, args, kwargs, result)`` runs after the call,
        outside the span, to count work done at this boundary.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return traced

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans
            ],
            "counters": dict(self.counters),
        }


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so the self times of a finished tree of
    spans add up to the duration of its root.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def totals(spans: list[list]) -> tuple[dict[str, float], dict[str, int]]:
    """Self time and call count per span name."""
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        seconds[name] = seconds.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
    return seconds, calls


class Patcher:
    """Replaces attributes with traced wrappers and restores them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        # (owner, attribute, original found in owner.__dict__ or _MISSING)
        self._saved: list[tuple[object, str, object]] = []

    def patch(
        self, owner: object, attr: str, name: str, observe: Callable | None = None
    ) -> None:
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, (classmethod, staticmethod)):
            wrapper = type(static)(self.tracer.wrap(static.__func__, name, observe))
        else:
            wrapper = self.tracer.wrap(static, name, observe)
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


_MISSING = object()
