"""Span recorder and self-time attribution for the traced benchmark run.

The recorder wraps public entry points of the program from the outside:
:class:`Patches` replaces a class attribute or a callable with a wrapper
that opens a span on entry and closes it on exit, and puts the original
back on :meth:`Patches.restore`. Nothing in ``src`` is instrumented.

Each span carries a name, its layer, wall-clock start and end
(``time.perf_counter``), its parent span and the root id of the item
(title, batch or query) it belongs to. Spans stay in memory; the run
writes them out once at the end
(``run.spans_path``).

A span's *self time* is its duration minus the part of its interval
that its children cover. Children may overlap one another (a generator
step recorded while another call is open, for example), so the covered
part is the length of the union of the children's intervals clipped to
the parent, not the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

__all__ = [
    "Patches",
    "Span",
    "SpanRecorder",
    "StepTimer",
    "covered",
    "self_times",
]

_clock = time.perf_counter


@dataclass
class Span:
    """One recorded call: ``[start, end)`` in wall-clock seconds."""

    span_id: int
    name: str
    layer: str
    parent: int | None
    root: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def export(self) -> dict[str, Any]:
        return {
            "id": self.span_id, "name": self.name, "layer": self.layer,
            "parent": self.parent, "root": self.root,
            "start": self.start, "end": self.end,
        }


def covered(intervals: Iterable[tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi)``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    total = 0.0
    cursor = lo
    for start, end in clipped:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus the union of its
    children's intervals within it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {
        span.span_id: span.duration - covered(
            children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


class SpanRecorder:
    """Keeps every span of a traced run in memory.

    ``open``/``close`` maintain a stack, so a span opened while another
    is open becomes its child. :meth:`item` opens a root span for one
    title, batch or query; every span under it carries its id.
    """

    def __init__(self) -> None:
        #: While False, wrapped calls run untraced (output checks).
        self.enabled = True
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            self._next_id, name, layer,
            None if parent is None else parent.span_id,
            None if parent is None else (parent.root if parent.root
                                         is not None else parent.span_id),
            _clock(),
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        """Close the innermost open span (wrappers close in a ``finally``,
        so spans always close innermost first)."""
        span.end = _clock()
        self._stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def item(self, name: str):
        """One root span (layer ``"item"``) around a title, batch or query."""
        span = self.open(name, "item")
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, fn: Callable, name: str, layer: str,
             tally: dict | None = None) -> Callable:
        """``fn`` wrapped so each call is one span; with ``tally`` each
        call's (integer) result is also added to ``tally[name]``."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            span = recorder.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if tally is not None:
                tally[name] = tally.get(name, 0) + result
            return result

        return traced

    # -- attribution ---------------------------------------------------------

    def inclusive_seconds(self) -> dict[str, float]:
        """Total duration per span name, children included."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.export()) + "\n")


class StepTimer:
    """Iterator proxy timing each ``next()`` of a generator as a span.

    The stepper protocol hands the finished report back as
    ``StopIteration.value``; the proxy lets it pass through untouched.
    """

    __slots__ = ("_gen", "_recorder", "_name", "_layer")

    def __init__(self, gen, recorder: SpanRecorder, name: str, layer: str):
        self._gen = gen
        self._recorder = recorder
        self._name = name
        self._layer = layer

    def __iter__(self):
        return self

    def __next__(self):
        if not self._recorder.enabled:
            return next(self._gen)
        span = self._recorder.open(self._name, self._layer)
        try:
            return next(self._gen)
        finally:
            self._recorder.close(span)


class Patches:
    """Replace attributes with traced wrappers; restore them later."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: list[tuple[Any, str, Any]] = []

    def method(self, owner: Any, attr: str, layer: str,
               name: str | None = None, tally: dict | None = None) -> None:
        """Trace ``owner.attr`` (a function defined on ``owner`` — a
        class or a module)."""
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.recorder.wrap(
            original, name or f"{layer}.{attr}", layer, tally))

    def stepper(self, owner: Any, attr: str, layer: str, name: str) -> None:
        """Trace every ``next()`` of the generators ``owner.attr`` returns."""
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        recorder = self.recorder

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return StepTimer(original(*args, **kwargs), recorder, name, layer)

        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
