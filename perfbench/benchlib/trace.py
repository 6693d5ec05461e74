"""Spans recorded around calls into the program's public functions.

The tracer replaces a function at the name its caller looks it up by
(a class attribute such as ``Tokenizer.tokenize`` or a module global
such as ``repro.oassis.engine.iter_bgp``) with a wrapper that records a
span, and puts the original back on :meth:`Tracer.uninstall`.  Nothing
in the program changes; spans live in memory until the run ends.

A span's *self time* is its duration minus the part of its interval
that its child spans cover, so on one thread the self times of a
span tree add up to the root's duration.
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable


class Span:
    __slots__ = ("name", "parent", "start", "end", "size")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        #: optional payload measure (bytes, items) recorded by a hook
        self.size = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span-recording wrappers and keeps the spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    # -- installing -----------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str,
             size: Callable | None = None, iterate: bool = False) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr``.  With ``iterate`` the call returns an iterator,
        and every ``next()`` on it gets a span of its own, so the spans
        cover the time spent producing items and nothing else.
        ``size(args, result)`` may record a payload measure."""
        original = inspect.getattr_static(owner, attr)
        func = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span)
            if size is not None:
                span.size = size(args, result)
            return tracer._iterate(name, result) if iterate else result

        if isinstance(original, staticmethod):
            wrapper = staticmethod(wrapper)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _iterate(self, name: str, inner):
        inner = iter(inner)
        while True:
            span = self._open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                self._close(span)
            span.size = 1
            yield item

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def covered(interval: tuple[float, float],
            children: Iterable[tuple[float, float]]) -> float:
    """Seconds of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    total, reach = 0.0, lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> dict[Span, float]:
    """Each span's duration minus the union of its children's intervals."""
    spans = list(spans)
    children: dict[Span, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span: span.duration - covered((span.start, span.end),
                                      children.get(span, ()))
        for span in spans
    }


def self_totals(spans: Iterable[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    totals: dict[str, float] = defaultdict(float)
    for span, value in self_times(spans).items():
        totals[span.name] += value
    return dict(totals)


def tiling_error(spans: Iterable[Span]) -> float:
    """The largest gap, over all root spans, between a root's duration
    and the summed self times of its tree (0 when self times tile)."""
    spans = list(spans)
    own = self_times(spans)
    per_root: dict[Span, float] = defaultdict(float)
    for span in spans:
        root = span
        while root.parent is not None:
            root = root.parent
        per_root[root] += own[span]
    return max((abs(total - root.duration)
                for root, total in per_root.items()), default=0.0)
