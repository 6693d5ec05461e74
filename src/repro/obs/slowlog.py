"""Slow-query log: keep the span trees of the slowest translations.

Aggregates (histograms) tell you *that* the p99 moved; the slow-query
log tells you *why*, by retaining the full span tree of any translation
whose wall-clock time crossed a threshold.  A bounded ring buffer keeps
the most recent offenders — production logs must never grow without
bound.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from repro.obs.tracing import SpanRecorder

__all__ = ["SlowQuery", "SlowQueryLog"]


@dataclass(frozen=True)
class SlowQuery:
    """One retained slow translation."""

    request_id: str
    text: str
    total_ms: float
    tree: str

    def render(self) -> str:
        return (
            f"-- slow query ({self.total_ms:.1f} ms) "
            f"request={self.request_id}\n"
            f"   {self.text}\n{self.tree}"
        )


class SlowQueryLog:
    """Thread-safe bounded ring of slow translations.

    Args:
        threshold_ms: translations at least this slow are retained.
        capacity: ring size; the oldest entry is dropped when full.
    """

    def __init__(self, threshold_ms: float, capacity: int = 32):
        if threshold_ms < 0:
            raise ValueError("threshold_ms must be >= 0")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.threshold_ms = float(threshold_ms)
        self.capacity = capacity
        self._entries: deque[SlowQuery] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seen = 0

    def record(self, text: str, trace: SpanRecorder) -> bool:
        """Retain ``trace`` if it was slow enough; True when retained."""
        root = trace.root
        total_ms = (root.elapsed if root is not None else 0.0) * 1000
        if total_ms < self.threshold_ms:
            return False
        entry = SlowQuery(
            request_id=trace.request_id,
            text=text,
            total_ms=total_ms,
            tree=trace.render_tree(),
        )
        with self._lock:
            self._entries.append(entry)
            self._seen += 1
        return True

    def entries(self) -> list[SlowQuery]:
        """Snapshot, oldest first."""
        with self._lock:
            return list(self._entries)

    @property
    def seen(self) -> int:
        """Slow translations recorded since construction or the last
        :meth:`clear` (including ones the ring has since dropped)."""
        with self._lock:
            return self._seen

    def sample_seen(self) -> int:
        """:attr:`seen` as a registry callback reads it: one int load,
        no lock, so a scrape never waits on :meth:`record`."""
        return self._seen

    def clear(self) -> None:
        """Empty the ring and zero :attr:`seen`."""
        with self._lock:
            self._entries.clear()
            self._seen = 0

    def render(self) -> str:
        entries = self.entries()
        if not entries:
            return (
                f"slow-query log: empty "
                f"(threshold {self.threshold_ms:.0f} ms)"
            )
        header = (
            f"slow-query log: {len(entries)} shown / {self.seen} seen "
            f"(threshold {self.threshold_ms:.0f} ms)"
        )
        return "\n".join([header] + [e.render() for e in entries])
