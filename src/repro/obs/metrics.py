"""Dependency-free metrics: registry, instruments, Prometheus text format.

The serving layer needs a truthful, scrape-able window into a running
:class:`~repro.service.service.TranslationService`.  This module is the
substrate: a thread-safe :class:`MetricsRegistry` holding three
instrument kinds —

* :class:`Counter` — monotonically increasing floats (requests,
  cache hits, crowd tasks);
* :class:`Gauge` — instantaneous values (queue depth, cache size);
* :class:`Histogram` — cumulative-bucket latency distributions over
  fixed log-scale buckets (per-stage pipeline latency).

Every instrument may be *labeled* (``stage="ix-finder"``); a labeled
family holds one child per label-value combination.  Registration is
get-or-create: asking for an already-registered name returns the
existing family (so a shared registry aggregates across services), and
conflicting re-registration (different kind or label names) raises
:class:`~repro.errors.MetricsError`.

A counter or gauge may instead be a **callback** family that reads a
count its owner keeps (the cache's hits), so each event is counted
once and the owner's reset is the only reset.  Several owners' counts
add up; a gauge reads its first owner only.

:meth:`MetricsRegistry.snapshot` is the one read path: a JSON-safe
dict that :func:`merge_snapshots` adds up by family kind and
:func:`expose_snapshot` renders in the Prometheus text exposition
format (version 0.0.4).  :func:`parse_prometheus_text` parses that
format back — used by the tests and the CI job to prove the output is
well-formed line by line.

Everything is stdlib-only by design: the container this runs in has no
``prometheus_client``, and none is needed.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from itertools import accumulate
from typing import Callable, Mapping

from repro.errors import MetricsError

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "drop_gauges",
    "expose_snapshot",
    "histogram_quantile",
    "label_snapshot",
    "merge_snapshots",
    "parse_prometheus_text",
    "read_view",
    "snapshot_value",
]

#: Fixed log-scale (1-2.5-5 per decade) latency buckets, in seconds,
#: from 100 microseconds to 10 seconds.  Wide enough for a single NLP
#: stage and for a whole crowd-mining evaluation.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: The key of one child inside a family: label values, in the order of
#: the family's ``labelnames``.
LabelValues = tuple[str, ...]

#: A JSON-safe registry snapshot: ``{family name: {"kind", "help",
#: "labelnames", "series": [[label values, value], ...]}}``.  Histogram
#: families also carry ``"buckets"`` (finite upper bounds), and each
#: histogram value is ``{"counts": per-bucket counts, "sum", "count"}``.
Snapshot = dict[str, dict]

#: A callback returns a number for an unlabeled family, else a mapping
#: from label values (a tuple; a bare string for one label) to numbers.
Callback = Callable[[], "float | Mapping[object, float]"]


def _format_value(value: float) -> str:
    """Prometheus sample value: integral floats without the ``.0``."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _render_labels(
    labelnames: tuple[str, ...],
    labelvalues: LabelValues,
    extra: tuple[tuple[str, str], ...] = (),
) -> str:
    pairs = [
        f'{n}="{_escape_label_value(v)}"'
        for n, v in zip(labelnames, labelvalues)
    ]
    pairs.extend(f'{n}="{_escape_label_value(v)}"' for n, v in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def histogram_quantile(
    buckets, counts, count: int, q: float
) -> float:
    """Bucket-interpolated quantile estimate (Prometheus-style).

    ``counts`` are per finite bucket (not cumulative); ``count``
    includes the overflow.  Linear interpolation inside the bucket that
    crosses the target rank; an estimate for admin panels.
    """
    if not 0.0 <= q <= 1.0:
        raise MetricsError("quantile must be in [0, 1]")
    if not count:
        return 0.0
    target = q * count
    running = 0
    lower = 0.0
    for bound, n in zip(buckets, counts):
        if running + n >= target and n:
            return lower + (bound - lower) * (target - running) / n
        running += n
        lower = bound
    # Target falls into the overflow (+Inf) bucket.
    return buckets[-1] if count > sum(counts) else lower


class _Family:
    """Common machinery of a labeled metric family.

    Value mutation and reads share the registry's single re-entrant
    lock: instrument updates are cheap (a dict lookup and a float add),
    and one lock keeps the whole registry's lock ordering trivial —
    nothing in this module ever acquires another lock while holding it.
    Callbacks run under it too, so they must be lock-free and cheap
    (read an int the owner keeps, ``len()`` of a dict).
    """

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        lock: threading.RLock,
        callback: Callback | None = None,
    ):
        if not _METRIC_NAME.match(name):
            raise MetricsError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_NAME.match(label) or label.startswith("__"):
                raise MetricsError(
                    f"invalid label name {label!r} on metric {name!r}"
                )
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._children: dict[LabelValues, object] = {}
        self._callbacks: list[Callback] = []
        if callback is not None:
            self._add_callback(callback)

    def _add_callback(self, callback: Callback) -> None:
        """Add an owner's callback; the same bound method binds once."""
        with self._lock:
            if self._children:
                raise MetricsError(f"metric {self.name!r} stores values")
            if callback not in self._callbacks:
                self._callbacks.append(callback)

    # -- children ------------------------------------------------------------

    def _key(self, labels: Mapping[str, str]) -> LabelValues:
        if set(labels) != set(self.labelnames):
            raise MetricsError(
                f"metric {self.name!r} takes labels "
                f"{list(self.labelnames)}, got {sorted(labels)}"
            )
        return tuple(str(labels[n]) for n in self.labelnames)

    def labels(self, **labels: str):
        """The child for one label-value combination (created lazily)."""
        key = self._key(labels)
        with self._lock:
            if self._callbacks:
                raise MetricsError(
                    f"callback {self.kind} {self.name!r} cannot be set: "
                    f"it reads its owner's count"
                )
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def _default_child(self):
        if self.labelnames:
            raise MetricsError(
                f"metric {self.name!r} is labeled "
                f"{list(self.labelnames)}; use .labels(...)"
            )
        return self.labels()

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _series(self) -> dict[LabelValues, object]:
        """Every series' current sample; the caller holds the lock."""
        if not self._callbacks:
            return {
                key: child.sample() for key, child in self._children.items()
            }
        out: dict[LabelValues, float] = {}
        for callback in self._callbacks:
            values = callback()
            if not self.labelnames:
                values = {(): values}
            for key, value in values.items():
                key = key if isinstance(key, tuple) else (key,)
                out[key] = out.get(key, 0.0) + float(value)
        return out

    def _value(self, labels: Mapping[str, str], default=0.0):
        key = self._key(labels)
        with self._lock:
            return self._series().get(key, default)

    def value(self, **labels: str):
        """Current value; 0.0 for a label combination never touched
        (a histogram's value is its ``{counts, sum, count}`` sample)."""
        return self._value(labels)

    def reset(self) -> None:
        """Zero every stored child **in place**.

        Children are kept (their label series persist at zero, as
        Prometheus series do) so handles cached by hot paths — e.g. the
        service's per-outcome counter children — stay live across a
        reset instead of silently recording into detached objects.
        Callback families are untouched: their owner resets its count.
        """
        with self._lock:
            for child in self._children.values():
                child.reset()

    def snapshot(self) -> dict:
        """This family as one JSON-safe :data:`Snapshot` entry."""
        with self._lock:
            return {
                "kind": self.kind,
                "help": self.help,
                "labelnames": list(self.labelnames),
                "series": [
                    [list(key), value]
                    for key, value in self._series().items()
                ],
            }


class _CounterChild:
    __slots__ = ("_value", "_lock")

    def __init__(self, lock: threading.RLock):
        self._value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError("counters can only increase")
        with self._lock:
            self._value += amount

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def sample(self) -> float:
        with self._lock:
            return self._value


class Counter(_Family):
    """A monotonically increasing value (family of them when labeled)."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)


class _GaugeChild(_CounterChild):
    __slots__ = ()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Gauge(_Family):
    """An instantaneous value; optionally read from a callback."""

    kind = "gauge"

    def _add_callback(self, callback: Callback) -> None:
        """A gauge describes one owner's state (a breaker, a fan-out
        width), which does not add up: the first owner's callback stays."""
        with self._lock:
            if not self._callbacks:
                super()._add_callback(callback)

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)


class _HistogramChild:
    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.RLock, buckets: tuple[float, ...]):
        self._lock = lock
        self.buckets = buckets
        self._counts = [0] * len(buckets)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            if index < len(self._counts):
                self._counts[index] += 1
            self._sum += value
            self._count += 1

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * len(self.buckets)
            self._sum = 0.0
            self._count = 0

    def sample(self) -> dict:
        with self._lock:
            return {
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }

    def cumulative_counts(self) -> list[tuple[float, int]]:
        """``(upper bound, cumulative count)`` pairs, ending at +Inf."""
        with self._lock:
            out, running = [], 0
            for bound, n in zip(self.buckets, self._counts):
                running += n
                out.append((bound, running))
            out.append((math.inf, self._count))
            return out

    def quantile(self, q: float) -> float:
        """See :func:`histogram_quantile`."""
        with self._lock:
            return histogram_quantile(
                self.buckets, self._counts, self._count, q
            )


class Histogram(_Family):
    """A cumulative-bucket distribution (Prometheus histogram)."""

    kind = "histogram"

    def __init__(self, name, help, labelnames, lock, buckets=None):
        super().__init__(name, help, labelnames, lock)
        raw = tuple(buckets) if buckets else DEFAULT_LATENCY_BUCKETS
        if list(raw) != sorted(raw) or len(set(raw)) != len(raw):
            raise MetricsError("histogram buckets must strictly increase")
        if not raw:
            raise MetricsError("histogram needs at least one bucket")
        self.buckets = tuple(float(b) for b in raw if b != math.inf)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self._lock, self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def sum(self, **labels: str) -> float:
        return self._value(labels, {"sum": 0.0})["sum"]

    def count(self, **labels: str) -> int:
        return self._value(labels, {"count": 0})["count"]

    def snapshot(self) -> dict:
        record = super().snapshot()
        record["buckets"] = list(self.buckets)
        return record


class MetricsRegistry:
    """A named collection of metric families with text exposition.

    One registry per service is the normal shape; injecting a shared
    registry into several components (service, cache, engine) gives one
    scrape endpoint for the whole process.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._families: dict[str, _Family] = {}

    # -- registration (get-or-create) ----------------------------------------

    def counter(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        callback: Callback | None = None,
    ) -> Counter:
        return self._register(
            Counter, name, help, tuple(labelnames), callback=callback
        )

    def gauge(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        callback: Callback | None = None,
    ) -> Gauge:
        return self._register(
            Gauge, name, help, tuple(labelnames), callback=callback
        )

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] | None = None,
    ) -> Histogram:
        return self._register(
            Histogram, name, help, tuple(labelnames), buckets=buckets
        )

    def _register(self, cls, name, help, labelnames, **kwargs) -> _Family:
        with self._lock:
            existing = self._families.get(name)
            if existing is None:
                family = cls(name, help, labelnames, self._lock, **kwargs)
                self._families[name] = family
                return family
            if (
                type(existing) is not cls
                or existing.labelnames != labelnames
            ):
                raise MetricsError(
                    f"metric {name!r} is already registered as a "
                    f"{existing.kind} with labels "
                    f"{list(existing.labelnames)}"
                )
            if kwargs.get("callback") is not None:
                existing._add_callback(kwargs["callback"])
            return existing

    # -- introspection -------------------------------------------------------

    def get(self, name: str) -> _Family | None:
        with self._lock:
            return self._families.get(name)

    def __len__(self) -> int:
        with self._lock:
            return len(self._families)

    def reset(self) -> None:
        """Zero every stored value; registrations and callbacks survive."""
        with self._lock:
            for family in self._families.values():
                family.reset()

    # -- snapshot and exposition ---------------------------------------------

    def snapshot(self) -> Snapshot:
        """Every family's current series as one JSON-safe dict.

        Taken under the registry lock in one pass, so no recorded update
        is seen half-done; families keep registration order.
        """
        with self._lock:
            return {
                name: family.snapshot()
                for name, family in self._families.items()
            }

    def expose(self) -> str:
        """The whole registry in Prometheus text format (0.0.4)."""
        return expose_snapshot(self.snapshot())


# ---------------------------------------------------------------------------
# Snapshot algebra: merge by kind, drop gauges, relabel, render
# ---------------------------------------------------------------------------


def _add_samples(kind: str, left, right):
    """``left + right`` for one series; ``left`` None means zero."""
    if kind != "histogram":
        return (left or 0) + right
    if left is None:
        left = {"counts": [0] * len(right["counts"]), "sum": 0, "count": 0}
    return {
        "counts": [a + b for a, b in zip(left["counts"], right["counts"])],
        "sum": left["sum"] + right["sum"],
        "count": left["count"] + right["count"],
    }


def merge_snapshots(*snapshots: Snapshot) -> Snapshot:
    """Add snapshots up, series by series, by family kind.

    Counters, histogram buckets, sums and counts add; so do gauges —
    the sum over live sources (worker caches' sizes, fan-out widths).
    Callers fold a *dead* source in through :func:`drop_gauges` first,
    so its gauges stop counting.  A family's kind, label names and
    buckets must agree across inputs, else :class:`MetricsError`.
    Families keep first-seen order; the inputs are not modified.
    """
    merged: dict[str, dict] = {}
    for snapshot in snapshots:
        for name, family in snapshot.items():
            kind = family["kind"]
            shape = [kind, list(family["labelnames"]), family.get("buckets")]
            into = merged.setdefault(name, dict(
                family, labelnames=shape[1], series={}
            ))
            if shape != [
                into["kind"], into["labelnames"], into.get("buckets")
            ]:
                raise MetricsError(
                    f"cannot merge metric {name!r}: its kind, labels or "
                    f"buckets differ between snapshots"
                )
            series = into["series"]
            for labels, value in family["series"]:
                key = tuple(labels)
                series[key] = _add_samples(kind, series.get(key), value)
    for family in merged.values():
        family["series"] = [[list(k), v] for k, v in family["series"].items()]
    return merged


def snapshot_value(
    snapshot: Snapshot, name: str, labels: tuple = (), default=0
):
    """One series' sample in a snapshot; ``default`` when absent."""
    family = snapshot.get(name)
    for key, value in family["series"] if family else ():
        if tuple(key) == labels:
            return value
    return default


def read_view(snapshot: Snapshot, view: Mapping[str, tuple]) -> dict:
    """``{field: int(sample)}`` for a ``{field: (family, labels)}`` view."""
    return {
        field: int(snapshot_value(snapshot, name, labels))
        for field, (name, labels) in view.items()
    }


def drop_gauges(snapshot: Snapshot) -> Snapshot:
    """``snapshot`` without its gauge families: what a dead source
    leaves behind (its gauges described a process that is gone)."""
    return {
        name: family for name, family in snapshot.items()
        if family["kind"] != "gauge"
    }


def label_snapshot(snapshot: Snapshot, **labels: str) -> Snapshot:
    """``snapshot`` with ``labels`` prepended to every series, so that
    several labeled sources merge side by side (``shard="0"``)."""
    names, values = list(labels), [str(v) for v in labels.values()]
    return {
        name: dict(
            family,
            labelnames=names + list(family["labelnames"]),
            series=[[values + list(k), v] for k, v in family["series"]],
        )
        for name, family in snapshot.items()
    }


def expose_snapshot(snapshot: Snapshot) -> str:
    """A snapshot in Prometheus text format (0.0.4); ends with a
    trailing newline, as scrapers expect, or is empty."""
    lines: list[str] = []
    for name, family in snapshot.items():
        kind, labelnames = family["kind"], tuple(family["labelnames"])
        lines.append(f"# HELP {name} {_escape_help(family['help'])}")
        lines.append(f"# TYPE {name} {kind}")
        for key, value in family["series"]:
            labels = _render_labels(labelnames, key)
            if kind != "histogram":
                lines.append(f"{name}{labels} {_format_value(value)}")
                continue
            cumulative = list(zip(
                family["buckets"], accumulate(value["counts"])
            )) + [(math.inf, value["count"])]
            for bound, running in cumulative:
                le = _render_labels(
                    labelnames, key, (("le", _format_value(bound)),)
                )
                lines.append(f"{name}_bucket{le} {running}")
            lines.append(f"{name}_sum{labels} {_format_value(value['sum'])}")
            lines.append(f"{name}_count{labels} {value['count']}")
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# Text-format parsing (for tests and the CI exposition check)
# ---------------------------------------------------------------------------


def _parse_labels(text: str, lineno: int) -> dict[str, str]:
    """Parse ``name="value",...`` (the part between the braces)."""
    labels: dict[str, str] = {}
    i, n = 0, len(text)
    while i < n:
        match = re.match(r'\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"', text[i:])
        if not match:
            raise ValueError(
                f"line {lineno}: malformed label pair at {text[i:]!r}"
            )
        name = match.group(1)
        i += match.end()
        value = []
        while i < n and text[i] != '"':
            if text[i] == "\\":
                if i + 1 >= n:
                    raise ValueError(
                        f"line {lineno}: dangling escape in label value"
                    )
                escaped = text[i + 1]
                value.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(escaped)
                    or escaped
                )
                i += 2
            else:
                value.append(text[i])
                i += 1
        if i >= n:
            raise ValueError(f"line {lineno}: unterminated label value")
        i += 1  # closing quote
        labels[name] = "".join(value)
        rest = text[i:].lstrip()
        if rest.startswith(","):
            i = n - len(rest) + 1
        elif rest:
            raise ValueError(
                f"line {lineno}: junk after label value: {rest!r}"
            )
        else:
            break
    return labels


def _parse_value(token: str, lineno: int) -> float:
    token = token.strip()
    if token == "+Inf":
        return math.inf
    if token == "-Inf":
        return -math.inf
    if token == "NaN":
        return math.nan
    try:
        return float(token)
    except ValueError as err:
        raise ValueError(
            f"line {lineno}: malformed sample value {token!r}"
        ) from err


def parse_prometheus_text(text: str) -> dict[str, dict]:
    """Parse Prometheus text-format exposition into metric dicts.

    Returns ``{metric name: {"type": str | None, "help": str | None,
    "samples": {(sample name, ((label, value), ...)): float}}}``, where
    the sample name carries any ``_bucket``/``_sum``/``_count`` suffix
    and label pairs are sorted.  Raises :class:`ValueError` on any line
    that is not a valid comment, ``# HELP``, ``# TYPE`` or sample line —
    this strictness is the point: the tests and the CI job use it to
    prove :meth:`MetricsRegistry.expose` output is well-formed.
    """
    metrics: dict[str, dict] = {}

    def entry(name: str) -> dict:
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        found = metrics.get(base) if base in metrics else metrics.get(name)
        if found is None:
            found = {"type": None, "help": None, "samples": {}}
            metrics[name] = found
        return found

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                name = parts[2]
                payload = parts[3] if len(parts) > 3 else ""
                record = metrics.setdefault(
                    name, {"type": None, "help": None, "samples": {}}
                )
                record[parts[1].lower()] = payload
            # Other comments are legal and ignored.
            continue
        match = re.match(
            r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)(\s+\S+)?$",
            line,
        )
        if not match:
            raise ValueError(f"line {lineno}: malformed sample: {raw!r}")
        name, _, labeltext, valuetoken, _timestamp = match.groups()
        labels = (
            _parse_labels(labeltext, lineno) if labeltext else {}
        )
        value = _parse_value(valuetoken, lineno)
        key = (name, tuple(sorted(labels.items())))
        entry(name)["samples"][key] = value
    return metrics
