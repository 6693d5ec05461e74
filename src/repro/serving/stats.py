"""Cross-shard statistics: carry-forward, the global view, the identity.

Each worker answers a ``stats`` frame with its metrics-registry
snapshot, taken under its service lock.  The shard manager keeps one
:class:`ShardHistory` per shard and stitches them into one
:class:`ServingStats`: per-shard snapshots, their merged total, and the
front-end counters (shed, dispatch errors, deadline expiries, restarts)
no worker can know about.  Every view here is computed by one function
(:meth:`~repro.service.service.ServiceStats.from_snapshot`,
:meth:`ServingStats.from_snapshot`) and every merge is
:func:`~repro.obs.metrics.merge_snapshots`, which goes by metric kind —
so a new metric cannot be forgotten in a merge.

The serving-level counter identity extends the service one::

    requests == translated + served_from_cache + deduplicated
                + errors + shed

``requests`` and ``errors`` are *derived* (worker sums plus front-end
counters), never sampled independently, so the identity holds in every
snapshot by construction.  A request that timed out at the front-end
but completes in the worker is counted by the worker and tracked in
``deadline_expired`` separately.  A worker restart loses the dead
process's registry, but the shard's history folds it into a
**carry-forward** baseline — ``carry = merge(carry,
drop_gauges(last_seen))`` — so merged counters are monotone
non-decreasing across restarts while only live workers' gauges count.

Zero-traffic edges are first-class: a fresh shard, an all-shed interval
or an empty manager merges to a view whose derived rates are ``0.0``,
never a ``ZeroDivisionError`` — the merge tests pin each down.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

from repro.obs.metrics import (
    Snapshot,
    drop_gauges,
    expose_snapshot,
    label_snapshot,
    merge_snapshots,
    read_view,
)
from repro.service.service import ServiceStats

__all__ = ["ServingStats", "ShardHistory", "ShardSnapshot", "expose_shards"]

#: Front-end :class:`ServingStats` fields, and the manager-registry
#: series each one reads: ``field: (family name, label values)``.
_FRONTEND_VIEW = {
    "shed_queue_full": ("serving_shed_total", ("queue_full",)),
    "shed_breaker_open": ("serving_shed_total", ("breaker_open",)),
    "dispatch_errors": ("serving_dispatch_errors_total", ()),
    "deadline_expired": ("serving_deadline_expired_total", ()),
    "restarts": ("serving_worker_restarts_total", ()),
    "cache_warmups_ok": ("serving_cache_warmup_total", ("ok",)),
    "cache_warmups_empty": ("serving_cache_warmup_total", ("empty",)),
    "cache_warmups_failed": ("serving_cache_warmup_total", ("failed",)),
    "cache_warmup_entries": ("serving_cache_warmup_entries_total", ()),
}


class ShardHistory:
    """One shard's lifetime metrics: ``carry`` holds its dead workers'
    counters, ``last_seen`` the live worker's last probed snapshot.
    Not thread-safe: the shard manager guards it with its lock."""

    def __init__(self) -> None:
        self.carry: Snapshot = {}
        self.last_seen: Snapshot = {}

    def fold(self) -> None:
        """The live worker died: its counters join the baseline, its
        gauges (which described a process that is gone) are dropped."""
        self.carry = merge_snapshots(self.carry, drop_gauges(self.last_seen))
        self.last_seen = {}

    def view(self) -> Snapshot:
        """The shard's lifetime snapshot: baseline plus live worker."""
        return merge_snapshots(self.carry, self.last_seen)


def expose_shards(views: list[Snapshot]) -> str:
    """Shard ``i``'s lifetime snapshot ``views[i]`` for every shard, in
    Prometheus text format, each series labeled with its ``shard``."""
    return expose_snapshot(merge_snapshots(*(
        label_snapshot(view, shard=str(shard))
        for shard, view in enumerate(views)
    )))


@dataclass(frozen=True)
class ShardSnapshot:
    """One shard's worker, as the manager saw it at snapshot time.

    ``metrics`` is the shard's *lifetime* registry snapshot
    (:meth:`ShardHistory.view`) and ``stats`` its :class:`ServiceStats`
    view.  ``alive=False`` means the probe failed (worker crashed or
    restarting); the shard still participates in the merge with
    whatever was last known, so the global identity keeps holding and
    no counter ever moves backwards.
    """

    shard: int
    pid: int | None
    alive: bool
    pending: int
    restarts: int
    metrics: Snapshot

    @cached_property
    def stats(self) -> ServiceStats:
        return ServiceStats.from_snapshot(self.metrics)

    def to_dict(self) -> dict:
        return {
            "shard": self.shard,
            "pid": self.pid,
            "alive": self.alive,
            "pending": self.pending,
            "restarts": self.restarts,
            "stats": asdict(self.stats),
        }


@dataclass(frozen=True)
class ServingStats:
    """The global serving view: per-shard snapshots + front-end counters.

    Attributes:
        shards: one :class:`ShardSnapshot` per shard, in shard order;
            :attr:`total` is their merged :class:`ServiceStats`.
        shed_queue_full: sheds due to a full per-shard pending queue.
        shed_breaker_open: sheds due to an open dispatch breaker.
        dispatch_errors: requests that died at the front-end with no
            worker outcome (worker crashed and the restart-retry
            failed, or the manager was closing).
        deadline_expired: requests whose front-end deadline expired
            (the worker may still have completed them; they are *not*
            double-counted as dispatch errors).
        restarts: worker processes restarted after a crash.
        cache_warmups_ok: restarts whose replacement worker was seeded
            with hot cache entries before rejoining the ring.
        cache_warmups_empty: restarts with nothing to replay (no hot
            keys owned by the shard, warm-up disabled at runtime, or
            no usable fingerprint).
        cache_warmups_failed: warm-up attempts that errored; the
            replacement serves cold, admission is never blocked.
        cache_warmup_entries: cache entries replayed into replacement
            workers, summed over all warm restarts.
    """

    shards: tuple[ShardSnapshot, ...]
    shed_queue_full: int = 0
    shed_breaker_open: int = 0
    dispatch_errors: int = 0
    deadline_expired: int = 0
    restarts: int = 0
    cache_warmups_ok: int = 0
    cache_warmups_empty: int = 0
    cache_warmups_failed: int = 0
    cache_warmup_entries: int = 0

    @classmethod
    def from_snapshot(
        cls, shards: tuple[ShardSnapshot, ...], snapshot: Snapshot
    ) -> "ServingStats":
        """The tier view: ``shards`` plus the front-end counters read
        from the shard manager's own registry ``snapshot``."""
        return cls(
            shards=tuple(shards), **read_view(snapshot, _FRONTEND_VIEW)
        )

    @cached_property
    def total(self) -> ServiceStats:
        """The shards' lifetime snapshots merged, as one view."""
        return ServiceStats.from_snapshot(
            merge_snapshots(*(shard.metrics for shard in self.shards))
        )

    @property
    def shed(self) -> int:
        """Requests rejected by admission control (all reasons)."""
        return self.shed_queue_full + self.shed_breaker_open

    @property
    def requests(self) -> int:
        """All requests the tier accepted responsibility for."""
        return self.total.requests + self.shed + self.dispatch_errors

    @property
    def errors(self) -> int:
        """Worker-side translation errors plus front-end dispatch ones."""
        return self.total.errors + self.dispatch_errors

    @property
    def accounted(self) -> int:
        """The outcome sum; equals :attr:`requests` in every snapshot."""
        return (
            self.total.translated + self.total.served_from_cache
            + self.total.deduplicated + self.errors + self.shed
        )

    @property
    def shed_rate(self) -> float:
        """Shed fraction of all requests (0.0 on a quiet tier)."""
        return self.shed / self.requests if self.requests else 0.0

    @property
    def alive_shards(self) -> int:
        return sum(1 for shard in self.shards if shard.alive)

    def to_dict(self) -> dict:
        """The ``GET /stats`` body: totals, identity, per-shard views."""
        return {
            "requests": self.requests,
            "errors": self.errors,
            "accounted": self.accounted,
            "identity_holds": self.requests == self.accounted,
            "shed": self.shed,
            **{field: getattr(self, field) for field in _FRONTEND_VIEW},
            "shed_rate": self.shed_rate,
            "alive_shards": self.alive_shards,
            "total": asdict(self.total),
            "mean_translation_ms": self.total.mean_translation_ms,
            "batch_throughput_qps": self.total.batch_throughput_qps,
            "cache_hit_rate": self.total.cache_hit_rate,
            "plan_cache_hit_rate": self.total.plan_cache_hit_rate,
            "shards": [shard.to_dict() for shard in self.shards],
        }
