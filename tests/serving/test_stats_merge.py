"""Tests for cross-shard stats merging and its zero-traffic edges.

The satellite this pins down: every derived rate on a merged
``ServiceStats`` — ``mean_translation_ms``, ``batch_throughput_qps``,
the cache and plan-cache hit rates — must be ``0.0`` for zero-request
shards, empty merges and all-shed intervals, never a
``ZeroDivisionError``; and the serving counter identity must hold on
every composition of shard snapshots and front-end counters.

Shard snapshots here are real :meth:`MetricsRegistry.snapshot` output,
built with the family names the translation service registers; every
view goes through :meth:`ServiceStats.from_snapshot` and every merge
through :func:`merge_snapshots`, exactly as the shard manager does.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    MetricsRegistry,
    merge_snapshots,
    parse_prometheus_text,
)
from repro.service.service import ServiceStats
from repro.serving import ServingStats, ShardSnapshot
from repro.serving.stats import ShardHistory, expose_shards


def _inc(registry, name, value, **labels):
    registry.counter(name, name, tuple(labels)).labels(**labels).inc(value)


def _set(registry, name, value, **labels):
    registry.gauge(name, name, tuple(labels)).labels(**labels).set(value)


def _observe(registry, name, values, **labels):
    child = registry.histogram(name, name, tuple(labels)).labels(**labels)
    for value in values:
        child.observe(value)


def _cache(registry, hits=0, misses=0, size=0, capacity=8,
           insertions=0, warmed=0):
    """The families a bound :class:`TranslationCache` contributes."""
    _inc(registry, "nl2cm_cache_lookups_total", hits, result="hit")
    _inc(registry, "nl2cm_cache_lookups_total", misses, result="miss")
    _inc(registry, "nl2cm_cache_evictions_total", 0)
    _inc(registry, "nl2cm_cache_insertions_total", insertions)
    _inc(registry, "nl2cm_cache_warmed_total", warmed)
    _set(registry, "nl2cm_cache_size", size)
    _set(registry, "nl2cm_cache_capacity", capacity)


def _busy_shard():
    """A snapshot shaped like a shard that served real traffic."""
    r = MetricsRegistry()
    _inc(r, "nl2cm_requests_total", 10)
    for outcome, n in (("translated", 6), ("cache_hit", 3), ("error", 1)):
        _inc(r, "nl2cm_request_outcomes_total", n, outcome=outcome)
    _inc(r, "nl2cm_batches_total", 2)
    _inc(r, "nl2cm_batch_questions_total", 10)
    _inc(r, "nl2cm_batch_seconds_total", 0.5)
    _observe(r, "nl2cm_translate_seconds", [0.25])
    _observe(r, "nl2cm_stage_seconds", [0.125] * 8 + [0.0],
             stage="nl-parsing", kind="leaf")
    _inc(r, "planner_plan_cache_total", 4, result="hit")
    _inc(r, "planner_plan_cache_total", 2, result="miss")
    _inc(r, "planner_plans_compiled_total", 2)
    _cache(r, hits=3, misses=7, size=7, capacity=32, insertions=7,
           warmed=2)
    _set(r, "nl2cm_workers", 4)
    _set(r, "nl2cm_kb_lint_diagnostics", 1, severity="warning")
    return r.snapshot()


def _view(*snapshots):
    return ServiceStats.from_snapshot(merge_snapshots(*snapshots))


class TestZeroTrafficEdges:
    def test_empty_merge_has_no_division_errors(self):
        merged = _view()
        assert merged.requests == 0
        assert merged.mean_translation_ms == 0.0
        assert merged.batch_throughput_qps == 0.0
        assert merged.plan_cache_hit_rate == 0.0
        assert merged.cache_hit_rate == 0.0
        assert merged.cache is None

    def test_zero_request_shard_rates_are_zero(self):
        stats = ServiceStats.from_snapshot({})
        assert stats.mean_translation_ms == 0.0
        assert stats.batch_throughput_qps == 0.0
        assert stats.plan_cache_hit_rate == 0.0
        assert stats.accounted == 0

    def test_zero_shard_does_not_poison_busy_merge(self):
        """A dead/fresh shard merges as zeros; the busy shard's rates
        survive untouched."""
        merged = _view(_busy_shard(), {})
        assert merged.requests == 10
        assert merged.mean_translation_ms > 0.0
        assert merged.batch_throughput_qps > 0.0
        assert merged.plan_cache_hit_rate == 4 / 6
        assert merged.cache is not None
        assert merged.cache.hit_rate == 3 / 10

    def test_zero_cache_stats_hit_rate_guard(self):
        r = MetricsRegistry()
        _cache(r)
        merged = _view(r.snapshot(), r.snapshot())
        assert merged.cache.capacity == 16
        assert merged.cache.hit_rate == 0.0
        assert merged.cache_hit_rate == 0.0


class TestMergeArithmetic:
    def test_counters_sum(self):
        merged = _view(_busy_shard(), _busy_shard())
        assert merged.requests == 20
        assert merged.translated == 12
        assert merged.served_from_cache == 6
        assert merged.errors == 2
        assert merged.batch_seconds == 1.0
        assert merged.busy_seconds == 0.5
        assert merged.plan_cache_hits == 8

    def test_stages_merge_by_name(self):
        r = MetricsRegistry()
        _observe(r, "nl2cm_stage_seconds", [0.5],
                 stage="nl-parsing", kind="leaf")
        _observe(r, "nl2cm_stage_seconds", [0.25] * 5,
                 stage="ix-finder", kind="leaf")
        merged = _view(_busy_shard(), r.snapshot())
        assert merged.stages["nl-parsing"].count == 10
        assert merged.stages["nl-parsing"].total_seconds == 1.5
        assert merged.stages["nl-parsing"].leaf is True
        assert merged.stages["ix-finder"].count == 5

    def test_cacheless_merge_keeps_cache_none(self):
        r = MetricsRegistry()
        _inc(r, "nl2cm_requests_total", 1)
        assert _view(r.snapshot(), r.snapshot()).cache is None

    def test_mixed_cache_presence_keeps_counters(self):
        r = MetricsRegistry()
        _inc(r, "nl2cm_requests_total", 1)
        merged = _view(_busy_shard(), r.snapshot())
        assert merged.cache is not None
        assert merged.cache.capacity == 32


class TestSerialization:
    """The ``stats`` frame carries a registry snapshot as JSON."""

    def test_roundtrip(self):
        original = _busy_shard()
        rebuilt = json.loads(json.dumps(original))
        assert ServiceStats.from_snapshot(rebuilt) == (
            ServiceStats.from_snapshot(original)
        )

    def test_missing_keys_default_to_zero(self):
        """A snapshot without some families (no cache, no planner, no
        traffic yet) reads those fields as zero."""
        r = MetricsRegistry()
        _inc(r, "nl2cm_requests_total", 3)
        _inc(r, "nl2cm_request_outcomes_total", 3, outcome="translated")
        rebuilt = ServiceStats.from_snapshot(r.snapshot())
        assert rebuilt.requests == 3
        assert rebuilt.errors == 0
        assert rebuilt.stages == {}
        assert rebuilt.cache is None
        assert rebuilt.mean_translation_ms == 0.0

    def test_roundtrip_is_json_safe(self):
        payload = merge_snapshots(_busy_shard(), _busy_shard())
        assert json.loads(json.dumps(payload)) == payload


class TestCarryBaseline:
    """The restart fold: what a dead worker's snapshot contributes to
    the shard's carry-forward baseline."""

    @staticmethod
    def _folded(*epochs):
        history = ShardHistory()
        for snapshot in epochs:
            history.last_seen = snapshot
            history.fold()
        return history

    def test_counters_carry_verbatim(self):
        base = ServiceStats.from_snapshot(
            self._folded(_busy_shard()).view()
        )
        assert base.requests == 10
        assert base.translated == 6
        assert base.errors == 1
        assert base.batch_seconds == 0.5
        assert base.stages["nl-parsing"].count == 9
        assert base.cache.hits == 3
        assert base.cache.misses == 7
        assert base.cache.insertions == 7
        assert base.cache.warmed == 2

    def test_gauges_are_zeroed(self):
        """The replacement reports its own fan-out width, KB-lint
        mirror and cache geometry — summing the dead worker's would
        double-count."""
        base = ServiceStats.from_snapshot(
            self._folded(_busy_shard()).view()
        )
        assert base.workers == 0
        assert base.kb_lint_warnings == 0
        assert base.cache.size == 0
        assert base.cache.capacity == 0

    def test_cacheless_snapshot_stays_cacheless(self):
        history = self._folded({})
        assert ServiceStats.from_snapshot(history.view()).cache is None

    def test_fold_plus_fresh_epoch_is_monotone(self):
        """carry + live after a restart never drops below the pre-crash
        view, and the live worker's gauges are the only ones counted."""
        fresh = MetricsRegistry()
        _inc(fresh, "nl2cm_requests_total", 2)
        _inc(fresh, "nl2cm_request_outcomes_total", 2, outcome="translated")
        _set(fresh, "nl2cm_workers", 4)
        _cache(fresh, hits=1, misses=1, size=2, capacity=32,
               insertions=1, warmed=1)
        history = self._folded(_busy_shard())
        history.last_seen = fresh.snapshot()
        merged = ServiceStats.from_snapshot(history.view())
        assert merged.requests == 12
        assert merged.cache.hits == 4
        assert merged.cache.warmed == 3
        assert merged.workers == 4          # the live worker's, once
        assert merged.cache.capacity == 32  # ditto

    def test_repeated_folds_accumulate(self):
        # Three crashes, same traffic each epoch.
        history = self._folded(*[_busy_shard()] * 3)
        carry = ServiceStats.from_snapshot(history.view())
        assert carry.requests == 30
        assert carry.cache.hits == 9
        assert carry.workers == 0


class TestWarmedField:
    def test_warmed_merges_and_roundtrips(self):
        merged = merge_snapshots(_busy_shard(), _busy_shard())
        assert ServiceStats.from_snapshot(merged).cache.warmed == 4
        rebuilt = json.loads(json.dumps(merged))
        assert ServiceStats.from_snapshot(rebuilt).cache.warmed == 4

    def test_old_snapshot_without_warmed_defaults_to_zero(self):
        payload = _busy_shard()
        del payload["nl2cm_cache_warmed_total"]
        rebuilt = ServiceStats.from_snapshot(payload)
        assert rebuilt.cache.warmed == 0
        assert rebuilt.cache.hits == 3


def _snapshot(shard, metrics, alive=True):
    return ShardSnapshot(
        shard=shard, pid=1000 + shard, alive=alive, pending=0,
        restarts=0, metrics=metrics,
    )


class TestServingIdentity:
    def test_identity_holds_with_traffic_and_shed(self):
        stats = ServingStats(
            shards=(_snapshot(0, _busy_shard()), _snapshot(1, {})),
            shed_queue_full=3,
            shed_breaker_open=1,
            dispatch_errors=2,
            deadline_expired=1,
            restarts=1,
        )
        assert stats.requests == 10 + 4 + 2
        assert stats.errors == 1 + 2
        assert stats.accounted == stats.requests
        assert stats.to_dict()["identity_holds"] is True

    def test_all_shed_interval(self):
        """Zero worker traffic, everything shed: the identity and the
        shed rate still behave."""
        stats = ServingStats(
            shards=(_snapshot(0, {}),),
            shed_queue_full=7,
        )
        assert stats.requests == 7
        assert stats.accounted == 7
        assert stats.shed_rate == 1.0

    def test_quiet_tier_rates_are_zero(self):
        stats = ServingStats(shards=())
        assert stats.requests == 0
        assert stats.shed_rate == 0.0
        assert stats.alive_shards == 0
        payload = stats.to_dict()
        assert payload["identity_holds"] is True
        assert payload["mean_translation_ms"] == 0.0
        assert payload["batch_throughput_qps"] == 0.0

    def test_dead_shard_counts_in_alive_and_identity(self):
        stats = ServingStats(
            shards=(
                _snapshot(0, _busy_shard()),
                _snapshot(1, {}, alive=False),
            ),
            dispatch_errors=3,
        )
        assert stats.alive_shards == 1
        assert stats.requests == stats.accounted

    def test_to_dict_shard_payloads(self):
        stats = ServingStats(shards=(_snapshot(0, _busy_shard()),))
        payload = stats.to_dict()
        assert payload["shards"][0]["shard"] == 0
        assert payload["shards"][0]["alive"] is True
        assert payload["shards"][0]["stats"]["requests"] == 10
        assert payload["total"]["cache"]["hits"] == 3
        assert payload["total"]["stages"]["nl-parsing"]["count"] == 9
        json.dumps(payload)


class TestFederatedExposition:
    def test_each_shard_is_labeled_and_parses(self):
        stats = ServingStats(shards=(
            _snapshot(0, _busy_shard()),
            _snapshot(1, merge_snapshots(_busy_shard(), _busy_shard())),
        ))
        parsed = parse_prometheus_text(
            expose_shards([shard.metrics for shard in stats.shards])
        )
        samples = parsed["nl2cm_requests_total"]["samples"]
        assert samples[("nl2cm_requests_total", (("shard", "0"),))] == 10
        assert samples[("nl2cm_requests_total", (("shard", "1"),))] == 20
        assert sum(samples.values()) == stats.total.requests
        assert parsed["nl2cm_stage_seconds"]["type"] == "histogram"
        assert parsed["nl2cm_cache_size"]["type"] == "gauge"


#: One step of a simulated tier: (shard, event, amount).
_EVENTS = st.tuples(
    st.integers(0, 2),
    st.sampled_from(
        ["translated", "cache_hit", "error", "shed", "probe", "restart"]
    ),
    st.integers(1, 5),
)


class TestCarryForwardProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_EVENTS, max_size=60))
    def test_merged_counters_monotone_gauges_live_identity(self, events):
        """Random per-shard traffic, probes and restarts: the merged
        counters never decrease, the merged gauge is exactly the live
        workers' probed values, and requests == accounted."""

        def worker(width):
            registry = MetricsRegistry()
            _set(registry, "nl2cm_workers", width)
            return registry

        live = [worker(1) for _ in range(3)]
        widths = [1, 1, 1]
        probed = [0, 0, 0]   # the gauge each history's last_seen holds
        histories = [ShardHistory() for _ in range(3)]
        shed = 0
        previous = None
        for shard, event, amount in events:
            if event == "probe":
                histories[shard].last_seen = live[shard].snapshot()
                probed[shard] = widths[shard]
            elif event == "restart":
                histories[shard].fold()
                live[shard] = worker(amount)
                widths[shard] = amount
                probed[shard] = 0
            elif event == "shed":
                shed += amount
            else:
                _inc(live[shard], "nl2cm_requests_total", amount)
                _inc(live[shard], "nl2cm_request_outcomes_total", amount,
                     outcome=event)
            stats = ServingStats(
                shards=tuple(
                    _snapshot(i, history.view())
                    for i, history in enumerate(histories)
                ),
                shed_queue_full=shed,
            )
            total = stats.total
            counters = (
                total.requests, total.translated,
                total.served_from_cache, total.errors, stats.requests,
            )
            if previous is not None:
                assert all(
                    now >= before for now, before in zip(counters, previous)
                )
            previous = counters
            assert total.workers == sum(probed)
            assert stats.requests == stats.accounted
