"""Service observability: registry wiring, exposition, honest counters.

The acceptance spine of the observability layer:

* a warmed 50-question batch's exposition round-trips through the
  strict Prometheus text parser;
* per-stage self-time sums agree with ``busy_seconds`` within 1%
  (the span model makes them agree exactly);
* ``warm()`` reports entries actually inserted;
* batch single-flight duplicates are ``deduplicated``, not
  ``served_from_cache`` — even with caching disabled.
"""

import pytest

from repro import MetricsRegistry, NL2CM, TranslationService
from repro.data.corpus import supported_questions
from repro.data.ontologies import load_merged_ontology
from repro.errors import ReproError
from repro.obs import SlowQueryLog, parse_prometheus_text


@pytest.fixture(scope="module")
def ontology():
    return load_merged_ontology()


@pytest.fixture(scope="module")
def corpus_texts():
    return [q.text for q in supported_questions()]


@pytest.fixture(scope="module")
def warmed(ontology, corpus_texts):
    """A service whose cache was warmed, then hit with 50 questions."""
    registry = MetricsRegistry()
    service = TranslationService(
        NL2CM(ontology=ontology), workers=8, cache=256,
        registry=registry,
    )
    inserted = service.warm(corpus_texts)
    # 50 questions: the corpus cycled, so every one is a cache hit.
    batch = [corpus_texts[i % len(corpus_texts)] for i in range(50)]
    items = service.translate_batch(batch)
    # Snapshot immediately: later tests keep using the service.
    return service, registry, inserted, items, service.stats()


class TestWarmedBatchExposition:
    def test_warm_reports_entries_actually_inserted(
        self, warmed, corpus_texts
    ):
        _, _, inserted, _, _ = warmed
        assert inserted == len(corpus_texts)

    def test_batch_served_entirely_without_fresh_translations(
        self, warmed
    ):
        _, _, _, items, stats = warmed
        assert all(item.ok for item in items)
        assert stats.translated == len(supported_questions())
        assert stats.served_from_cache + stats.deduplicated == 50
        assert stats.served_from_cache <= stats.cache.hits

    def test_second_warm_inserts_nothing(self, warmed, corpus_texts):
        service, _, _, _, _ = warmed
        assert service.warm(corpus_texts) == 0

    def test_exposition_round_trips_through_parser(self, warmed):
        _, registry, _, _, _ = warmed
        parsed = parse_prometheus_text(registry.expose())
        assert parsed["nl2cm_requests_total"]["type"] == "counter"
        assert parsed["nl2cm_translate_seconds"]["type"] == "histogram"
        samples = parsed["nl2cm_request_outcomes_total"]["samples"]
        total = parsed["nl2cm_requests_total"]["samples"][
            ("nl2cm_requests_total", ())
        ]
        assert sum(samples.values()) == total
        # Histogram series are complete: +Inf bucket == count.
        h = parsed["nl2cm_translate_seconds"]["samples"]
        assert h[
            ("nl2cm_translate_seconds_bucket", (("le", "+Inf"),))
        ] == h[("nl2cm_translate_seconds_count", ())]

    def test_stage_sums_agree_with_busy_seconds_within_1pct(
        self, warmed
    ):
        service, registry, _, _, _ = warmed
        stats = service.stats()
        stage_total = sum(
            s.total_seconds for s in stats.stages.values()
        )
        assert stats.busy_seconds > 0
        assert stage_total == pytest.approx(
            stats.busy_seconds, rel=0.01
        )
        # And the same holds for the raw exposed histogram sums.
        parsed = parse_prometheus_text(registry.expose())
        exposed = sum(
            value
            for (name, _), value
            in parsed["nl2cm_stage_seconds"]["samples"].items()
            if name == "nl2cm_stage_seconds_sum"
        )
        busy = parsed["nl2cm_translate_seconds"]["samples"][
            ("nl2cm_translate_seconds_sum", ())
        ]
        assert exposed == pytest.approx(busy, rel=0.01)

    def test_cache_gauges_reflect_live_state(self, warmed):
        service, registry, _, _, _ = warmed
        size = registry.get("nl2cm_cache_size")
        assert size.value() == float(len(service.cache))
        capacity = registry.get("nl2cm_cache_capacity")
        assert capacity.value() == 256.0


class TestHonestCounters:
    def test_duplicates_without_cache_count_as_deduplicated(
        self, ontology
    ):
        service = TranslationService(
            NL2CM(ontology=ontology), workers=4, cache=None
        )
        question = "Where do you visit in Buffalo?"
        items = service.translate_batch([question] * 4)
        assert all(item.ok for item in items)
        stats = service.stats()
        assert stats.translated == 1
        assert stats.deduplicated == 3
        assert stats.served_from_cache == 0  # there is no cache
        assert stats.cache is None
        assert stats.requests == stats.accounted == 4

    def test_errors_deduplicate_too(self, ontology):
        service = TranslationService(
            NL2CM(ontology=ontology), workers=4, cache=8
        )
        items = service.translate_batch(
            ["How many parks are in Buffalo?"] * 3
        )
        assert not any(item.ok for item in items)
        stats = service.stats()
        assert stats.errors == 3
        assert stats.deduplicated == 0
        assert stats.requests == stats.accounted == 3

    def test_warm_excludes_rejected_questions(self, ontology):
        service = TranslationService(NL2CM(ontology=ontology), cache=8)
        inserted = service.warm([
            "Where do you visit in Buffalo?",
            "How many parks are in Buffalo?",   # unsupported: no entry
            "Where do you visit in Buffalo?",   # duplicate: no entry
        ])
        assert inserted == 1

    def test_warm_without_cache_rejected(self, ontology):
        service = TranslationService(
            NL2CM(ontology=ontology), cache=None
        )
        with pytest.raises(ReproError, match="caching disabled"):
            service.warm(["Where do you visit in Buffalo?"])

    def test_reset_stats_zeroes_registry_and_cache_counters(
        self, ontology
    ):
        registry = MetricsRegistry()
        service = TranslationService(
            NL2CM(ontology=ontology), cache=8, registry=registry
        )
        service.translate("Where do you visit in Buffalo?")
        service.translate("Where do you visit in Buffalo?")
        assert service.stats().requests == 2
        service.reset_stats()
        stats = service.stats()
        assert stats.requests == 0
        assert stats.cache.hits == stats.cache.misses == 0
        assert stats.cache.size == 1  # entries survive the reset
        # The registry keeps its registrations, just zeroed.
        assert registry.get("nl2cm_requests_total").value() == 0.0


class TestSlowLogIntegration:
    def test_threshold_zero_logs_every_fresh_translation(
        self, ontology
    ):
        slow = SlowQueryLog(threshold_ms=0)
        service = TranslationService(
            NL2CM(ontology=ontology), cache=8, slow_log=slow
        )
        question = "Where do you visit in Buffalo?"
        service.translate(question)
        service.translate(question)  # cache hit: no pipeline, no entry
        assert slow.seen == 1
        assert service.stats().slow_queries == 1
        entry = slow.entries()[0]
        assert entry.text == question
        assert "ix-detection" in entry.tree

    def test_threshold_filters(self, ontology):
        service = TranslationService(
            NL2CM(ontology=ontology), cache=8, slow_log=10_000.0
        )
        service.translate("Where do you visit in Buffalo?")
        assert service.slow_log.seen == 0
        assert service.stats().slow_queries == 0


class TestSharedRegistry:
    def test_two_services_aggregate_into_one_registry(self, ontology):
        registry = MetricsRegistry()
        nl2cm = NL2CM(ontology=ontology)
        a = TranslationService(nl2cm, cache=8, registry=registry)
        b = TranslationService(nl2cm, cache=8, registry=registry)
        a.translate("Where do you visit in Buffalo?")
        b.translate("Where do you visit in Buffalo?")
        assert registry.get("nl2cm_requests_total").value() == 2.0
        # Each service's stats view reads the shared totals.
        assert a.stats().requests == b.stats().requests == 2

    def test_counters_add_up_and_gauges_read_the_first_owner(
        self, ontology
    ):
        from repro.resilience import ResilienceConfig

        registry = MetricsRegistry()
        nl2cm = NL2CM(ontology=ontology)
        resilience = ResilienceConfig(breaker_threshold=1)
        a = TranslationService(
            nl2cm, workers=2, cache=8, registry=registry,
            resilience=resilience,
        )
        b = TranslationService(
            nl2cm, workers=3, cache=4, registry=registry,
            resilience=resilience,
        )
        bare = TranslationService(nl2cm, cache=None, registry=registry)
        for service in (a, b):
            for _ in range(2):
                service.translate("Where do you visit in Buffalo?")
        a._r_breaker.record_failure()
        b._r_breaker.record_failure()
        # Two open breakers (state 2 each) read as one open one.
        assert registry.get("nl2cm_breaker_state").value() == 2.0
        stats = bare.stats()
        assert a.stats() == b.stats() == stats
        # Cache counts are totals over both caches ...
        assert (stats.cache.hits, stats.cache.misses) == (2, 2)
        # ... while state gauges describe the first registrant.
        assert stats.cache.capacity == 8
        assert stats.workers == 2


def _samples(registry, name):
    """``{label values: value}`` of one exposed family."""
    family = parse_prometheus_text(registry.expose()).get(name)
    if family is None:
        return {}
    return {
        tuple(value for _, value in labels): sample
        for (_, labels), sample in family["samples"].items()
    }


class TestOneCountPerEvent:
    """``stats()`` and ``/metrics`` read the same count for every
    event, so resets cannot leave the two views disagreeing."""

    def test_reset_stats_zeroes_plan_cache_in_both_views(
        self, ontology, corpus_texts
    ):
        from repro.__main__ import demo_engine

        registry = MetricsRegistry()
        nl2cm = NL2CM(ontology=ontology)
        service = TranslationService(nl2cm, cache=8, registry=registry)
        engine = demo_engine(ontology, size=20, seed=7)
        engine.planner = nl2cm.planner
        for text in corpus_texts[:2] * 2:
            engine.evaluate(service.translate(text).query)
        assert service.stats().plan_cache_hits > 0
        service.reset_stats()
        stats = service.stats()
        samples = _samples(registry, "planner_plan_cache_total")
        assert stats.plan_cache_hits == samples[("hit",)] == 0
        assert stats.plan_cache_misses == samples[("miss",)] == 0
        assert stats.plan_cache_invalidations == 0
        assert samples[("invalidated",)] == 0
        compiled = _samples(registry, "planner_plans_compiled_total")
        assert stats.plans_compiled == compiled[()] == 0
        assert nl2cm.planner.snapshot().hits == 0

    def test_cache_clear_zeroes_both_views(self, ontology):
        registry = MetricsRegistry()
        service = TranslationService(
            NL2CM(ontology=ontology), cache=8, registry=registry
        )
        service.translate("Where do you visit in Buffalo?")
        service.translate("Where do you visit in Buffalo?")
        assert _samples(registry, "nl2cm_cache_lookups_total")[("hit",)] == 1
        service.cache.clear()
        cache = service.cache.stats()
        lookups = _samples(registry, "nl2cm_cache_lookups_total")
        assert cache.hits == lookups[("hit",)] == 0
        assert cache.misses == lookups[("miss",)] == 0
        assert cache.insertions == _samples(
            registry, "nl2cm_cache_insertions_total"
        )[()] == 0
        assert cache.size == _samples(registry, "nl2cm_cache_size")[()] == 0
        assert service.stats().cache == cache

    def test_reset_stats_zeroes_slow_queries_in_both_views(self, ontology):
        registry = MetricsRegistry()
        slow = SlowQueryLog(threshold_ms=0)
        service = TranslationService(
            NL2CM(ontology=ontology), cache=None, registry=registry,
            slow_log=slow,
        )
        service.translate("Where do you visit in Buffalo?")
        samples = _samples(registry, "nl2cm_slow_queries_total")
        assert service.stats().slow_queries == samples[()] == slow.seen == 1
        service.reset_stats()
        samples = _samples(registry, "nl2cm_slow_queries_total")
        assert service.stats().slow_queries == samples[()] == slow.seen == 0
        service.translate("Where do you visit in Buffalo?")
        assert service.stats().slow_queries == slow.seen == 1
