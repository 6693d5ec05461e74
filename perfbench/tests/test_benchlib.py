"""Tests of the benchmark's own parts.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import socket
from collections import OrderedDict
from pathlib import Path

import pytest

from benchlib import loadgen, metrics, trace, workloads
from benchlib.reference import Reference, crowd_seeds

ROOT = Path(__file__).resolve().parents[2]
QUESTIONS = [f"question {i}" for i in range(57)]


@pytest.fixture(scope="module")
def reference():
    return Reference.load()


# -- generators ------------------------------------------------------------------


def test_zipf_is_deterministic_per_seed():
    a = loadgen.zipf_sequence(QUESTIONS, 2000, seed=3)
    assert a == loadgen.zipf_sequence(QUESTIONS, 2000, seed=3)
    assert a != loadgen.zipf_sequence(QUESTIONS, 2000, seed=4)
    # Skewed: the most popular question is drawn far more than 1/57.
    top = max(a.count(q) for q in set(a))
    assert top / len(a) > 3 / len(QUESTIONS)


def test_scan_is_deterministic_and_cyclic():
    a = loadgen.scan_sequence(QUESTIONS, 300, seed=7)
    assert a == loadgen.scan_sequence(QUESTIONS, 300, seed=7)
    assert a != loadgen.scan_sequence(QUESTIONS, 300, seed=8)
    assert sorted(a[:57]) == sorted(QUESTIONS)
    assert a[57:114] == a[:57]


def test_crowd_seeds_are_deterministic():
    assert crowd_seeds(5) == crowd_seeds(5) != crowd_seeds(6)


def _lru_hits(sequence, route, cacheable, capacity):
    caches = {}
    hits = 0
    for text in sequence:
        cache = caches.setdefault(route(text), OrderedDict())
        if text in cache:
            hits += 1
            cache.move_to_end(text)
        elif text in cacheable:
            cache[text] = True
            if len(cache) > capacity:
                cache.popitem(last=False)
    return hits


@pytest.mark.parametrize("seed", range(6))
def test_scan_never_hits_the_tail_cache(reference, seed):
    from repro.service.cache import TranslationCache
    from repro.serving.hashring import HashRing

    ring = HashRing(range(2), replicas=128)  # ShardManager's defaults

    def route(text):
        return ring.lookup(TranslationCache.normalize(text))

    cacheable = set(reference.supported)
    shares = [sum(1 for q in cacheable if route(q) == s) for s in (0, 1)]
    assert workloads.TAIL_CACHE_SIZE < min(shares)
    sequence = loadgen.scan_sequence(reference.questions, 57 * 10, seed)
    assert _lru_hits(sequence, route, cacheable,
                     workloads.TAIL_CACHE_SIZE) == 0
    # The same scan does hit once the cache holds a shard's share.
    assert _lru_hits(sequence, route, cacheable, max(shares)) > 0


# -- percentiles and rungs -----------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert loadgen.percentile(values, 50) == 50
    assert loadgen.percentile(values, 95) == 95
    assert loadgen.percentile(values, 99) == 99
    assert loadgen.percentile(values, 100) == 100
    assert loadgen.percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert loadgen.percentile([4.0], 99) == 4.0
    with pytest.raises(ValueError):
        loadgen.percentile([], 50)


def test_percentile_needs_ten_samples_beyond():
    assert loadgen.supports_percentile(200, 95)
    assert not loadgen.supports_percentile(199, 95)
    assert loadgen.supports_percentile(1000, 99)
    assert not loadgen.supports_percentile(999, 99)
    assert loadgen.supports_percentile(20, 50)


def _ops(latencies_ms, queued_ms=None, ok=True):
    queued_ms = queued_ms or [0.0] * len(latencies_ms)
    return [loadgen.Op(due=0.0, start=0.0, end=lat / 1000, ok=ok,
                       queued=q / 1000)
            for lat, q in zip(latencies_ms, queued_ms)]


def test_rung_holds_only_within_limit_and_without_backlog():
    assert loadgen.rung_passes(_ops([2.0] * 100))
    assert not loadgen.rung_passes(_ops([2.0] * 98 + [150.0] * 2))
    growing = [i * 0.5 for i in range(100)]
    assert not loadgen.rung_passes(_ops([2.0] * 100, growing))
    failed = _ops([2.0] * 100)
    failed[10].ok = False
    assert not loadgen.rung_passes(failed)
    assert failed[10].latency == float("inf")


def test_closed_figures_come_from_the_quickest_units():
    # Forty units of 4 questions each: 38 slow (2 s), two quick (1 s).
    units, t = [], 0.0
    for seconds in [2] * 10 + [1] + [2] * 20 + [1] + [2] * 8:
        units.append([loadgen.Op(t, t, t + seconds / 4, True)
                      for t in (t + k * seconds / 4 for k in range(4))])
        t += seconds
    fast = loadgen.fast_units(units, loadgen.CLOSED_FAST_SHARE)
    assert [loadgen.unit_seconds(u) for u in fast] == pytest.approx([1.0, 1.0])
    rate, p50 = loadgen.closed_figures(units)
    assert rate == pytest.approx(4.0)
    assert p50 == pytest.approx(0.25)
    # A failed op answers nothing.
    units[10][0].ok = False
    assert loadgen.closed_figures(units)[0] == pytest.approx(3.5)


def test_repeat_figures_take_the_quickest_run_of_each_op():
    # Three ops repeated three times; two repeats of each are slowed.
    ops = []
    for key, seconds in (("a", 0.001), ("b", 0.002), ("c", 0.004)):
        for slowed in (3.0, 1.0, 1.2):
            ops.append(loadgen.Op(0.0, 0.0, seconds * slowed, True, key=key))
    rate, p50 = loadgen.repeat_figures(ops)
    assert rate == pytest.approx(3 / 0.007)
    assert p50 == pytest.approx(0.002)
    # An op that never succeeds answers nothing, but its time counts,
    # and it ranks above every answered op in the latency order.
    ops += [loadgen.Op(0.0, 0.0, 0.003, False, key=key) for key in "de"]
    rate, p50 = loadgen.repeat_figures(ops)
    assert rate == pytest.approx(3 / 0.013)
    assert p50 == pytest.approx(0.004)


def test_open_loop_p50_uses_the_quickest_quarter_of_units():
    # Four units of 2 requests: three at 10 ms, one quick at 2 ms.
    ops = [loadgen.Op(0.0, 0.0, lat, True)
           for lat in (0.010, 0.010, 0.002, 0.002, 0.010, 0.010, 0.010, 0.010)]
    assert loadgen.open_loop_p50(ops, 2) == pytest.approx(0.002)


# -- self times ---------------------------------------------------------------------


def _span(name, parent, start, end):
    span = trace.Span(name, parent)
    span.start, span.end = start, end
    return span


def test_self_time_subtracts_the_children_union():
    root = _span("root", None, 0.0, 10.0)
    a = _span("a", root, 1.0, 4.0)
    leaf = _span("leaf", a, 2.0, 3.0)
    b = _span("b", root, 5.0, 9.0)
    own = trace.self_times([root, a, leaf, b])
    assert own[root] == pytest.approx(3.0)
    assert own[a] == pytest.approx(2.0)
    assert own[leaf] == pytest.approx(1.0)
    assert own[b] == pytest.approx(4.0)
    assert trace.tiling_error([root, a, leaf, b]) == pytest.approx(0.0)
    assert trace.self_totals([root, a, leaf, b])["a"] == pytest.approx(2.0)


def test_overlapping_children_are_counted_once():
    # Children on other threads may overlap; their union is covered.
    assert trace.covered((0.0, 10.0), [(1.0, 5.0), (3.0, 6.0), (8.0, 12.0)]) \
        == pytest.approx(7.0)
    root = _span("batch", None, 0.0, 10.0)
    kids = [_span("t", root, 1.0, 5.0), _span("t", root, 3.0, 6.0)]
    assert trace.self_times([root, *kids])[root] == pytest.approx(5.0)


def test_wrapped_calls_nest_and_tile():
    class Layer:
        def outer(self, n):
            return [self.inner(i) for i in range(n)]

        def inner(self, i):
            return i

    tracer = trace.Tracer()
    original = Layer.inner
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner", size=lambda args, result: 1)
    try:
        assert Layer().outer(3) == [0, 1, 2]
    finally:
        tracer.uninstall()
    assert Layer.inner is original
    outer = tracer.by_name("outer")
    inner = tracer.by_name("inner")
    assert len(outer) == 1 and len(inner) == 3
    assert all(s.parent is outer[0] and s.size == 1 for s in inner)
    assert trace.tiling_error(tracer.spans) < 1e-9


def test_iterator_spans_cover_each_next():
    def produce(n):
        return iter(range(n))

    class Holder:
        pass

    Holder.produce = staticmethod(produce)
    tracer = trace.Tracer()
    tracer.wrap(Holder, "produce", "produce", iterate=True)
    try:
        assert list(Holder.produce(4)) == [0, 1, 2, 3]
    finally:
        tracer.uninstall()
    spans = tracer.by_name("produce")
    assert len(spans) == 1 + 5  # the call, four items and the stop
    assert sum(s.size for s in spans) == 4


# -- failed ops ----------------------------------------------------------------------


class _Response:
    def __init__(self, status, body):
        self.status = status
        self._body = body
        self.will_close = False

    def read(self):
        return self._body


class _Connection:
    """A stand-in for ``http.client.HTTPConnection``."""

    def __init__(self, reply):
        self._reply = reply

    def __call__(self, host, port, timeout):
        return self

    def request(self, *args, **kwargs):
        pass

    def getresponse(self):
        if isinstance(self._reply, BaseException):
            raise self._reply
        return self._reply

    def close(self):
        pass


def _send(reference, reply, text):
    tally = workloads.Tally()
    sender = workloads.HTTPSender("127.0.0.1", 1, reference, tally,
                                  keep_alive=True, connect=_Connection(reply))
    ok = sender(text)
    return ok, tally.attempted, tally.failed


def test_each_failed_op_counts_once(reference):
    good = reference.supported[0]
    body = json.dumps({"ok": True, "query": reference.entries[good]["query"]})
    assert _send(reference, _Response(200, body.encode()), good) == (True, 1, 0)
    wrong = json.dumps({"ok": True, "query": "SELECT nothing"}).encode()
    for reply in (
        _Response(200, wrong),
        _Response(429, b'{"error": {"type": "AdmissionRejected"}}'),
        _Response(200, b"not json"),
        socket.timeout("timed out"),
        ConnectionRefusedError(),
    ):
        assert _send(reference, reply, good) == (False, 1, 1)


def test_rejections_must_be_422_verification_errors(reference):
    text = reference.unsupported[0]
    body = b'{"ok": false, "error": {"type": "VerificationError"}}'
    assert reference.check_http(text, 422, body)
    assert not reference.check_http(text, 500, body)
    assert not reference.check_http(
        text, 422, b'{"error": {"type": "QueryLintError"}}')
    assert reference.check_item(text, None, "VerificationError")
    assert not reference.check_item(text, "SELECT", None)


def test_reference_agrees_with_corpus_gold(reference):
    from repro.data.corpus import CORPUS

    assert len(reference.supported) == 49
    assert len(reference.unsupported) == 8
    assert reference.check_gold(CORPUS) == 12


# -- the contract file ---------------------------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, defined in (("end_to_end", metrics.END_TO_END),
                         ("per_layer", metrics.PER_LAYER)):
        assert [m["name"] for m in spec[key]] == [m.name for m in defined]
        for entry, metric in zip(spec[key], defined):
            assert (entry["unit"], entry["better"]) == (metric.unit,
                                                        metric.better)
