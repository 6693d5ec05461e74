"""Every metric the benchmark reports: name, unit, direction, meaning.

``BENCHMARK.json`` at the repository root lists the same names; a test
keeps the two in step.  ``moves`` says, before anything is measured,
which end-to-end metric a per-layer metric should move on which
workload, and where it should move nothing.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    meaning: str
    moves: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower",
           "fresh interpreter to ready: import repro + NL2CM(); for HTTP, "
           "import repro + every shard's hello + front end listening "
           "(median of 5 cold starts in process, 3 over HTTP)"),
    Metric("throughput_qps", "1/s", "higher",
           "in process: questions answered per second in the closed loop, "
           "over its quickest twentieth of batches (batch-distinct) or the "
           "quickest run of each repeated question (crowd-exec); HTTP: "
           "the highest rate served within the latency limit "
           "(= max_rate_qps)"),
    Metric("latency_p50_ms", "ms", "lower",
           "median latency: per batch over the quickest twentieth of batches "
           "(batch-distinct), per question over the quickest run of each "
           "(crowd-exec); per request "
           "at the lowest ladder rung over its quickest quarter of 1 s "
           "units (HTTP, timed from when each request fell due)"),
    Metric("max_rate_qps", "1/s", "higher",
           "HTTP: answers per second achieved at the highest ladder rung "
           "with p99 <= 100 ms, no failure and no growing backlog (a "
           "missed rung is tried twice); in-process closed loops: their "
           "completion rate, which one client is served at without a "
           "queue"),
)

PIPELINE = "batch-distinct throughput_qps; http-tail max_rate_qps; " \
           "crowd-exec throughput_qps; nothing on http-hot"

PER_LAYER = (
    Metric("verification.self_ms", "ms", "lower",
           "Verifier.verify self time per question", PIPELINE),
    Metric("verification.reject_share", "share", "lower",
           "share of verifications that reject (fixed by the question set)",
           "nothing: it is a property of the inputs"),
    Metric("nlp.tokenize_calls_per_q", "count", "lower",
           "Tokenizer.tokenize calls per question", PIPELINE),
    Metric("nlp.tokenize.self_ms", "ms", "lower",
           "Tokenizer.tokenize self time per question", PIPELINE),
    Metric("nlp.tag.self_ms", "ms", "lower",
           "PosTagger.tag self time per question", PIPELINE),
    Metric("nlp.parse.self_ms", "ms", "lower",
           "DependencyParser.parse self time per question", PIPELINE),
    Metric("ixdetect.find.self_ms", "ms", "lower",
           "IXFinder.find self time per question", PIPELINE),
    Metric("ixdetect.create.self_ms", "ms", "lower",
           "IXCreator.create self time per question", PIPELINE),
    Metric("freya.generate.self_ms", "ms", "lower",
           "GeneralQueryGenerator.generate self time per question",
           PIPELINE),
    Metric("triples.self_ms", "ms", "lower",
           "IndividualTripleCreator.create self time per question",
           PIPELINE),
    Metric("compose.self_ms", "ms", "lower",
           "QueryComposer.compose self time per question", PIPELINE),
    Metric("querylint.self_ms", "ms", "lower",
           "QueryLint.lint self time per question", PIPELINE),
    Metric("printer.self_ms", "ms", "lower",
           "print_oassisql self time per question", PIPELINE),
    Metric("pipeline.self_ms", "ms", "lower",
           "NL2CM.translate's own glue (stage spans, IX verification) "
           "per question", PIPELINE),
    Metric("service.batch_overhead_ms", "ms", "lower",
           "translate_batch wall time not covered by any NL2CM.translate "
           "span, per batch (thread fan-out cost)",
           "batch-distinct throughput_qps"),
    Metric("cache.hit_share", "share", "higher",
           "translation-cache hits per lookup (worker stats() on HTTP)",
           "http-hot latency_p50_ms"),
    Metric("cache.get_us", "us", "lower",
           "TranslationCache.get time per call", "http-hot latency_p50_ms"),
    Metric("cache.put_us", "us", "lower",
           "TranslationCache.put time per call", "http-tail max_rate_qps"),
    Metric("cache.evictions_per_q", "count", "lower",
           "cache evictions per request (worker stats())",
           "http-tail max_rate_qps"),
    Metric("frames.encode_us", "us", "lower",
           "encode_frame time per frame on the manager side",
           "http-hot latency_p50_ms"),
    Metric("frames.decode_us", "us", "lower",
           "decode_frame time per frame on the manager side",
           "http-hot latency_p50_ms"),
    Metric("frames.reply_bytes", "bytes", "lower",
           "mean payload bytes of a frame the manager decodes",
           "http-hot latency_p50_ms"),
    Metric("shards.submit_p50_ms", "ms", "lower",
           "ShardManager.submit latency, called directly without HTTP",
           "http-hot latency_p50_ms; http-tail max_rate_qps"),
    Metric("shards.submit_p99_ms", "ms", "lower",
           "same, 99th percentile", "http-tail max_rate_qps"),
    Metric("shards.busiest_share", "share", "lower",
           "requests served by the busiest shard / all requests",
           "http-tail max_rate_qps"),
    Metric("shards.shed_total", "count", "lower",
           "requests shed by admission control (429)",
           "http-hot and http-tail max_rate_qps"),
    Metric("http.overhead_ms", "ms", "lower",
           "HTTP p50 at the lowest rung minus direct submit p50 "
           "(the keep-alive stall sits here)",
           "http-hot latency_p50_ms and max_rate_qps"),
    Metric("http.dispatch.self_ms", "ms", "lower",
           "HTTPFrontend.dispatch time outside ShardManager.submit, per "
           "request", "http-hot latency_p50_ms"),
    Metric("engine.evaluate.self_ms", "ms", "lower",
           "OassisEngine.evaluate self time per query",
           "crowd-exec throughput_qps"),
    Metric("engine.where_bindings_per_q", "count", "lower",
           "WHERE solutions streamed by iter_bgp per query",
           "crowd-exec throughput_qps"),
    Metric("rdf.iter_bgp.self_ms", "ms", "lower",
           "iter_bgp planning and streaming time per query",
           "crowd-exec throughput_qps"),
    Metric("planner.hit_share", "share", "higher",
           "plan-cache hits per plan lookup", "crowd-exec throughput_qps"),
    Metric("crowd.ask_calls_per_q", "count", "lower",
           "SimulatedCrowd.ask calls per query (memoised answers skip it)",
           "crowd-exec throughput_qps"),
    Metric("crowd.ask.self_us", "us", "lower",
           "SimulatedCrowd.ask time per call", "crowd-exec throughput_qps"),
    Metric("crowd.tasks_per_query", "count", "lower",
           "mean QueryResult.tasks_used over the first pass of each crowd "
           "seed; repeats exactly for a seed",
           "crowd-exec throughput_qps"),
    Metric("setup.import_s", "s", "lower",
           "import repro in a fresh interpreter", "setup_s; restart_ready_s"),
    Metric("setup.construct_s", "s", "lower",
           "NL2CM() in a fresh interpreter (0 for HTTP: the front end "
           "builds none)", "setup_s on the in-process workloads"),
    Metric("setup.shards_ready_s", "s", "lower",
           "ShardManager + HTTPFrontend until every shard said hello",
           "setup_s and restart_ready_s on the HTTP workloads"),
    Metric("setup.restart_ready_s", "s", "lower",
           "HTTP: SIGKILL a shard until it next answers correctly; in "
           "process: fresh interpreter until its first correct answer "
           "(median of 5)", "setup_s; recovery after a crash"),
    Metric("setup.restart_warm_hit_share", "share", "higher",
           "cache hits on a restarted shard's own questions right after "
           "it came back", "http-hot latency after a crash"),
    Metric("loadgen.late_p99_ms", "ms", "lower",
           "p99 delay the load generator added after a sender was free",
           "diagnostic only: high means the generator limited a rung"),
    Metric("trace.latency_p50_delta_ms", "ms", "lower",
           "tracing overhead: traced minus untraced latency_p50_ms",
           "nothing: it measures the benchmark"),
    Metric("trace.throughput_delta_pct", "%", "lower",
           "tracing overhead: untraced minus traced throughput, percent "
           "of untraced (closed loops)", "nothing: it measures the benchmark"),
    Metric("trace.tiling_error_us", "us", "lower",
           "largest gap between a root span and its tree's summed self "
           "times", "nothing: a check of the self-time arithmetic"),
)

