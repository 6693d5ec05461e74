"""The ROADMAP baseline table, measured with the benchmark's own parts.

Run from the repository root::

    python3 perfbench/baseline.py

Prints one row per quantity of the ROADMAP's baseline table (import,
construction, steady translation, spawn readiness, cached answers in
process, over one frame and over HTTP) next to the ROADMAP's figure,
plus the two serving defects the benchmark keeps visible: the
keep-alive stall and the thread fan-out of ``translate_batch``.
"""

import http.client
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from benchlib import loadgen, workloads  # noqa: E402
from benchlib.reference import Reference  # noqa: E402


def _ms(values, p=50):
    return loadgen.percentile(values, p) * 1000


def _timed(fn, n):
    out = []
    for _ in range(n):
        start = time.perf_counter()
        fn()
        out.append(time.perf_counter() - start)
    return out


def main() -> None:
    from repro import NL2CM, ShardManager, TranslationService

    ref = Reference.load()
    run = workloads.Run("baseline", 0, 0.0, False, HERE.parent, ref)
    rows = []

    cold = [workloads.probe(run, "translate", {"question": ref.supported[0]})[2]
            for _ in range(5)]
    for key, name, roadmap in (("import_s", "import repro", "480-530 ms"),
                               ("construct_s", "NL2CM() construction",
                                "49 ms")):
        median = statistics.median(c[key] for c in cold)
        rows.append((name, f"{median * 1000:.0f} ms", roadmap))

    nl2cm = NL2CM()
    first = sum(_timed(lambda: [nl2cm.translate(q) for q in ref.supported], 1))
    steady = statistics.median(
        _timed(lambda: [nl2cm.translate(q) for q in ref.supported], 10))
    n = len(ref.supported)
    rows.append((f"steady translation, {n} corpus questions",
                 f"{steady / n * 1000:.2f} ms/q (first pass "
                 f"{first / n * 1000:.2f})",
                 "1.06 ms/q (first pass 1.21)"))

    service = TranslationService(nl2cm, cache=None)
    widths = {4: [], 1: []}
    for _ in range(10):
        for width in (4, 1):
            widths[width] += _timed(
                lambda: service.translate_batch(ref.questions, workers=width),
                3)
    rows.append((f"translate_batch of {len(ref.questions)}, 4 vs 1 thread",
                 f"{len(ref.questions) / statistics.median(widths[4]):.0f} vs "
                 f"{len(ref.questions) / statistics.median(widths[1]):.0f} q/s",
                 "54.4 vs 49.9 ms for a 196-question batch"))

    cached = TranslationService(nl2cm, cache=256)
    cached.translate(ref.supported[0])
    hits = _timed(lambda: cached.translate(ref.supported[0]), 2000)
    rows.append(("cached answer, in process",
                 f"{_ms(hits) * 1000:.1f} us p50", "10 us p50"))

    for shards in (1, 2):
        ready = []
        for _ in range(3):
            start = time.perf_counter()
            manager = ShardManager(shards=shards, start_method="spawn")
            ready.append(time.perf_counter() - start)
            manager.close()
        rows.append((f"spawn readiness, {shards} shard(s)",
                     f"{statistics.median(ready) * 1000:.0f} ms",
                     "755 ms" if shards == 1 else "1.13 s"))

    for shards in (1, 2):
        with ShardManager(shards=shards, start_method="spawn") as manager:
            for q in ref.supported:
                manager.submit(q)
            frame = [t for q in ref.supported * 20
                     for t in _timed(lambda: manager.submit(q), 1)]
            rows.append((f"cached answer, one frame, {shards} shard(s)",
                         f"{_ms(frame) * 1000:.0f} us p50, "
                         f"p99 {_ms(frame, 99):.2f} ms",
                         "190 us p50, p99 "
                         + ("0.42 ms" if shards == 1 else "4.7 ms")))
            if shards == 2:
                rows += _http_rows(manager, ref)

    print(f"== NL2CM baseline: cores={os.cpu_count()} "
          f"python={platform.python_version()}")
    width = max(len(r[0]) for r in rows)
    print(f"{'quantity':<{width}}  {'measured':<34}  ROADMAP")
    for name, ours, theirs in rows:
        print(f"{name:<{width}}  {ours:<34}  {theirs}")


def _http_rows(manager, ref):
    from repro import HTTPFrontend

    rows = []
    with HTTPFrontend(manager) as frontend:
        bodies = [json.dumps({"question": q}).encode() for q in ref.supported]
        headers = {"Content-Type": "application/json"}

        def fresh(body):
            conn = http.client.HTTPConnection(frontend.host, frontend.port)
            conn.request("POST", "/translate", body=body,
                         headers={**headers, "Connection": "close"})
            conn.getresponse().read()
            conn.close()

        new = [t for body in bodies * 4 for t in _timed(lambda: fresh(body), 1)]
        rows.append(("cached answer, HTTP, new connection each",
                     f"{_ms(new) * 1000:.0f} us p50", "870 us p50"))
        conn = http.client.HTTPConnection(frontend.host, frontend.port)

        def reuse(body):
            conn.request("POST", "/translate", body=body, headers=headers)
            conn.getresponse().read()

        kept = [t for body in bodies * 2 for t in _timed(lambda: reuse(body), 1)]
        conn.close()
        rows.append(("cached answer, HTTP, keep-alive back to back",
                     f"{_ms(kept):.1f} ms p50", "(not in ROADMAP; ~44 ms)"))
    return rows


if __name__ == "__main__":
    main()
