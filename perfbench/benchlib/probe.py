"""Cold start in a fresh interpreter, timed from outside and inside.

Run by the benchmark as ``python3 -m benchlib.probe MODE CACHE_SIZE``
with the program's ``src`` and the benchmark's directory on
``PYTHONPATH`` and one JSON request on stdin.  The
probe prints ``ready <json>`` as soon as it could serve, then, for the
in-process modes, ``answered <json>`` after its first answer.  The
parent times both lines from the moment it started the interpreter.

Modes: ``translate`` (``import repro`` + ``NL2CM()``), ``crowd`` (the
same, and the first answer also executes the query against the crowd)
and ``http`` (``import repro`` + ``ShardManager`` + ``HTTPFrontend``).
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    mode, cache_size = sys.argv[1], int(sys.argv[2])
    request = json.loads(sys.stdin.readline())
    import repro  # noqa: F401 - the import is what is being timed

    t_import = time.perf_counter()
    if mode == "http":
        from repro import HTTPFrontend, ShardManager
        from repro.serving.config import WorkerSpec

        manager = ShardManager(shards=2, spec=WorkerSpec(cache_size=cache_size),
                               start_method="spawn")
        frontend = HTTPFrontend(manager)
        t_ready = time.perf_counter()
        print("ready " + json.dumps({
            "import_s": t_import - T0, "construct_s": 0.0,
            "shards_ready_s": t_ready - t_import,
        }), flush=True)
        frontend.close()
        manager.close()
        return
    from repro import NL2CM

    nl2cm = NL2CM()
    t_ready = time.perf_counter()
    print("ready " + json.dumps({
        "import_s": t_import - T0, "construct_s": t_ready - t_import,
        "shards_ready_s": 0.0,
    }), flush=True)
    result = nl2cm.translate(request["question"])
    answer = {"query": result.query_text}
    if mode == "crowd":
        from repro import OassisEngine, SimulatedCrowd

        from benchlib.reference import crowd_digest, crowd_truth

        crowd = SimulatedCrowd(crowd_truth(), seed=request["crowd_seed"])
        engine = OassisEngine(nl2cm.ontology, crowd, planner=nl2cm.planner)
        answer["crowd"] = crowd_digest(engine.evaluate(result.query))
    print("answered " + json.dumps(answer), flush=True)


if __name__ == "__main__":
    main()
