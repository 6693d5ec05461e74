"""The NL2CM benchmark: one workload, one run, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload http-hot --seed 3 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` measures half the run untraced and half traced and
reports the per-layer metrics, the tracing overhead and the self-time
tiling check.  Every answer is compared with ``perfbench/reference``;
a mismatch makes ``correct`` false and the exit code 1.  Human-readable
lines come first; the last line of standard output is the JSON result.
See ``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("batch-distinct", "http-hot", "http-tail", "crowd-exec")

#: A run that is still going after this many seconds is stuck: it is
#: interrupted, its processes are stopped and it fails.
WATCHDOG_S = 170


def _expired(signum, frame):
    raise TimeoutError(f"the run took longer than {WATCHDOG_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {src / 'repro'} is "
              f"missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    signal.signal(signal.SIGALRM, _expired)
    signal.alarm(WATCHDOG_S)

    from benchlib import metrics, workloads
    from benchlib.reference import Reference
    from repro.data.corpus import CORPUS

    reference = Reference.load()
    run = workloads.Run(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        traced=bool(args.trace), root=ROOT, reference=reference,
    )
    try:
        compared = reference.check_gold(CORPUS)
    except ValueError as err:
        run.fail(f"reference disagrees with the corpus: {err}")
    else:
        run.note(f"reference: {len(reference.supported)} queries, "
                 f"{compared} equal to corpus gold; "
                 f"{len(reference.unsupported)} rejections")
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        stop_resource_tracker()

    wanted = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    result = {}
    print(f"== perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"cores={os.cpu_count()} python={platform.python_version()}")
    for metric in wanted:
        value = run.metrics.get(metric.name, 0.0)
        result[metric.name] = {"value": value, "unit": metric.unit}
        samples = run.samples.get(metric.name)
        line = (f"{metric.name:<30} {value:>14.6f} {metric.unit:<6}"
                f"{f' n={samples}' if samples else ''}")
        if args.trace:
            line += f"  -> {metric.moves}"
        print(line)
    for note in run.notes:
        print(f"# {note}")
    correct = run.checks_ok and run.tally.failed == 0
    print(f"# ops attempted {run.tally.attempted}, failed "
          f"{run.tally.failed}; outputs {'match' if correct else 'DIFFER'}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": result,
    }))
    return 0 if correct else 1


def stop_resource_tracker() -> None:
    """Wait for the helper process ``multiprocessing`` starts beside
    spawned workers, so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
