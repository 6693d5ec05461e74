"""Seeded request sequences, the percentile rule and the two load loops.

Everything that decides *which* question is sent *when* lives here, so
the program under test only ever sees the generated inputs.  Seeds are
strings hashed by :class:`random.Random` (SHA-512 for ``str`` seeds),
so a sequence is identical across interpreters and ``PYTHONHASHSEED``
values.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

#: The interactive-UI latency limit a rung's p99 must meet.
LATENCY_LIMIT_MS = 100.0

#: How much the mean queueing delay may rise from a rung's first quarter
#: to its last before the rung counts as building a backlog.
BACKLOG_GROWTH_MS = 10.0

#: On a shared VM the same Python code runs at two speeds about 1.6x
#: apart, switching every few seconds; figures over a whole run report
#: how long the slow spells lasted, the quickest units of identical work
#: report the program.  A closed loop of batches takes its figures from
#: the quickest twentieth of its batches, an open-loop rung its latency
#: from the quickest quarter of its 1 s units (a rung has 12 of them).
#: A loop whose single ops repeat uses :func:`repeat_figures` instead.
CLOSED_FAST_SHARE = 0.05
OPEN_FAST_SHARE = 0.25


def seeded_order(items: Sequence, seed: int, salt: str) -> list:
    """``items`` shuffled by a generator keyed on ``salt`` and ``seed``."""
    out = list(items)
    random.Random(f"{salt}:{seed}").shuffle(out)
    return out


def zipf_sequence(items: Sequence, n: int, seed: int,
                  exponent: float = 1.1) -> list:
    """``n`` Zipf draws: the seed picks which item gets which rank."""
    ranked = seeded_order(items, seed, "zipf-rank")
    weights = [1.0 / rank ** exponent for rank in range(1, len(ranked) + 1)]
    return random.Random(f"zipf-draw:{seed}").choices(
        ranked, weights=weights, k=n
    )


def scan_sequence(items: Sequence, n: int, seed: int) -> list:
    """A seeded permutation of ``items`` repeated cyclically.

    Every key recurs only after all the others, so an LRU holding fewer
    keys than it is sent never hits.
    """
    order = seeded_order(items, seed, "scan")
    return [order[i % len(order)] for i in range(n)]


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``p`` percent of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(round(p / 100.0 * len(ordered), 9)))
    return ordered[rank - 1]


def supports_percentile(n: int, p: float) -> bool:
    """True when a sample of ``n`` leaves at least ten values beyond the
    ``p``-th percentile, the least a tail estimate may rest on."""
    return round(n * (100.0 - p) / 100.0, 9) >= 10


@dataclass
class Op:
    """One request: when it was due, sent and answered, and its check.

    In a closed loop ``due == start``.  ``queued`` is the wait the
    program imposed (the previous request on the same sender had not
    finished when this one fell due); ``late`` is the delay the load
    generator itself added after the sender was free.
    """

    due: float
    start: float
    end: float
    ok: bool
    queued: float = 0.0
    late: float = 0.0
    #: questions the op answered (a batch answers many)
    weight: int = 1
    #: ops with equal keys do identical work (see :func:`repeat_figures`)
    key: Hashable = None

    @property
    def latency(self) -> float:
        """Seconds from due to answered; a failed op never meets a limit."""
        return self.end - self.due if self.ok else math.inf


def open_loop(senders: Sequence[Callable[[str], bool]],
              questions: Sequence[str], rate: float,
              duration: float) -> list[Op]:
    """Send ``questions`` on a fixed schedule of ``rate`` per second.

    Request ``k`` falls due ``k / rate`` seconds after the start and goes
    to sender ``k % len(senders)``; each sender has one request in
    flight at most (one connection, no pipelining), so a slow answer
    delays that sender's later requests, and the delay is timed from
    when each one fell due.
    """
    n = max(1, round(rate * duration))
    width = len(senders)
    ops: list[Op | None] = [None] * n
    t0 = time.perf_counter() + 0.005

    def run(j: int) -> None:
        send = senders[j]
        prev_end = t0
        for k in range(j, n, width):
            due = t0 + k / rate
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            start = time.perf_counter()
            ok = send(questions[k % len(questions)])
            end = time.perf_counter()
            ops[k] = Op(due, start, end, ok,
                        queued=max(0.0, prev_end - due),
                        late=max(0.0, start - max(due, prev_end)))
            prev_end = end

    _run_threads(run, width)
    return [op for op in ops if op is not None]


def closed_loop(senders: Sequence[Callable[[str], bool]],
                questions: Sequence[str], duration: float,
                offset: int = 0) -> tuple[list[Op], int]:
    """Each sender sends its next question as soon as the last answer
    arrives, until ``duration`` has passed.  Questions are taken from
    the shared sequence in order, starting at ``offset``; returns the
    ops and the next unused offset."""
    lock = threading.Lock()
    cursor = [offset]
    per_sender: list[list[Op]] = [[] for _ in senders]
    stop = time.perf_counter() + duration

    def run(j: int) -> None:
        send, out = senders[j], per_sender[j]
        while time.perf_counter() < stop:
            with lock:
                k = cursor[0]
                cursor[0] += 1
            start = time.perf_counter()
            ok = send(questions[k % len(questions)])
            out.append(Op(start, start, time.perf_counter(), ok))

    _run_threads(run, len(senders))
    return [op for ops in per_sender for op in ops], cursor[0]


def rung_passes(ops: Sequence[Op]) -> bool:
    """A rung holds when every request succeeded, p99 latency meets
    :data:`LATENCY_LIMIT_MS` and queueing does not grow over the rung."""
    if not ops or not all(op.ok for op in ops):
        return False
    if percentile([op.latency for op in ops], 99) * 1000 > LATENCY_LIMIT_MS:
        return False
    quarter = max(1, len(ops) // 4)
    first = sum(op.queued for op in ops[:quarter]) / quarter
    last = sum(op.queued for op in ops[-quarter:]) / quarter
    return (last - first) * 1000 <= BACKLOG_GROWTH_MS


def achieved_rate(ops: Sequence[Op]) -> float:
    """Successful answers per second over a phase, first due to last
    answer."""
    done = sum(1 for op in ops if op.ok)
    span = max(op.end for op in ops) - min(op.due for op in ops)
    return done / span if span > 0 else 0.0


def unit_seconds(unit: Sequence[Op]) -> float:
    return max(op.end for op in unit) - min(op.start for op in unit)


def fast_units(units: Sequence[Sequence[Op]], share: float,
               key: Callable = unit_seconds) -> list[Sequence[Op]]:
    """The ``share`` of ``units`` that took least time."""
    ranked = sorted(units, key=key)
    return ranked[:max(1, math.ceil(len(ranked) * share))]


def open_loop_p50(ops: Sequence[Op], per_unit: int) -> float:
    """An open-loop rung's median latency over the quickest quarter of
    its units of ``per_unit`` consecutive requests (the same guard
    against slow spells as :func:`closed_figures`)."""
    units = [ops[i:i + per_unit] for i in range(0, len(ops), per_unit)]
    fast = fast_units(
        units, OPEN_FAST_SHARE,
        key=lambda unit: percentile([op.latency for op in unit], 50))
    return percentile([op.latency for unit in fast for op in unit], 50)


def closed_figures(units: Sequence[Sequence[Op]]) -> tuple[float, float]:
    """Questions per second and median op latency over the quickest
    :data:`CLOSED_FAST_SHARE` of a closed loop's units of identical
    work."""
    fast = fast_units(units, CLOSED_FAST_SHARE)
    ops = [op for unit in fast for op in unit]
    rate = (sum(op.weight for op in ops if op.ok)
            / sum(unit_seconds(unit) for unit in fast))
    return rate, percentile([op.latency for op in ops], 50)


def repeat_figures(ops: Sequence[Op]) -> tuple[float, float]:
    """Questions per second and median latency over the quickest run of
    each op that a closed loop repeats.

    Ops with equal keys do identical work, so the quickest of them is the
    one the machine slowed least.  A slow spell of the shared host then
    has to cover every repeat of an op to show, where it shows in every
    unit it overlaps when whole units are timed.  An op whose every
    repeat failed answers nothing and its time still counts.
    """
    best: dict = {}
    spent: dict = {}
    for op in ops:
        seconds = op.end - op.start
        if op.ok:
            best[op.key] = min(best.get(op.key, math.inf), seconds)
        else:
            spent[op.key] = min(spent.get(op.key, math.inf), seconds)
    times = list(best.values())
    lost = [t for key, t in spent.items() if key not in best]
    return (len(times) / (sum(times) + sum(lost)),
            percentile(times + [math.inf] * len(lost), 50))


def _run_threads(target: Callable[[int], None], width: int) -> None:
    errors: list[BaseException] = []

    def guarded(j: int) -> None:
        try:
            target(j)
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(j,), daemon=True)
               for j in range(width)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
