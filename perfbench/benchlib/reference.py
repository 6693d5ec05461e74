"""Expected outputs and the checks every answer goes through.

``reference/translations.json`` maps each of the 57 demo-corpus
questions to the OASSIS-QL bytes it must translate to, or to the
rejection it must get (``VerificationError``; HTTP 422).  The file is
written by ``make_reference.py`` and checked in, so a change that alters
a translation fails the benchmark instead of silently timing different
work.  ``reference/crowd.json`` holds the crowd-execution snapshot for
the default seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "reference"
TRANSLATIONS = REFERENCE_DIR / "translations.json"
CROWD = REFERENCE_DIR / "crowd.json"

#: The seed whose crowd-execution results are snapshotted.
DEFAULT_SEED = 0

#: The error type and HTTP status an unsupported question must get.
REJECT_TYPE = "VerificationError"
REJECT_STATUS = 422


class Reference:
    """The expected answer for every corpus question."""

    def __init__(self, entries: dict[str, dict]):
        self.entries = entries
        self.questions = list(entries)
        self.supported = [q for q, e in entries.items() if "query" in e]
        self.unsupported = [q for q, e in entries.items() if "query" not in e]

    @classmethod
    def load(cls, path: Path = TRANSLATIONS) -> "Reference":
        return cls(json.loads(path.read_text(encoding="utf-8")))

    def check_gold(self, corpus) -> int:
        """Check the reference against the corpus gold queries; returns
        how many gold queries were compared.  Raises on a mismatch."""
        compared = 0
        for question in corpus:
            entry = self.entries.get(question.text)
            if entry is None:
                raise ValueError(f"no reference for {question.text!r}")
            if question.supported != ("query" in entry):
                raise ValueError(f"support flag differs: {question.text!r}")
            if question.gold_query is not None:
                if entry["query"] != question.gold_query:
                    raise ValueError(f"gold differs: {question.text!r}")
                compared += 1
        return compared

    def check_item(self, text: str, query: str | None,
                   error_type: str | None) -> bool:
        """An in-process answer: the query text, or the error's type."""
        entry = self.entries[text]
        if "query" in entry:
            return error_type is None and query == entry["query"]
        return query is None and error_type == REJECT_TYPE

    def check_http(self, text: str, status: int, body: bytes) -> bool:
        """A ``POST /translate`` answer: status and JSON body."""
        entry = self.entries[text]
        try:
            payload = json.loads(body)
        except ValueError:
            return False
        if "query" in entry:
            return (status == 200 and payload.get("ok") is True
                    and payload.get("query") == entry["query"])
        error = payload.get("error") or {}
        return status == REJECT_STATUS and error.get("type") == REJECT_TYPE


def crowd_digest(result) -> dict:
    """A compact, order-sensitive fingerprint of one query evaluation."""
    rows = [
        "|".join(f"{var}={term}" for var, term in sorted(binding.items()))
        for binding in result.bindings()
    ]
    blob = "\n".join(rows).encode("utf-8")
    return {
        "tasks": result.tasks_used,
        "bindings": len(rows),
        "sha256": hashlib.sha256(blob).hexdigest()[:16],
    }


#: Crowd seeds per run: passes cycle through this many, so a run's work
#: averages over several crowds instead of resting on one.
CROWD_SEEDS = 8


def crowd_seeds(seed: int) -> list[int]:
    """The crowd seeds a run with workload seed ``seed`` cycles through."""
    rng = random.Random(f"crowd:{seed}")
    return [rng.randrange(2 ** 31) for _ in range(CROWD_SEEDS)]


def crowd_truth():
    """The union of the three demo scenarios' ground truths.

    The scenarios disagree only on the default support of unlisted
    fact-sets; the union keeps the travel scenario's.
    """
    from repro.crowd.model import GroundTruth
    from repro.crowd.scenarios import (
        buffalo_travel_truth, dietician_truth, vegas_rides_truth,
    )

    travel = buffalo_travel_truth()
    truth = GroundTruth(supports=dict(travel.supports), default=travel.default)
    for other in (vegas_rides_truth(), dietician_truth()):
        truth.supports.update(other.supports)
    return truth
