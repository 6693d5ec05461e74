"""Regenerate the benchmark's reference outputs from the current program.

Run from the repository root::

    python3 perfbench/make_reference.py

Writes ``perfbench/reference/translations.json`` (the OASSIS-QL bytes of
every supported corpus question, the rejection of every unsupported
one) and ``perfbench/reference/crowd.json`` (the crowd-execution digests
for the default seed).  Only regenerate when a change is meant to alter
outputs, and say so in that change.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from benchlib import loadgen  # noqa: E402
from benchlib.reference import (  # noqa: E402
    CROWD, DEFAULT_SEED, REJECT_TYPE, TRANSLATIONS, Reference, crowd_digest,
    crowd_seeds, crowd_truth,
)


def main() -> None:
    from repro import NL2CM, OassisEngine, SimulatedCrowd
    from repro.data.corpus import CORPUS
    from repro.errors import VerificationError

    nl2cm = NL2CM()
    entries = {}
    for question in CORPUS:
        try:
            entries[question.text] = {
                "query": nl2cm.translate(question.text).query_text
            }
        except VerificationError:
            entries[question.text] = {"error": REJECT_TYPE}
    reference = Reference(entries)
    compared = reference.check_gold(CORPUS)
    TRANSLATIONS.write_text(json.dumps(entries, indent=1) + "\n",
                            encoding="utf-8")

    truth = crowd_truth()
    order = loadgen.seeded_order(reference.supported, DEFAULT_SEED, "crowd")
    snapshot = {}
    for index, seed in enumerate(crowd_seeds(DEFAULT_SEED)):
        engine = OassisEngine(nl2cm.ontology, SimulatedCrowd(truth, seed=seed),
                              planner=nl2cm.planner)
        snapshot[str(index)] = {
            text: crowd_digest(engine.evaluate(nl2cm.translate(text).query))
            for text in order
        }
    CROWD.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    print(f"{len(reference.supported)} queries ({compared} equal to gold), "
          f"{len(reference.unsupported)} rejections, "
          f"{len(snapshot)} crowd passes")


if __name__ == "__main__":
    main()
