"""Show that the correctness gate catches a wrong stored answer.

    python3 bench/selftest.py

Run from the root of a source checkout.  For each workload one stored answer
in a copy of expected.json is changed, one short run is made against the
copy, and the run must report failures and correct=false.  Exits 1 if any
tampered answer goes unnoticed.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

from run import EXPECTED, WORKLOADS, run_workload


def _flip_verdict(expected):
    step = expected["jobs"]["kl-only-filter"]["reproduce"][0]["results"][0]
    step["got"] = [[2]]  # drops the carrier from the KL filters of K3


def _move_witness(expected):
    witness = expected["jobs"]["check-brouwer-M3"]["witness"]
    witness["filter_g"] = witness["filter_f"]


def _drop_congruence(expected):
    expected["structure"]["congruences-box5"].pop()


def _drop_filter(expected):
    expected["fg-warm"]["K3^2/KL"].remove([2, 5, 8])


TAMPER = {
    "matrix-cold": _flip_verdict,
    "rules-cold": _move_witness,
    "structure": _drop_congruence,
    "fg-warm": _drop_filter,
}


def main() -> int:
    expected = json.loads(EXPECTED.read_text())
    caught = True
    for workload in WORKLOADS:
        tampered = copy.deepcopy(expected)
        TAMPER[workload](tampered)
        result = run_workload(workload, 1, 1, False, tampered, Path.cwd())["result"]
        ok = result["failed"] > 0 and not result["correct"]
        caught = caught and ok
        print(f"{workload}: {TAMPER[workload].__name__} -> failed {result['failed']} of "
              f"{result['attempted']}: {'caught' if ok else 'NOT CAUGHT'}")
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
