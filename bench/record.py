"""Write bench/expected.json from the program at the current commit.

    python3 bench/record.py

Run from the root of a source checkout.  Refuses to record when a job's exit
code differs from the one its workload expects, when a catalog entry reports
a mismatch, or when a stored matrix-logic filter family is not certified.
Review the diff of expected.json before committing it: the stored answers are
what every later run is checked against.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from child import FG_PAIRS
from run import CLI_FORMAT, EXPECTED, MATRIX_COLD, RULES_COLD, Run


def main() -> int:
    root = Path.cwd()
    run = Run(0, 0, False, {}, root)
    jobs = {}
    for job in MATRIX_COLD + RULES_COLD:
        _, _, rc, out = run.spawn([sys.executable, "-m", "filtra.cli", *CLI_FORMAT, *job.argv])
        payload = json.loads(out)
        if rc != job.rc or (job.argv[0] == "reproduce" and payload.get("ok") is not True):
            raise SystemExit(f"{job.id}: exit {rc}, expected {job.rc}; not recorded")
        jobs[job.id] = payload
    _, _, payload = run.child("structure")
    structure = {name: output for name, _, _, output in payload["calls"]}

    sys.path.insert(0, str(root / "src"))
    from filtra import builtins as bi
    from filtra.logics import MatrixDetermined, all_filters, filters_certified

    families = {}
    for a, lg in FG_PAIRS:
        algebra, logic = bi.algebra(a), bi.logic(lg)
        if isinstance(logic, MatrixDetermined):
            if not filters_certified(algebra, logic):
                raise SystemExit(f"{a}/{lg}: filters not certified; not recorded")
            families[f"{a}/{lg}"] = [sorted(f.members) for f in all_filters(algebra, logic)]
    doc = {"jobs": jobs, "structure": structure, "fg-warm": families}
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
