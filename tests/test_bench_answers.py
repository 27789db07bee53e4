"""The benchmark's stored answers, replayed in-process.

Every CLI job of the cold workloads, every library call of a structure pass
and the stored matrix families of the fg-warm stream are checked against
bench/expected.json, so that an output the benchmark would report as
incorrect fails here first.  Only reads bench/.
"""

import json
import sys
from pathlib import Path

import pytest

from filtra import builtins as bi
from filtra.algebras import Budget
from filtra.cli import main
from filtra.logics import all_filters

BENCH = Path(__file__).resolve().parent.parent / "bench"
EXPECTED = json.loads((BENCH / "expected.json").read_text())

sys.path.insert(0, str(BENCH))
try:
    import child as bench_child
    import run as bench_run
finally:
    sys.path.remove(str(BENCH))


@pytest.mark.parametrize("job", bench_run.MATRIX_COLD + bench_run.RULES_COLD, ids=lambda job: job.id)
def test_a_cold_job_prints_its_stored_payload_and_exit_code(capsys, cold_contexts, job):
    code = main([*bench_run.CLI_FORMAT, *job.argv])
    payload = json.loads(capsys.readouterr().out)
    assert payload == EXPECTED["jobs"][job.id]
    assert code == job.rc
    if job.argv[0] == "reproduce":
        assert payload["ok"] is True


def test_the_structure_calls_give_their_stored_results(cold_contexts):
    calls = bench_child.structure_calls(bi, Budget)
    assert sorted(name for name, _, _ in calls) == sorted(EXPECTED["structure"])
    for name, thunk, encode in calls:
        assert encode(thunk()) == EXPECTED["structure"][name], name


def test_the_stored_fg_warm_families_are_the_filters(cold_contexts):
    assert EXPECTED["fg-warm"]
    for key, family in EXPECTED["fg-warm"].items():
        pair = tuple(key.split("/"))
        assert pair in bench_child.FG_PAIRS
        algebra, logic = bi.algebra(pair[0], Budget()), bi.logic(pair[1])
        assert [sorted(f.members) for f in all_filters(algebra, logic)] == family, key
