"""filtra's benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; filtra is imported from ./src.  One
process drives a closed loop, one job at a time.  Workloads:

  matrix-cold  `filtra reproduce` of the three matrix-logic catalog entries,
               each in a fresh interpreter
  rules-cold   the six rule-logic catalog entries and five README commands,
               each in a fresh interpreter
  structure    one fresh interpreter per pass calling Leibniz, congruence
               lattice, relative congruence and minrelcong library functions
  fg-warm      one interpreter warms seven (algebra, logic) pairs, then runs a
               seeded stream of fg / is_filter queries

Every output is checked: CLI payloads, exit codes and library results against
bench/expected.json, the catalog's own "ok", and fg-warm answers against a
closure oracle (rule logics) or stored filter families (matrix logics).

With --trace 0 the last line of standard output carries the end-to-end
metrics; with --trace 1 one pass runs under bench/tracer.py and the last line
carries per-layer metrics.  The line before it records the run: git
revision, Python version, nproc, seed, sample counts, tracing overhead and the
first failures.  See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from child import calibrate

clock = time.perf_counter
HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
SETUP_INTERVAL = 1 / 12  # share of the run between two set-up probes of a cold workload
FG_PROCESS_SHARE = 1 / 10  # share of the run one fg-warm process spends on queries
JOB_TIMEOUT = 60.0  # seconds; a job that takes longer counts as failed
HARD_LIMIT = 170.0  # seconds; no job starts or keeps running after this
# Time of child.calibrate() at the reference host speed.  The host is shared
# and its speed swings by half in phases of seconds to minutes, so every
# timing is scaled by REFERENCE_S over a calibration taken right around it.
REFERENCE_S = 0.008


CLI_FORMAT = ("--format", "json")


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    rc: int  # expected exit code


MATRIX_COLD = (
    Job("kleene-edcf", ("reproduce", "kleene-edcf"), 0),
    Job("lp-edcf", ("reproduce", "lp-edcf"), 0),
    Job("kl-only-filter", ("reproduce", "kl-only-filter"), 0),
)

RULES_COLD = (
    Job("pwk-local-edcf", ("reproduce", "pwk-local-edcf"), 0),
    Job("pwk-no-pedcf", ("reproduce", "pwk-no-pedcf"), 0),
    Job("box5-no-min", ("reproduce", "box5-no-min"), 0),
    Job("m3-not-brouwerian", ("reproduce", "m3-not-brouwerian"), 0),
    Job("modal-local-only", ("reproduce", "modal-local-only"), 0),
    Job("luk-local-only", ("reproduce", "luk-local-only"), 0),
    Job("check-fdc-PWK-WK3", ("check", "fdc", "--logic", "PWK", "--generators", "WK3", "--arity", "2"), 1),
    Job("check-minrelcong-box5", ("check", "minrelcong", "--algebra", "box5", "--class", "alpha12",
                                  "--logic", "ONE"), 1),
    Job("check-brouwer-M3", ("check", "brouwer", "--logic", "ORD", "--algebra", "M3"), 1),
    Job("fg-WK3-PWK-empty", ("fg", "--algebra", "WK3", "--logic", "PWK", "--gen", ""), 0),
    Job("fg-L4-LUK-2/3", ("fg", "--algebra", "L4", "--logic", "LUK", "--gen", "2/3"), 0),
)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 100)
    return ordered[max(0, min(len(ordered), int(rank)) - 1)]


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, message) -> None:
        """Count one operation; message may be a callable, built only on failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(message() if callable(message) else message)

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.errors.extend(other["errors"][: max(0, 10 - len(self.errors))])


class Layers:
    """Sums of the tracer reports of every traced process of a pass."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.layers: dict[str, float] = {}
        self.counts = {"cold_s": 0.0, "pairs": 0, "certified_pairs": 0, "fg_calls": 0, "fg_repeats": 0}
        self.startup_s = 0.0
        self.budget_steps = 0

    def add(self, payload: dict, spawned: float) -> None:
        self.startup_s += payload["imported"] - spawned
        self.budget_steps += payload["budget_steps"]
        report = payload["trace"]
        for name, (calls, self_s) in report["spans"].items():
            acc = self.spans.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for layer, self_s in report["layers"].items():
            self.layers[layer] = self.layers.get(layer, 0.0) + self_s
        for key in self.counts:
            self.counts[key] += report[key]

    def metrics(self) -> dict:
        def calls(span):
            return self.spans.get(span, [0, 0.0])[0]

        def self_s(span):
            return self.spans.get(span, [0, 0.0])[1]

        c = self.counts
        out = {
            "cli.startup_s": self.startup_s,
            "builtins.load_s": self.layers.get("builtins", 0.0),
        }
        for layer in ("terms", "algebras", "logics", "congruences", "classes", "checks"):
            out[f"{layer}.self_s"] = self.layers.get(layer, 0.0)
        out.update({
            "algebras.eval.calls": calls("algebras.eval"),
            "algebras.eval.self_s": self_s("algebras.eval"),
            "algebras.direct_product.self_s": self_s("algebras.direct_product"),
            "algebras.enumerate_subuniverses.self_s": self_s("algebras.enumerate_subuniverses"),
            "algebras.enumerate_homomorphisms.calls": calls("algebras.enumerate_homomorphisms"),
            "algebras.enumerate_homomorphisms.self_s": self_s("algebras.enumerate_homomorphisms"),
            "algebras.quotient.self_s": self_s("algebras.quotient"),
            "logics.cold_s": c["cold_s"],
            "logics.cold.pairs": c["pairs"],
            # with no pair seen there is nothing uncertified
            "logics.certified_ratio": c["certified_pairs"] / c["pairs"] if c["pairs"] else 1.0,
            "logics.fg.calls": calls("logics.fg"),
            "logics.fg.self_s": self_s("logics.fg"),
            "logics.fg.repeat_ratio": c["fg_repeats"] / c["fg_calls"] if c["fg_calls"] else 0.0,
            "logics.is_filter.calls": calls("logics.is_filter"),
            "logics.is_filter.self_s": self_s("logics.is_filter"),
            "logics.all_filters.self_s": self_s("logics.all_filters"),
            "congruences.leibniz_congruence.calls": calls("congruences.leibniz_congruence"),
            "congruences.leibniz_congruence.self_s": self_s("congruences.leibniz_congruence"),
            "congruences.all_congruences.calls": calls("congruences.all_congruences"),
            "congruences.all_congruences.self_s": self_s("congruences.all_congruences"),
            "congruences.cg_generated.calls": calls("congruences.cg_generated"),
            "congruences.cg_generated.self_s": self_s("congruences.cg_generated"),
            "classes.member.self_s": self_s("classes.member"),
            "classes.k_congruences.self_s": self_s("classes.k_congruences"),
            "checks.generate_testbed.self_s": self_s("checks.generate_testbed"),
            "checks.budget_steps": self.budget_steps,
        })
        return out


class Run:
    """State of one benchmark run: deadlines, samples and the correctness tally."""

    def __init__(self, seed: int, seconds: int, trace: bool, expected: dict, root: Path):
        self.seed, self.seconds, self.trace, self.expected = seed, seconds, trace, expected
        self.root = root
        self.start = clock()
        self.deadline = self.start + seconds
        self.hard_deadline = self.start + HARD_LIMIT
        # a fixed hash seed fixes set iteration order, so traced counts repeat exactly
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.tally = Tally()
        self.setups: list[float] = []  # seconds until the first timed operation can start
        self.passes: list[float] = []  # untraced pass times
        self.samples = 0  # samples behind each pass time: of each operation, or of blocks
        self.per_query: list[float] = []  # pass time over its queries, of each pass
        self.calibrations: list[float] = []
        self.p50s: list[float] = []
        self.p99s: list[float] = []
        self.layers = Layers()
        self.traced_pass_s: float | None = None

    # -- processes --------------------------------------------------------

    def spawn(self, argv: list[str], stdin: str | None = None):
        """Run one process to completion: (start clock, wall seconds, exit code, stdout).

        The exit code is None when the process was killed for running too long.
        """
        timeout = max(0.0, min(JOB_TIMEOUT, self.hard_deadline - clock()))
        t0 = clock()
        try:
            proc = subprocess.run(
                argv, cwd=self.root, env=self.env, input=stdin, capture_output=True,
                text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return t0, clock() - t0, None, ""
        return t0, clock() - t0, proc.returncode, proc.stdout

    def child(self, *args: str, stdin: str | None = None):
        """Run bench/child.py: (start clock, wall seconds, last JSON line or None)."""
        t0, wall, rc, out = self.spawn([sys.executable, str(HERE / "child.py"), *args], stdin)
        if rc != 0 or not out.strip():
            return t0, wall, None
        return t0, wall, json.loads(out.strip().splitlines()[-1])

    def fits(self, walls: list[float]) -> bool:
        """A first run of something always starts; a further one only if it fits before the deadline."""
        if not walls:
            return clock() < self.hard_deadline
        return clock() + statistics.median(walls) <= min(self.deadline, self.hard_deadline)

    def scaled(self, seconds: float, calibration: float) -> float:
        """A time measured at the host speed of calibration, in reference seconds."""
        self.calibrations.append(calibration)
        return seconds * REFERENCE_S / calibration

    def add_setup(self, payload: dict, t0: float) -> None:
        self.setups.append(self.scaled(payload["ready"] - t0, payload["ready_calibration"]))

    def setup_probe(self) -> None:
        t0, _, payload = self.child("setup")
        if payload is not None:
            self.add_setup(payload, t0)

    def record_operations(self, latencies: dict[str, list[float]]) -> None:
        """One pass built from the median latency of each operation over the run."""
        medians = [statistics.median(v) for v in latencies.values() if v]
        if len(medians) < len(latencies):
            return
        self.samples = min(len(v) for v in latencies.values())
        self.passes.append(sum(medians))
        self.per_query.append(sum(medians) / len(medians))
        self.p50s.append(percentile(medians, 50))
        self.p99s.append(percentile(medians, 99))

    # -- results ----------------------------------------------------------

    def end_to_end(self) -> dict:
        if not (self.passes and self.setups):
            return {}
        return {
            "setup_s": (statistics.median(self.setups), "s"),
            "pass_s": (statistics.median(self.passes), "s"),
            "queries_per_s": (1 / statistics.median(self.per_query), "1/s"),
            "query_us.p50": (statistics.median(self.p50s) * 1e6, "us"),
            "query_us.p99": (statistics.median(self.p99s) * 1e6, "us"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self) -> dict:
        if self.traced_pass_s is None or not self.passes:
            return {}
        out = {}
        for name, value in self.layers.metrics().items():
            unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"
            out[name] = (value, unit)
        out["trace.overhead_s"] = (self.traced_pass_s - statistics.median(self.passes), "s")
        return out


# ---------------------------------------------------------------------------
# workloads


def check_cli(run: Run, job: Job, rc, stdout: str) -> None:
    if rc is None:
        run.tally.check(False, f"{job.id}: timed out")
        return
    try:
        payload = json.loads(stdout)
    except ValueError:
        run.tally.check(False, f"{job.id}: exit {rc}, output is not JSON")
        return
    want = run.expected["jobs"][job.id]
    if rc != job.rc:
        run.tally.check(False, f"{job.id}: exit {rc}, expected {job.rc}")
    elif job.argv[0] == "reproduce" and payload.get("ok") is not True:
        run.tally.check(False, f"{job.id}: catalog reports a mismatch")
    else:
        run.tally.check(payload == want, f"{job.id}: output differs from expected.json")


def cold_workload(jobs):
    """Jobs in turn, each in a fresh interpreter, while the next one fits.

    Set-up probes run between jobs, one at most every SETUP_INTERVAL of the
    run, so that set-up time is sampled across the whole run.
    """

    def workload(run: Run) -> None:
        if run.trace:
            traced = 0.0
            for job in jobs:
                before = calibrate()
                t0, wall, payload = run.child("cli", "--", *CLI_FORMAT, *job.argv)
                traced += run.scaled(wall, (before + calibrate()) / 2)
                if payload is None:
                    run.tally.check(False, f"{job.id}: traced process failed")
                    continue
                run.layers.add(payload, t0)
                check_cli(run, job, payload["rc"], payload["stdout"])
            run.traced_pass_s = traced
        walls: dict[str, list[float]] = {job.id: [] for job in jobs}
        latencies: dict[str, list[float]] = {job.id: [] for job in jobs}
        last_probe = -math.inf
        for job in itertools.cycle(jobs):
            if not run.fits(walls[job.id]):
                break
            if not run.trace and clock() - last_probe >= SETUP_INTERVAL * run.seconds:
                run.setup_probe()
                last_probe = clock()
            before = calibrate()
            _, wall, rc, out = run.spawn([sys.executable, "-m", "filtra.cli", *CLI_FORMAT, *job.argv])
            walls[job.id].append(wall)
            latencies[job.id].append(run.scaled(wall, (before + calibrate()) / 2))
            check_cli(run, job, rc, out)
        run.record_operations(latencies)

    return workload


def structure(run: Run) -> None:
    want = run.expected["structure"]
    latencies: dict[str, list[float]] = {name: [] for name in want}

    def one_pass(traced: bool) -> float:
        t0, wall, payload = run.child("structure", *(["--trace"] if traced else []))
        if payload is None:
            for name in want:
                run.tally.check(False, f"{name}: structure process failed")
            return wall
        pass_s = 0.0
        for name, dt, calibration, output in payload["calls"]:
            run.tally.check(output == want[name], f"{name}: result differs from expected.json")
            dt = run.scaled(dt, calibration)
            pass_s += dt
            if not traced:
                latencies[name].append(dt)
        if traced:
            run.layers.add(payload, t0)
            run.traced_pass_s = pass_s
        else:
            run.add_setup(payload, t0)
        return wall

    if run.trace:
        one_pass(True)
    walls: list[float] = []
    while run.fits(walls):
        walls.append(one_pass(False))
    run.record_operations(latencies)


def fg_warm(run: Run) -> None:
    """Processes of FG_PROCESS_SHARE of the run each, every one warming up anew.

    Each process draws its own part of the stream from the seed and reports
    one entry per block of queries.
    """
    stored = json.dumps(run.expected["fg-warm"])
    seconds = repr(FG_PROCESS_SHARE * run.seconds)
    walls: list[float] = []
    part = 0
    if run.trace:
        t0, wall, payload = run.child("fg-warm", "--seed", str(run.seed), "--part", "0",
                                      "--seconds", "0", "--blocks", "1", "--trace", stdin=stored)
        if payload is None:
            run.tally.check(False, "fg-warm: traced process failed")
            return
        run.tally.merge(payload)
        run.layers.add(payload, t0)
        busy, _, _, _, calibration = payload["blocks"][0]
        run.traced_pass_s = run.scaled(busy, calibration)
    while run.fits(walls):
        t0, wall, payload = run.child("fg-warm", "--seed", str(run.seed), "--part", str(part),
                                      "--seconds", seconds, stdin=stored)
        walls.append(wall)
        part += 1
        if payload is None:
            run.tally.check(False, "fg-warm: process failed")
            continue
        run.tally.merge(payload)
        run.add_setup(payload, t0)
        for busy, p50, p99, n, calibration in payload["blocks"]:
            scale = run.scaled(1.0, calibration)
            run.passes.append(busy * scale)
            run.per_query.append(busy * scale / n)
            run.p50s.append(p50 * scale)
            run.p99s.append(p99 * scale)
        run.samples = len(run.passes)


WORKLOADS = {
    "matrix-cold": cold_workload(MATRIX_COLD),
    "rules-cold": cold_workload(RULES_COLD),
    "structure": structure,
    "fg-warm": fg_warm,
}


# ---------------------------------------------------------------------------


def git_revision(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: int, trace: bool, expected: dict, root: Path) -> dict:
    """Run one workload; returns the record line and the result line."""
    run = Run(seed, seconds, trace, expected, root)
    try:
        WORKLOADS[workload](run)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        # a malformed child payload means the program misbehaved
        run.tally.check(False, f"{workload}: {exc!r}")
    metrics = run.per_layer() if trace else run.end_to_end()
    tally = run.tally
    if not metrics:
        tally.check(False, f"{workload}: no complete pass")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_revision": git_revision(root), "python": platform.python_version(),
        "nproc": os.cpu_count(), "samples": run.samples, "setups": len(run.setups),
        "fail_ratio": tally.failed / tally.attempted, "errors": tally.errors,
        "reference_s": REFERENCE_S,
        "calibration_s": statistics.median(run.calibrations) if run.calibrations else None,
        "wall_s": clock() - run.start,
    }
    if trace and run.traced_pass_s is not None and run.passes:
        record["traced_pass_s"] = run.traced_pass_s
        record["untraced_pass_s"] = statistics.median(run.passes)
    return {"record": record, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "filtra" / "__init__.py").is_file():
        print("bench: run from the root of a filtra checkout (no src/filtra here)", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), expected, root)
    print(json.dumps(out["record"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
