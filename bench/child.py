"""Process side of the benchmark: one fresh interpreter per invocation.

    python3 bench/child.py setup
    python3 bench/child.py cli -- <filtra arguments>        (always traced)
    python3 bench/child.py structure [--trace]
    python3 bench/child.py fg-warm --seed N --part P --seconds S [--blocks K] [--trace]

run.py starts these with PYTHONPATH pointing at the checkout's src/.  Each
prints one JSON object as its last line of standard output.  "imported" is
the clock reading (time.perf_counter, system-wide CLOCK_MONOTONIC on Linux)
once filtra.cli is imported and "ready" the reading once the first timed
operation can start, so the parent can subtract its own reading taken before
starting the process.  "ready_calibration" and the calibration given with each
timed call or block are times of calibrate(), by which the parent scales the
timings to the reference host speed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import random
import sys
import time

clock = time.perf_counter

# (algebra, logic) pairs of the fg-warm stream, warmed during set-up
FG_PAIRS = (
    ("K3^2", "KL"), ("K3^2", "LP"), ("WK3^2", "PWK"), ("mchain4", "KG"),
    ("L5", "LUK"), ("box5", "ONE"), ("M3", "ORD"),
)
MAX_GENERATORS = 3  # fg queries draw 0 to this many generators
BLOCK = 10_000  # fg-warm queries per pass
CALIBRATION_LOOP = 100_000


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed at this moment."""
    t0 = clock()
    x = 0
    for i in range(CALIBRATION_LOOP):
        x += i * i % 7
    return clock() - t0


def load_corpus():
    from filtra import builtins as bi

    bi.algebra_names(), bi.logic_names(), bi.class_names(), bi.candidate_names()
    return bi


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def start_tracer(trace: bool):
    if not trace:
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def stop_tracer(tracer):
    if tracer is None:
        return None
    tracer.uninstall()
    return tracer.report()


# ---------------------------------------------------------------------------


def run_setup(args) -> None:
    load_corpus()
    emit({"imported": args.imported, "ready": clock(), "ready_calibration": calibrate()})


def run_cli(args) -> None:
    """The filtra CLI in-process and traced; untraced passes run the real CLI."""
    import filtra.cli as cli
    from filtra.algebras import Budget

    budgets = []

    class RecordingBudget(Budget):
        def __init__(self, *a, **k):
            super().__init__(*a, **k)
            budgets.append(self)

    tracer = start_tracer(True)
    cli.Budget = RecordingBudget
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(args.argv)
    cli.Budget = Budget
    report = stop_tracer(tracer)
    emit({
        "imported": args.imported, "rc": rc, "stdout": out.getvalue(),
        "budget_steps": sum(b.spent for b in budgets), "trace": report,
    })


def structure_calls(bi, budget):
    """(id, thunk, output encoder) for each library call of a structure pass."""
    from filtra.checks import leibniz_probe, smallest_relcong_check
    from filtra.classes import k_congruences
    from filtra.congruences import all_congruences

    kg, chains = bi.logic("KG"), bi.testbed("modal-chains")
    wk3sq, box5 = bi.algebra("WK3^2"), bi.algebra("box5")
    qwk3, alpha12, one = bi.class_spec("qwk3"), bi.class_spec("alpha12"), bi.logic("ONE")

    def verdict(v):
        return v.to_json()

    def lattice(cs):
        return [t.to_blocks_json() for t in cs]

    return [
        ("leibniz-monotone", lambda: leibniz_probe(kg, chains, "monotone", budget()), verdict),
        ("leibniz-injective", lambda: leibniz_probe(kg, chains, "injective", budget()), verdict),
        ("congruences-WK3^2", lambda: all_congruences(wk3sq, budget()), lattice),
        ("congruences-box5", lambda: all_congruences(box5, budget()), lattice),
        ("k-congruences-WK3^2-qwk3", lambda: k_congruences(wk3sq, qwk3, budget()), lattice),
        ("minrelcong-ONE-box5-alpha12",
         lambda: smallest_relcong_check(one, box5, alpha12, budget=budget()), verdict),
    ]


def run_structure(args) -> None:
    from filtra.algebras import Budget

    tracer = start_tracer(args.trace)
    bi = load_corpus()
    budgets = []

    def budget():
        budgets.append(Budget())
        return budgets[-1]

    calls = structure_calls(bi, budget)
    ready = clock()
    ready_calibration = before = calibrate()
    results = []
    for name, thunk, encode in calls:
        t0 = clock()
        value = thunk()
        dt = clock() - t0
        after = calibrate()
        results.append([name, dt, (before + after) / 2, encode(value)])
        before = after
    report = stop_tracer(tracer)
    emit({"imported": args.imported, "ready": ready, "ready_calibration": ready_calibration,
          "calls": results,
          "budget_steps": sum(b.spent for b in budgets), "trace": report})


# ---------------------------------------------------------------------------
# fg-warm


def _queries(rng: random.Random, sizes: list[int], n: int):
    out = []
    for _ in range(n):
        p = rng.randrange(len(sizes))
        if rng.random() < 0.5:
            out.append((p, True, tuple(rng.sample(range(sizes[p]), rng.randint(0, MAX_GENERATORS)))))
        else:
            out.append((p, False, tuple(e for e in range(sizes[p]) if rng.random() < 0.5)))
    return out


def run_fg_warm(args) -> None:
    from filtra.algebras import Budget
    from oracle import RuleOracle, StoredOracle
    from run import Tally, percentile

    stored = json.load(sys.stdin)
    tracer = start_tracer(args.trace)
    import filtra.logics as logics

    bi = load_corpus()
    budget = Budget(10**12)
    pairs = []
    for a, lg in FG_PAIRS:
        algebra, logic = bi.algebra(a), bi.logic(lg)
        logics.all_filters(algebra, logic, budget)
        # every generator set the stream can draw, so that each timed block
        # meets the same warm caches however many blocks ran before it
        for k in range(MAX_GENERATORS + 1):
            for generators in itertools.combinations(range(algebra.size), k):
                logics.fg(algebra, generators, logic, budget)
        pairs.append((algebra, logic))
    ready = clock()
    ready_calibration = before = calibrate()

    oracles = []
    for (a, lg), (algebra, logic) in zip(FG_PAIRS, pairs):
        if hasattr(logic, "rules"):
            oracles.append(RuleOracle(algebra, logic.rules))
        else:
            oracles.append(StoredOracle(stored[f"{a}/{lg}"]))
    tally = Tally()
    for (a, lg), (algebra, logic) in zip(FG_PAIRS, pairs):
        tally.check(logics.fg_certified(algebra, logic), f"{a}/{lg}: not certified")

    rng = random.Random(f"{args.seed}:{args.part}")
    sizes = [algebra.size for algebra, _ in pairs]
    fg, is_filter = logics.fg, logics.is_filter
    memo: dict = {}  # oracle fg answers; at most 697 generator sets per pair
    blocks = []
    t_end = clock() + args.seconds
    for n in range(args.blocks):
        if n and clock() >= t_end:
            break
        queries = _queries(rng, sizes, BLOCK)
        lat = []
        for p, is_fg, subset in queries:
            algebra, logic = pairs[p]
            try:
                t0 = clock()
                got = fg(algebra, subset, logic, budget).members if is_fg else is_filter(algebra, subset, logic, budget)
                lat.append(clock() - t0)
            except Exception as exc:  # a crash is a failed query, not a crashed run
                tally.check(False, f"{FG_PAIRS[p]} {subset}: {exc!r}")
                continue
            if is_fg:
                key = (p, frozenset(subset))
                want = memo.get(key)
                if want is None:
                    try:
                        want = memo[key] = oracles[p].fg(subset)
                    except ValueError as exc:
                        want = exc
            else:
                want = oracles[p].is_filter(subset)
            tally.check(want == got, lambda: f"{FG_PAIRS[p]} {'fg' if is_fg else 'is_filter'} "
                           f"{list(subset)}: got {got}, expected {want}")
        lat.sort()
        after = calibrate()
        if lat:
            blocks.append([sum(lat), percentile(lat, 50), percentile(lat, 99), len(lat), (before + after) / 2])
        before = after
    report = stop_tracer(tracer)
    emit({"imported": args.imported, "ready": ready, "ready_calibration": ready_calibration,
          "blocks": blocks,
          "attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors,
          "budget_steps": budget.spent, "trace": report})


def main(argv=None) -> None:
    import filtra.cli  # noqa: F401  start-up ends once the CLI module is importable

    imported = clock()
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup").set_defaults(func=run_setup)
    p = sub.add_parser("cli")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=run_cli)
    p = sub.add_parser("structure")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=run_structure)
    p = sub.add_parser("fg-warm")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--part", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--blocks", type=int, default=10**9)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=run_fg_warm)
    args = parser.parse_args(argv)
    args.imported = imported
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    args.func(args)


if __name__ == "__main__":
    main()
