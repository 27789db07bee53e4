"""Command-line front end.

Exit codes are the machine contract: 0 pass, 1 fail, 2 configuration error,
3 budget exceeded, 4 inconclusive.

Each command imports the modules it runs (checks, logics, serialization) where
it runs them, so that `filtra fg` loads no checker and `filtra list` builds
nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import builtins as bi
from .algebras import DEFAULT_BUDGET, Budget, FiniteAlgebra, direct_product, enumerate_homomorphisms
from .candidates import LEIBNIZ_MODES, VARIANTS
from .errors import FiltraError, InvalidSpec, SizeBudgetExceeded, UnknownExample, UnknownName

if TYPE_CHECKING:
    from .checks import Testbed, Verdict

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_INCONCLUSIVE = 4


def _given(token: str | None, flag: str) -> str:
    if token is None:
        raise UnknownName(f"this command needs {flag}")
    return token


def _resolve(token: str | None, flag: str, read: Callable, builtin: Callable):
    """The object of a JSON file, by `read(doc)`, else of a built-in name.
    A file that cannot be read, or a document of the wrong shape, is a
    configuration error naming the file; a FiltraError passes as it is."""
    token = _given(token, flag)
    if token.endswith(".json") and Path(token).exists():
        try:
            with open(token) as fh:
                return read(json.load(fh))
        except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
            raise InvalidSpec(f"cannot read {flag[2:]} file {token}: {type(exc).__name__}: {exc}") from exc
    return builtin(token)


# each resolver builds what a name needs (a square, a testbed) on the
# command's budget, as do the algebras a JSON file names
def resolve_algebra(token: str | None, budget: Budget) -> FiniteAlgebra:
    from .serialization import algebra_from_json

    return _resolve(token, "--algebra", algebra_from_json, lambda name: bi.algebra(name, budget))


def resolve_logic(token: str | None, budget: Budget):
    from .serialization import logic_from_json

    by_name = partial(resolve_algebra, budget=budget)
    return _resolve(token, "--logic", lambda doc: logic_from_json(doc, by_name), bi.logic)


def resolve_class(token: str | None, budget: Budget):
    from .serialization import class_from_json

    by_name = partial(resolve_algebra, budget=budget)
    return _resolve(token, "--class", lambda doc: class_from_json(doc, by_name), bi.class_spec)


def resolve_candidate(token: str | None, algebra_for_signature: str | None, budget: Budget):
    from .serialization import candidate_from_json

    def read(doc):
        # a document's own signature entry, else the algebra the command names
        name = doc.get("signature", algebra_for_signature)
        if name is None:
            raise UnknownName("candidate files need --algebra to supply the signature")
        return candidate_from_json(doc, resolve_algebra(name, budget).signature)

    return _resolve(token, "--candidate", read, bi.candidate)


def resolve_testbed(token: str | None, budget: Budget) -> Testbed:
    return bi.testbed(_given(token, "--testbed"), budget)


def resolve_generators(text: str | None, budget: Budget) -> Testbed:
    return tuple(resolve_algebra(tok, budget) for tok in _given(text, "--generators").split(","))


def parse_generators(algebra: FiniteAlgebra, text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    if text == "carrier":
        return list(range(algebra.size))
    return [algebra.element_index(tok.strip()) for tok in text.split(",")]


def _emit(payload: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=1))
    else:
        for line in text_lines:
            print(line)


def _verdict_exit(v: Verdict) -> int:
    if v.passed:
        return EXIT_PASS
    if v.failed:
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


def cmd_fg(args) -> int:
    from .logics import fg_trace, filters_certified

    budget = Budget(args.budget)
    algebra = resolve_algebra(args.algebra, budget)
    logic = resolve_logic(args.logic, budget)
    gens = parse_generators(algebra, args.gen)
    stages = fg_trace(algebra, gens, logic, budget)
    result = stages[-1]
    lines = []
    for i, stage in enumerate(stages[:-1]):
        lines.append(f"C_{i} = {algebra.describe(stage)}")
    lines.append(f"Fg = {algebra.describe(result)}")
    certified = filters_certified(algebra, logic, budget)
    if not certified:
        lines.append("note: filter computation not certified exact at the current bound")
    payload = {
        "algebra": algebra.name,
        "generators": sorted(gens),
        "filter": sorted(result),
        "filter_labels": [algebra.label(e) for e in sorted(result)],
        "trace": [sorted(s) for s in stages],
        "certified": certified,
    }
    _emit(payload, args.format, lines)
    return EXIT_PASS


# every flag of check, in replay order, with its attribute on the parsed
# arguments and its parser settings; --variant, --mode and --arity have
# defaults, so every checker reads them and every replay line carries them
FLAGS = {
    "--logic": ("logic", {}), "--algebra": ("algebra", {}), "--class": ("klass", {}),
    "--candidate": ("candidate", {}), "--candidate2": ("candidate2", {}), "--testbed": ("testbed", {}),
    "--generators": ("generators", {"help": "comma-separated algebra names"}),
    "--property": ("property", {"help": "property name for search"}),
    "--variant": ("variant", {"default": "local", "choices": VARIANTS}),
    "--mode": ("mode", {"default": "monotone", "choices": LEIBNIZ_MODES}),
    "--arity": ("arity", {"type": int, "default": 2}),
    "--nmax": ("nmax", {"type": int}),
    "--relative": ("relative", {"action": "store_true", "default": None,
                                "help": "factor check with base filters"}),
}
READ_BY_ALL = ("--variant", "--mode", "--arity")


class Check(NamedTuple):
    """A checker's flags and call. `call(checks, args, kw, budget)` resolves
    the flags of `reads`, then passes on `kw(args, budget)` to its checker in
    `checks`, the module that cmd_check imports. `kw` is the entry's own
    `keywords`, which read `keyword_flags`; under `check search --property P`
    it is P's."""

    reads: tuple[str, ...]
    call: Callable[..., Verdict]
    keyword_flags: tuple[str, ...] = ()
    keywords: Callable[..., dict] = lambda args, budget: {}


# the parser's choices
CHECKS = {
    "edcf": Check(("--logic", "--testbed"), lambda checks, args, kw, budget: checks.check_edcf(
        resolve_logic(args.logic, budget), resolve_testbed(args.testbed, budget), **kw(args, budget),
        budget=budget),
        ("--candidate", "--algebra", "--nmax", "--class"), lambda args, budget: {
            "candidate": resolve_candidate(args.candidate, args.algebra, budget), "variant": args.variant,
            "n_max": args.nmax, "class_spec": resolve_class(args.klass, budget) if args.klass else None}),
    "fdc": Check(("--logic", "--generators"), lambda checks, args, kw, budget: checks.factor_determined_check(
        resolve_logic(args.logic, budget), resolve_generators(args.generators, budget), **kw(args, budget),
        max_product_arity=args.arity, budget=budget),
        ("--relative",), lambda args, budget: {"absolute": not args.relative}),
    "absfep": Check(("--logic", "--testbed"), lambda checks, args, kw, budget: checks.absolute_fep_check(
        resolve_logic(args.logic, budget), resolve_testbed(args.testbed, budget), arity_cap=args.arity,
        budget=budget)),
    "fep": Check(("--logic", "--testbed"), lambda checks, args, kw, budget: checks.fep_check(
        resolve_logic(args.logic, budget), resolve_testbed(args.testbed, budget), budget=budget)),
    "brouwer": Check(("--logic", "--algebra"), lambda checks, args, kw, budget: checks.dually_brouwerian_check(
        resolve_logic(args.logic, budget), (resolve_algebra(args.algebra, budget),), budget=budget)),
    "minrelcong": Check(("--logic", "--algebra", "--class"),
                        lambda checks, args, kw, budget: checks.smallest_relcong_check(
        resolve_logic(args.logic, budget), resolve_algebra(args.algebra, budget),
        resolve_class(args.klass, budget), arity_cap=args.arity, budget=budget)),
    "leibniz": Check(("--logic", "--testbed"), lambda checks, args, kw, budget: checks.leibniz_probe(
        resolve_logic(args.logic, budget), resolve_testbed(args.testbed, budget), **kw(args, budget),
        budget=budget),
        (), lambda args, budget: {"mode": args.mode}),
    "compare": Check(("--candidate", "--candidate2", "--algebra", "--testbed", "--nmax"),
                     lambda checks, args, kw, budget: checks.compare_candidates(
        resolve_candidate(args.candidate, args.algebra, budget),
        resolve_candidate(_given(args.candidate2, "--candidate2"), args.algebra, budget),
        resolve_testbed(args.testbed, budget), n_max=args.nmax, budget=budget)),
    "search": Check(("--logic", "--property", "--generators"),
                    lambda checks, args, kw, budget: checks.search_counterexample(
        resolve_logic(args.logic, budget), args.property,
        resolve_generators(args.generators, budget) if args.generators else (),
        max_product_arity=args.arity, checker_kwargs=kw(args, budget), budget=budget)),
}


def _given_flags(args) -> list[tuple[str, object]]:
    """The flags of FLAGS that hold a value, with it, in replay order."""
    values = ((flag, getattr(args, attr)) for flag, (attr, _) in FLAGS.items())
    return [(flag, value) for flag, value in values if value not in (None, "")]


def cmd_check(args) -> int:
    from . import checks

    checker, entry = args.checker, CHECKS[args.checker]
    keyed = entry  # the entry whose keywords the call passes on
    if checker == "search":
        name = _given(args.property, "--property")
        if name not in checks.SEARCHES:
            raise InvalidSpec(f"no searchable property {name!r}")
        keyed, checker = CHECKS[name], f"search --property {name}"
    for flag, _ in _given_flags(args):
        if flag not in entry.reads + keyed.keyword_flags + READ_BY_ALL:
            raise UnknownName(f"check {checker} does not read {flag}")
    v = entry.call(checks, args, keyed.keywords, Budget(args.budget))
    lines = [f"checker: {v.checker}", f"outcome: {v.outcome}"]
    if v.witness:
        lines.append("witness: " + json.dumps(dict(v.witness)))
    for note in v.notes:
        lines.append(f"note: {note}")
    replay = _replay_command(args)
    lines.append(f"replay: {replay}")
    payload = v.to_json()
    payload["replay"] = replay
    _emit(payload, args.format, lines)
    return _verdict_exit(v)


def _replay_command(args) -> str:
    parts = ["filtra"]
    if args.budget != DEFAULT_BUDGET:
        parts.extend(["--budget", str(args.budget)])
    parts.extend(["check", args.checker])
    for flag, value in _given_flags(args):
        parts.extend([flag] if value is True else [flag, str(value)])
    return " ".join(parts)


# ---------------------------------------------------------------------------
# reproduce catalog


def _row(results: list, label: str, expected, got, ok: bool, **extra) -> None:
    results.append({"step": label, "expected": expected, "got": got, "ok": ok, **extra})


def _expect(results: list, label: str, verdict: Verdict, expected: str) -> None:
    _row(results, label, expected, verdict.outcome, verdict.outcome == expected, verdict=verdict.to_json())


def _edcf(results, label, expected, logic, testbed, candidate, variant, budget, n_max=None):
    """A row of check_edcf with the built-in logic and candidate so named."""
    from .checks import check_edcf

    v = check_edcf(bi.logic(logic), testbed, bi.candidate(candidate), variant, n_max, budget=budget)
    _expect(results, label, v, expected)


def _reproduce_global_edcf(logic, results, budget):
    """The logic's global candidate, named after it, passes on k3-isp."""
    candidate = f"{logic.lower()}-global"
    label = f"{candidate} passes on K3, K3^2 and subalgebras"
    _edcf(results, label, "pass", logic, bi.testbed("k3-isp", budget), candidate, "global", budget)


def _reproduce_pwk_local_edcf(results, budget):
    from .checks import absolute_fep_check

    bed, label = bi.testbed("wk3-isp", budget), "pwk-local passes on WK3, WK3^2 and subalgebras"
    _edcf(results, label, "pass", "PWK", bed, "pwk-local", "local", budget)
    v = absolute_fep_check(bi.logic("PWK"), bed, budget=budget)
    _expect(results, "filter extension from subalgebras holds on the same testbed", v, "pass")


def _reproduce_pwk_no_pedcf(results, budget):
    from .checks import factor_determined_check

    wk3 = bi.algebra("WK3")
    v = factor_determined_check(bi.logic("PWK"), (wk3,), pinned_generators=[(6,)], budget=budget)
    _expect(results, "factor-determined filters fail on WK3 x WK3 at generator (half,0)", v, "fail")
    label = (v.witness or {}).get("element_label")
    _row(results, "witness element is (1,0)", "(1,0)", label, label == "(1,0)")
    prod = direct_product([wk3, wk3], budget=budget)
    published = tuple(
        2 if 2 in prod.to_tuple(e) else prod.to_tuple(e)[1] for e in range(9)
    )
    found = published in enumerate_homomorphisms(prod.algebra, wk3, budget)
    _row(
        results, "the collapsing homomorphism WK3^2 -> WK3 is enumerated", "present",
        "present" if found else "absent", found,
        homomorphism={prod.algebra.label(e): wk3.label(published[e]) for e in range(9)},
    )


def _reproduce_box5_no_min(results, budget):
    from .checks import smallest_relcong_check

    v = smallest_relcong_check(
        bi.logic("ONE"), bi.algebra("box5"), bi.class_spec("alpha12"),
        pinned_cells=[((2, 3), 4)], budget=budget,
    )
    _expect(results, "no least relative congruence witnesses b in Fg(a1,a2)", v, "fail")
    t1 = [[0, 1], [2, 4], [3]]
    t2 = [[0, 1], [2], [3, 4]]
    minimal = (v.witness or {}).get("minimal_congruences", [])
    _row(
        results, "published incomparable pair among the minimal congruences", [t1, t2],
        minimal, t1 in minimal and t2 in minimal,
    )
    meet, expected = (v.witness or {}).get("meet_blocks"), [[0, 1], [2], [3], [4]]
    _row(results, "their meet collapses only {0,1}", expected, meet, meet == expected)


def _reproduce_m3_not_brouwerian(results, budget):
    from .checks import dually_brouwerian_check

    v = dually_brouwerian_check(bi.logic("ORD"), (bi.algebra("M3"),), budget)
    _expect(results, "no least complement filter on the modular lattice M3", v, "fail")
    v = dually_brouwerian_check(bi.logic("ORD"), (bi.algebra("BOOL4"),), budget)
    _expect(results, "least complement filters exist on the Boolean 4-lattice", v, "pass")


def _reproduce_modal_local_only(results, budget):
    label = "necessitation-bounded local family passes on chains of length <= 4"
    _edcf(results, label, "pass", "KG", bi.testbed("modal-chains", budget), "modal-local", "local", budget)
    for k in range(4):
        _edcf(results, f"fixed necessitation depth {k} fails on the {k + 2}-world chain", "fail", "KG",
              (bi.algebra(f"mchain{k + 2}"),), f"modal-global-k{k}", "global", budget)


def _reproduce_luk_local_only(results, budget):
    from .checks import compare_candidates

    bed, label = bi.testbed("mv-chains", budget), "bounded-power local family passes on L3, L4, L5"
    _edcf(results, label, "pass", "LUK", bed, "luk-local-and", "local", budget)
    v = compare_candidates(bi.candidate("luk-local-and"), bi.candidate("luk-local-odot"), bed, budget=budget)
    _expect(results, "lattice-meet fold and strong-conjunction fold are equivalent", v, "pass")
    for k in (1, 2, 3):
        _edcf(results, f"fixed power {k} fails on the {k + 2}-element chain", "fail", "LUK",
              (bi.algebra(f"L{k + 2}"),), f"luk-global-k{k}", "global", budget, n_max=1)


def _reproduce_kl_only_filter(results, budget):
    from .logics import all_filters, filters_certified

    k3 = bi.algebra("K3")
    families = [sorted(f.members) for f in all_filters(k3, bi.logic("KL"), budget)]
    expected, certified = [[2], [0, 1, 2]], filters_certified(k3, bi.logic("KL"), budget)
    _row(
        results, "KL filters on K3 are exactly {1} and the carrier", expected, families,
        families == expected and certified, certified=certified,
    )


CATALOG = {
    "kleene-edcf": partial(_reproduce_global_edcf, "KL"),
    "lp-edcf": partial(_reproduce_global_edcf, "LP"),
    "pwk-local-edcf": _reproduce_pwk_local_edcf,
    "pwk-no-pedcf": _reproduce_pwk_no_pedcf,
    "box5-no-min": _reproduce_box5_no_min,
    "m3-not-brouwerian": _reproduce_m3_not_brouwerian,
    "modal-local-only": _reproduce_modal_local_only,
    "luk-local-only": _reproduce_luk_local_only,
    "kl-only-filter": _reproduce_kl_only_filter,
}


def cmd_reproduce(args) -> int:
    ids = list(CATALOG) if args.example == "all" else [args.example]
    for ex in ids:
        if ex not in CATALOG:
            raise UnknownExample(
                f"unknown example {ex!r}; catalog: {', '.join(sorted(CATALOG))}"
            )
    budget = Budget(args.budget)
    all_ok = True
    payload = []
    lines = []
    for ex in ids:
        results: list[dict] = []
        CATALOG[ex](results, budget)
        ok = all(r["ok"] for r in results)
        all_ok = all_ok and ok
        payload.append({"example": ex, "ok": ok, "results": results})
        lines.append(f"[{'ok' if ok else 'MISMATCH'}] {ex}")
        for r in results:
            mark = "ok" if r["ok"] else "MISMATCH"
            lines.append(f"    [{mark}] {r['step']}: expected {r['expected']}, got {r['got']}")
            if not r["ok"]:
                lines.append(f"        detail: {json.dumps(r, default=str)}")
    _emit({"reproduce": payload, "ok": all_ok}, args.format, lines)
    return EXIT_PASS if all_ok else EXIT_FAIL


def cmd_list(args) -> int:
    kinds = {
        "algebras": bi.algebra_names,
        "logics": bi.logic_names,
        "classes": bi.class_names,
        "candidates": bi.candidate_names,
        "testbeds": bi.testbed_names,
        "examples": lambda: sorted(CATALOG),
    }
    if args.kind not in kinds:
        raise UnknownName(f"list expects one of {', '.join(sorted(kinds))}")
    names = kinds[args.kind]()
    _emit({args.kind: names}, args.format, names)
    return EXIT_PASS


def _budget(text: str) -> int:
    steps = int(text)
    if steps < 0:
        raise argparse.ArgumentTypeError(f"the budget must be at least 0, got {steps}")
    return steps


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filtra",
        description="Logical filters, congruences, and equational-definability checks on finite algebras.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET, help="elementary step budget")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fg = sub.add_parser("fg", help="generate a filter and print the closure trace")
    p_fg.add_argument("--algebra", required=True)
    p_fg.add_argument("--logic", required=True)
    p_fg.add_argument("--gen", default="", help="comma-separated elements, '' or 'carrier'")
    p_fg.set_defaults(func=cmd_fg)

    p_check = sub.add_parser("check", help="run a property checker")
    p_check.add_argument("checker", choices=tuple(CHECKS))
    for flag, (attr, settings) in FLAGS.items():
        p_check.add_argument(flag, dest=attr, **settings)
    p_check.set_defaults(func=cmd_check)

    p_rep = sub.add_parser("reproduce", help="replay a cataloged finite example")
    p_rep.add_argument("example")
    p_rep.set_defaults(func=cmd_reproduce)

    p_list = sub.add_parser("list", help="show built-in names")
    p_list.add_argument("kind")
    p_list.set_defaults(func=cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except FiltraError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
