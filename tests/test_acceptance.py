"""Acceptance suite.

One test per criterion; each prints a single PASS line on success with its
wall-clock time, and asserts the stated time bound.  Expected values are
either independently recomputed here (closure oracles, congruence lattices)
or pinned to published finite facts exercised through the reproduce catalog.
"""

import itertools
import time

from conftest import oracle_compatible, oracle_congruences, oracle_largest_compatible, oracle_op, quotient

from filtra import builtins as bi
from filtra.algebras import Budget, direct_product, enumerate_homomorphisms
from filtra.terms import App
from filtra.checks import check_edcf
from filtra.cli import CATALOG
from filtra.congruences import all_congruences, leibniz_congruence
from filtra.logics import (
    MatrixDetermined,
    RulePresented,
    all_filters,
    fg,
    fg_trace,
    filters_certified,
    is_filter,
)


def _report(number, label, started):
    elapsed = time.monotonic() - started
    print(f"[criterion {number:2d}] PASS {label} ({elapsed:.1f}s)")
    return elapsed


def _term_symbols(term, out):
    if isinstance(term, App):
        out.add((term.symbol, len(term.args)))
        for a in term.args:
            _term_symbols(a, out)


def _compatible(logic, algebra):
    if isinstance(logic, MatrixDetermined):
        return all(m.algebra.signature == algebra.signature for m in logic.matrices)
    needed = set()
    for rule in logic.rules:
        for t in rule.premises + (rule.conclusion,):
            _term_symbols(t, needed)
    return all(
        sym in algebra.signature and algebra.signature.arity(sym) == arity
        for sym, arity in needed
    )


def _small_builtins(limit):
    names = ["WK3", "K3", "DM4", "BOOL4", "M3", "L3", "L4", "L5", "mchain2", "mchain3", "box5"]
    out = [bi.algebra(n) for n in names if bi.algebra(n).size <= limit]
    for n in ("WK3", "K3", "L3"):
        square = direct_product([bi.algebra(n), bi.algebra(n)]).algebra
        if square.size <= limit:
            out.append(square)
    return out


def test_criterion_01_closure_oracle():
    started = time.monotonic()
    logics = [bi.logic(n) for n in ("ID", "PWK", "ORD", "KG", "LUK", "ONE", "KL", "LP")]
    k3_family = {"K3", "K3xK3"}
    pairs = 0
    for algebra in _small_builtins(9):
        for logic in logics:
            if not _compatible(logic, algebra):
                continue
            pairs += 1
            families = [f.members for f in all_filters(algebra, logic)]
            if isinstance(logic, MatrixDetermined) and algebra.name in k3_family:
                assert filters_certified(algebra, logic), (algebra.name, logic.name)
            for r in range(3):
                for xs in itertools.combinations(range(algebra.size), r):
                    x = frozenset(xs)
                    inter = frozenset(range(algebra.size))
                    for fam in families:
                        if x <= fam:
                            inter &= fam
                    if isinstance(logic, RulePresented):
                        iterated = fg_trace(algebra, x, logic)[-1]
                        assert iterated == inter, (algebra.name, logic.name, sorted(x))
                    assert fg(algebra, x, logic).members == inter
                    assert inter in families  # intersection-closed
    assert pairs > 25
    elapsed = _report(1, f"closure oracle over {pairs} algebra/logic pairs", started)
    assert elapsed < 60


def test_criterion_02_leibniz_oracle():
    started = time.monotonic()
    checked = 0
    for algebra in _small_builtins(6):
        lattice = oracle_congruences(algebra)
        for r in range(algebra.size + 1):
            for subset in itertools.combinations(range(algebra.size), r):
                got = leibniz_congruence(algebra, subset)
                assert got == oracle_largest_compatible(lattice, subset)
                assert oracle_compatible(got.partition, set(subset))
                checked += 1
    elapsed = _report(2, f"Leibniz congruence equals the largest compatible one on {checked} subsets", started)
    assert elapsed < 60


def _run_catalog(example):
    results = []
    CATALOG[example](results, Budget())
    bad = [r for r in results if not r["ok"]]
    assert not bad, bad
    return results


def test_criterion_03_kl_only_filter():
    started = time.monotonic()
    _run_catalog("kl-only-filter")
    k3 = bi.algebra("K3")
    kl = bi.logic("KL")
    assert [sorted(f.members) for f in all_filters(k3, kl)] == [[2], [0, 1, 2]]
    assert filters_certified(k3, kl)
    _report(3, "matrix-determined KL filters on K3 are exactly {1} and K3", started)


def test_criterion_04_kleene_and_lp_edcf():
    started = time.monotonic()
    _run_catalog("kleene-edcf")
    _run_catalog("lp-edcf")
    elapsed = _report(4, "KL and LP global families pass on K3, its square, and subalgebras", started)
    assert elapsed < 120


def test_criterion_05_pwk_local_edcf_and_extension():
    started = time.monotonic()
    _run_catalog("pwk-local-edcf")
    _report(5, "PWK local family passes and subalgebra filters extend on the same testbed", started)


def test_criterion_06_pwk_no_factor_determination():
    started = time.monotonic()
    results = _run_catalog("pwk-no-pedcf")
    hom_step = [r for r in results if "homomorphism" in r]
    assert hom_step and hom_step[0]["ok"]
    _report(6, "factor determination fails on WK3 x WK3 with the published witness", started)


def test_criterion_07_box5_no_smallest_relative_congruence():
    started = time.monotonic()
    _run_catalog("box5-no-min")
    _report(7, "no smallest relative congruence on the 5-element algebra at the published cell", started)


def test_criterion_08_modal_local_only():
    started = time.monotonic()
    _run_catalog("modal-local-only")
    _report(8, "necessitation family passes locally, every fixed depth fails on its chain", started)


def test_criterion_09_luk_local_only():
    started = time.monotonic()
    _run_catalog("luk-local-only")
    _report(9, "power family passes locally and matches its fold variant, fixed powers fail", started)


def test_criterion_10_m3_not_dually_brouwerian():
    started = time.monotonic()
    _run_catalog("m3-not-brouwerian")
    _report(10, "dually Brouwerian check fails on M3 and passes on the Boolean 4-lattice", started)


def test_criterion_11_structural_property_suite():
    started = time.monotonic()

    # homomorphic preimages of filters are filters
    cases = [
        ("WK3", "PWK"), ("K3", "KL"), ("box5", "ONE"),
    ]
    for name, logic_name in cases:
        base = bi.algebra(name)
        logic = bi.logic(logic_name)
        square = direct_product([base, base]).algebra
        fams = [f.members for f in all_filters(base, logic)]
        for h in enumerate_homomorphisms(square, base):
            for fam in fams:
                preimage = frozenset(a for a in range(square.size) if h[a] in fam)
                assert is_filter(square, preimage, logic)

    # generation on a product stays within the product of factor generations
    for name, logic_name in [("WK3", "PWK"), ("K3", "KL"), ("L3", "LUK"), ("mchain2", "KG")]:
        base = bi.algebra(name)
        logic = bi.logic(logic_name)
        prod = direct_product([base, base])
        for x in range(prod.algebra.size):
            on_product = fg(prod.algebra, {x}, logic).members
            coords = prod.to_tuple(x)
            factor = [fg(base, {coords[i]}, logic).members for i in range(2)]
            assert all(
                prod.to_tuple(e)[0] in factor[0] and prod.to_tuple(e)[1] in factor[1]
                for e in on_product
            )

    # closure-operator laws
    for name, logic_name in [("WK3", "PWK"), ("K3", "LP"), ("L4", "LUK"), ("box5", "ONE")]:
        algebra = bi.algebra(name)
        logic = bi.logic(logic_name)
        subsets = [
            frozenset(c)
            for r in range(3)
            for c in itertools.combinations(range(algebra.size), r)
        ]
        for x in subsets:
            closed = fg(algebra, x, logic).members
            assert x <= closed
            assert fg(algebra, closed, logic).members == closed
            for y in subsets:
                if x <= y:
                    assert closed <= fg(algebra, y, logic).members

    # quotient projections commute with the tables
    for name in ("WK3", "K3", "box5", "mchain2"):
        algebra = bi.algebra(name)
        for theta in all_congruences(algebra):
            q, proj = quotient(algebra, theta.partition)
            for sym, arity in algebra.signature.symbols:
                for args in itertools.product(range(algebra.size), repeat=arity):
                    assert proj[oracle_op(algebra, sym, *args)] == oracle_op(q, sym, *(proj[a] for a in args))

    # a passing global candidate passes as the singleton local family
    for logic_name, cand in [("KL", "kl-global"), ("LP", "lp-global")]:
        logic = bi.logic(logic_name)
        bed = bi.testbed("k3-isp")
        assert check_edcf(logic, bed, bi.candidate(cand), "global").passed
        assert check_edcf(logic, bed, bi.candidate(cand), "local").passed
        assert check_edcf(logic, bed, bi.candidate(cand), "parametrized_local").passed

    elapsed = _report(11, "structural properties hold exhaustively on the corpus", started)
    assert elapsed < 300
