import ast
import functools
import itertools
import random
from pathlib import Path

import pytest

from hypothesis import given, settings

from conftest import (
    oracle_absolute_fep_check,
    oracle_factor_determined_check,
    oracle_first_mismatch,
    oracle_satisfies_family,
    oracle_smallest_relcong_check,
    quotient,
    random_algebras,
    random_rules,
    relabel,
    table_index,
    trivial_algebra,
)

from filtra import builtins as bi
from filtra import checks, logics
from filtra.algebras import (
    Budget, FiniteAlgebra, Matrix, compile_term, direct_product, enumerate_homomorphisms,
)
from filtra.candidates import EDCFCandidate, fold_terms, xvars
from filtra.checks import (
    _first_mismatch,
    _sweep_table,
    absolute_fep_check,
    check_edcf,
    compare_candidates,
    dually_brouwerian_check,
    factor_determined_check,
    fep_check,
    generate_testbed,
    leibniz_probe,
    search_counterexample,
    smallest_relcong_check,
)
from filtra.checks import test_algebra_check as run_test_algebra_check
from filtra.classes import Axiomatic, GeneratedQuasivariety
from filtra.cli import CATALOG
from filtra.congruences import Congruence, all_congruences
from filtra.errors import InvalidSpec, SizeBudgetExceeded
from filtra.logics import MatrixDetermined, RulePresented, all_filters, fg, filters_certified, is_filter
from filtra.terms import Equation, Rule, Signature, Var, parse_term


# --- testbed generation -------------------------------------------------------


def test_generate_testbed_products_and_subalgebras(wk3):
    bed = generate_testbed([wk3], 2, include_subalgebras=True)
    # the generator, its square, then the proper subalgebras of each in turn
    assert bed[0] is wk3
    assert bed[1] == direct_product([wk3, wk3]).algebra
    assert [a.size for a in bed[2:]] == [1, 2, 4, 4, 5, 5, 5, 6, 7, 7]
    assert [a.name.split("|")[0] for a in bed[2:]] == ["WK3"] * 2 + ["WK3xWK3"] * 8


def test_generate_testbed_trivial(wk3):
    bed = generate_testbed([wk3], 1, include_subalgebras=False)
    assert [a.name for a in bed] == ["WK3"]


def test_generate_testbed_dedups_isomorphic_copies(k3):
    twin = FiniteAlgebra.make("K3-twin", 3, k3.signature, dict(k3.tables))
    bed = generate_testbed([k3, twin], 1)
    assert len(bed) == 1


def test_generate_testbed_k3_square(k3):
    bed = generate_testbed([k3], 2, include_subalgebras=False)
    assert sorted(a.size for a in bed) == [3, 9]


def _forget_contexts() -> None:
    """Forget every context and clone: the subuniverses a testbed build reads
    are filters of the signature, and a warm family is read for free."""
    logics._CONTEXTS.clear()
    logics._CLONES.clear()


def test_generate_testbed_spends_an_exact_budget(cold_contexts, wk3):
    def cold(budget):
        _forget_contexts()
        return generate_testbed([wk3], 2, include_subalgebras=True, budget=budget)

    spent = Budget()
    want = cold(spent)
    assert cold(Budget(spent.spent)) == want
    with pytest.raises(SizeBudgetExceeded):
        cold(Budget(spent.spent - 1))


def test_a_builtin_testbed_is_built_on_its_first_callers_budget(cold_contexts):
    spent = Budget()
    bed = bi.testbed("wk3-isp", spent)
    assert spent.spent > 0 and bi.testbed("wk3-isp", Budget(0)) is bed  # kept once built
    bi._BUILT.clear()
    _forget_contexts()
    with pytest.raises(SizeBudgetExceeded):
        bi.testbed("wk3-isp", Budget(spent.spent - 1))
    assert ("testbed", "wk3-isp") not in bi._BUILT  # a build that runs out keeps nothing
    _forget_contexts()
    assert bi.testbed("wk3-isp", Budget(spent.spent)) == bed


def test_a_builtin_square_is_built_on_its_first_callers_budget(cold_contexts):
    spent = Budget()
    square = bi.algebra("WK3^2", spent)
    assert spent.spent > 0 and bi.algebra("WK3^2", Budget(0)) is square  # kept once built
    assert "WK3^2" not in bi.algebra_names()
    bi._BUILT.clear()
    with pytest.raises(SizeBudgetExceeded):
        bi.algebra("WK3^2", Budget(spent.spent - 1))
    assert ("algebra", "WK3^2") not in bi._BUILT  # a build that runs out keeps nothing
    assert bi.algebra("WK3^2", Budget(spent.spent)) == square


# --- check_edcf ----------------------------------------------------------------


def test_kleene_global_edcf_passes(kl):
    v = check_edcf(kl, bi.testbed("k3-isp"), bi.candidate("kl-global"), "global")
    assert v.passed


def test_edcf_inconclusive_below_the_needed_variable_count(kl):
    # one variable cannot tell apart the filters of K3^2 and two of its
    # subalgebras; the note names each with what the search found there
    low = MatrixDetermined(kl.matrices, variable_bound=1, name="KL-v1")
    bed = bi.testbed("k3-isp")
    assert [a.name for a in bed if not filters_certified(a, low)] == [
        "K3xK3", "K3xK3|{0,1,2,6,7,8}", "K3xK3|{0,1,3,4,5,7,8}",
    ]
    v = check_edcf(low, bed, bi.candidate("kl-global"), "global")
    assert v.outcome == "inconclusive"
    assert v.notes[0] == (
        "filter computations not certified exact on: "
        "K3xK3 (v=1 tried, clone complete; lower family 4, unrefuted 13), "
        "K3xK3|{0,1,2,6,7,8} (v=1 tried, clone complete; lower family 4, unrefuted 7), "
        "K3xK3|{0,1,3,4,5,7,8} (v=1 tried, clone complete; lower family 4, unrefuted 5)"
    )
    certified = check_edcf(kl, bed, bi.candidate("kl-global"), "global")
    assert certified.passed and certified.notes == ()


def test_a_clone_past_the_table_cap_stops_the_search_uncertified(monkeypatch, cold_contexts, kl):
    # at v = 2 the tables of K3^2 and K3 would hold 81 + 9 entries, over the cap
    monkeypatch.setattr(logics, "MAX_CLONE_TABLE", 20)
    k3_sq = bi.algebra("K3^2")
    assert not filters_certified(k3_sq, kl)
    v = check_edcf(kl, (k3_sq,), bi.candidate("kl-global"), "global")
    assert v.outcome == "inconclusive"
    assert f"{k3_sq.name} (v=1 tried, clone complete;" in v.notes[0]


def test_lp_global_edcf_passes(lp):
    v = check_edcf(lp, bi.testbed("k3-isp"), bi.candidate("lp-global"), "global")
    assert v.passed


def test_pwk_local_edcf_passes(pwk):
    v = check_edcf(pwk, bi.testbed("wk3-isp"), bi.candidate("pwk-local"), "local")
    assert v.passed


def test_wrong_candidate_fails_with_replayable_witness(kl, k3):
    # defines the carrier instead of the generated filter
    always = EDCFCandidate(
        "always", 1, (((Equation(Var("y"), Var("y")),),), ((Equation(Var("y"), Var("y")),),))
    )
    v = check_edcf(kl, (k3,), always, "global")
    assert v.failed
    w = v.witness
    algebra = k3
    members = fg(algebra, frozenset(w["generators"]), kl).members
    assert (w["element"] in members) == w["in_fg"]
    assert w["satisfies_candidate"] is True and w["in_fg"] is False


@pytest.mark.parametrize(("example", "logic", "fails"), [("modal-local-only", "KG", 4), ("luk-local-only", "LUK", 3)])
def test_catalog_edcf_fails_replay_through_public_primitives(example, logic, fails):
    # each fixed-depth or fixed-power row fails; its cell replays through fg
    # and the compiled tables of the candidate's family at the cell
    logic = bi.logic(logic)
    results = []
    CATALOG[example](results, Budget())
    assert all(r["ok"] for r in results)
    witnesses = [
        r["verdict"]["witness"]
        for r in results
        if r["verdict"]["outcome"] == "fail" and r["verdict"]["checker"] == "edcf"
    ]
    assert len(witnesses) == fails
    for w in witnesses:
        algebra, candidate = bi.algebra(w["algebra"]), bi.candidate(w["candidate"])
        assert w["in_fg"] == (w["element"] in fg(algebra, w["generators"], logic).members)
        assert candidate.param_count == 0
        names = [f"x{i + 1}" for i in range(w["n"])] + ["y"]
        point = table_index(algebra.size, w["generators"] + [w["element"]])
        holds = any(
            all(compile_term(eq.lhs, algebra, names)[point] == compile_term(eq.rhs, algebra, names)[point] for eq in member)
            for member in candidate.family(w["n"])
        )
        assert w["satisfies_candidate"] == holds


def test_variant_shape_rejected(pwk):
    with pytest.raises(InvalidSpec):
        check_edcf(pwk, bi.testbed("wk3-isp"), bi.candidate("pwk-local"), "global")


def test_global_pass_implies_local_pass_on_singleton_family(kl, lp):
    for logic, cand in [(kl, bi.candidate("kl-global")), (lp, bi.candidate("lp-global"))]:
        bed = bi.testbed("k3-isp")
        assert check_edcf(logic, bed, cand, "global").passed
        assert check_edcf(logic, bed, cand, "local").passed


# --- theta form ------------------------------------------------------------------


def test_theta_form_agrees_on_members(kl, k3):
    # on a member of the class the least relative congruence is the identity
    spec = GeneratedQuasivariety((k3,))
    plain = check_edcf(kl, (k3,), bi.candidate("kl-global"), "global")
    relative = check_edcf(kl, (k3,), bi.candidate("kl-global"), "global", class_spec=spec)
    assert plain.outcome == relative.outcome == "pass"


def test_theta_form_box5_candidate_misses_the_constant(box5, one_logic):
    cand = EDCFCandidate(
        "x-equals-y", 1,
        (
            ((Equation(Var("y"), Var("1")),),),
            ((Equation(Var("x1"), Var("y")),),),
        ),
    )
    v = check_edcf(one_logic, (box5,), cand, "global", class_spec=bi.class_spec("alpha12"))
    assert v.failed
    # first witness in deterministic order: the constant itself is generated
    assert v.witness["n"] == 1
    assert v.witness["in_fg"] is True and v.witness["satisfies_candidate"] is False


def test_theta_form_on_trivial_algebra(one_logic, box5):
    # a candidate with a non-empty base family passes on the one-element
    # algebra exactly when the logic proves something outright
    t = trivial_algebra(box5.signature, "t")
    cand = EDCFCandidate("point", 0, (((Equation(Var("y"), parse_term("one", box5.signature)),),),))
    v = check_edcf(one_logic, (t,), cand, "global", class_spec=Axiomatic())
    assert v.passed
    theoremless = RulePresented((), name="none")
    v = check_edcf(theoremless, (t,), cand, "global", class_spec=Axiomatic())
    assert v.failed  # the single point satisfies every equation but generates nothing


# --- sweep tables against the pointwise oracle ---------------------------------


def assert_sweep_matches_oracle(algebra, family, n, param_count, theta=None):
    table = _sweep_table(algebra, family, n, param_count, Budget(), theta)
    cells = list(itertools.product(itertools.product(range(algebra.size), repeat=n), range(algebra.size)))
    assert len(table) == len(cells)
    for (xs, b), got in zip(cells, table):
        assert got == oracle_satisfies_family(algebra, family, xs, b, param_count, theta), (xs, b)


@pytest.mark.parametrize(
    "candidate, testbed",
    [("kl-global", "k3-isp"), ("pwk-local", "wk3-isp"), ("luk-local-and", "mv-chains")],
)
def test_sweep_table_matches_pointwise_oracle(candidate, testbed):
    c = bi.candidate(candidate)
    for algebra in bi.testbed(testbed):
        for n in range(c.n_max + 1):
            assert_sweep_matches_oracle(algebra, c.family(n), n, c.param_count)


@pytest.mark.parametrize(
    "logic, candidate, algebra",
    [("PWK", "pwk-local", "WK3"), ("KL", "kl-global", "K3^2"), ("KG", "modal-global-k0", "mchain2"),
     ("LUK", "luk-global-k1", "L3")],
)
def test_first_mismatch_by_rows_is_the_first_cell_by_cell(logic, candidate, algebra):
    logic, candidate, algebra = bi.logic(logic), bi.candidate(candidate), bi.algebra(algebra)
    for theta in [None] + list(all_congruences(algebra)):
        got = _first_mismatch(logic, algebra, candidate, candidate.n_max, Budget(), theta)
        want = oracle_first_mismatch(logic, algebra, candidate, candidate.n_max, theta)
        if want is None:
            assert got is None, theta
        else:
            assert (got["n"], got["generators"], got["element"], got["in_fg"]) == want, theta


def parametrized_candidate(signature):
    """Two members: y is the join of the generators and some z1, or y is the
    negation of a z1 that meets y at the bottom."""
    second = (
        Equation(Var("y"), parse_term("(neg z1)", signature)),
        Equation(parse_term("(and z1 y)", signature), parse_term("0", signature)),
    )
    families = tuple(
        ((Equation(Var("y"), fold_terms("or", xvars(n) + [Var("z1")])),), second) for n in range(3)
    )
    return EDCFCandidate("param", 2, families, param_count=1)


def test_parametrized_sweep_matches_pointwise_oracle(k3):
    c = parametrized_candidate(k3.signature)
    assert c.matches_variant("parametrized_local") and not c.matches_variant("local")
    for algebra in bi.testbed("k3-isp"):
        for n in range(c.n_max + 1):
            assert_sweep_matches_oracle(algebra, c.family(n), n, c.param_count)


def test_theta_sweep_matches_pointwise_oracle(k3_sq):
    algebra = k3_sq.algebra
    thetas = [t for t in all_congruences(algebra) if 1 < t.num_blocks < algebra.size]
    assert thetas
    for theta in thetas:
        for c in (bi.candidate("kl-global"), parametrized_candidate(algebra.signature)):
            for n in range(3):
                assert_sweep_matches_oracle(algebra, c.family(n), n, c.param_count, theta)


@pytest.mark.parametrize("size", [256, 300])
def test_theta_sweep_reads_block_ids_128_apart(size):
    # f swaps x and x + 128 below 256, and modulo either partition the block
    # ids of 0 and 128 are 128 apart: on 256 elements they differ only in a
    # byte lane's high bit, and on 300 the tables are tuples
    sig = Signature((("f", 1),))
    swap = FiniteAlgebra.make("swap", size, sig, {"f": [x ^ 128 if x ^ 128 < size else x for x in range(size)]})
    family = [(Equation(parse_term("(f y)", sig), Var("y")),)]
    merged = Congruence(tuple(2 if x == 130 else x for x in range(size)))
    for theta in (Congruence.identity(size), merged):
        assert_sweep_matches_oracle(swap, family, 0, 0, theta)
    held = _sweep_table(swap, family, 0, 0, Budget(), merged)
    assert [b for b in range(256) if held[b]] == [2, 130]


# --- step budget -------------------------------------------------------------------


def test_check_edcf_spends_the_budget(kl, k3):
    with pytest.raises(SizeBudgetExceeded):
        check_edcf(kl, bi.testbed("k3-isp"), bi.candidate("kl-global"), "global", budget=Budget(100))
    # with no members nothing is compiled, and each cell swept spends one step:
    # without rules fg({0}) = {0}, so the fourth cell is the first mismatch
    theoremless = RulePresented((), name="none")
    empty = EDCFCandidate("empty", 1, ((), ()))
    with pytest.raises(SizeBudgetExceeded):
        check_edcf(theoremless, (k3,), empty, budget=Budget(3))
    v = check_edcf(theoremless, (k3,), empty, budget=Budget(4))
    assert v.failed and (v.witness["n"], v.witness["element"]) == (1, 0)


def test_check_edcf_spends_the_callers_budget_on_its_contexts(cold_contexts, kl):
    bed, candidate = bi.testbed("k3-isp"), bi.candidate("kl-global")
    cold = Budget()
    check_edcf(kl, bed, candidate, "global", budget=cold)
    logics._CONTEXTS.clear()
    logics._CLONES.clear()
    built = Budget()
    for algebra in bed:
        logics._context(algebra, kl, built)
    warm = Budget()
    check_edcf(kl, bed, candidate, "global", budget=warm)
    assert built.spent > 0
    assert cold.spent == built.spent + warm.spent


# --- candidate comparison ---------------------------------------------------------


def test_compare_candidate_with_itself(kl):
    c = bi.candidate("kl-global")
    assert compare_candidates(c, c, bi.testbed("k3-isp")).passed


def test_luk_fold_families_equivalent():
    v = compare_candidates(
        bi.candidate("luk-local-and"), bi.candidate("luk-local-odot"), bi.testbed("mv-chains")
    )
    assert v.passed


def test_compare_distinguishes_fixpoint_from_constant(wk3):
    only_one = EDCFCandidate("just-one", 0, (((Equation(Var("y"), Var("1")),),),))
    fixpoint = EDCFCandidate(
        "own-excluded-middle", 0,
        (((Equation(parse_term("(or y (neg y))", wk3.signature), Var("y")),),),),
    )
    v = compare_candidates(fixpoint, only_one, (wk3,))
    assert v.failed
    assert v.witness["direction"] == "own-excluded-middle -> just-one"
    assert v.witness["member_index"] == 0
    # one breaking cell per member of the other family, replayed on the
    # compiled tables at the cell's valuation
    [cell] = v.witness["breaking_cells"]
    assert cell["algebra"] == wk3.name
    assert cell["element_label"] == wk3.label(cell["element"])
    names = [f"x{i + 1}" for i in range(len(cell["generators"]))] + ["y"]
    point = table_index(wk3.size, cell["generators"] + [cell["element"]])

    def holds(candidate):
        [member] = candidate.family(0)
        return all(
            compile_term(eq.lhs, wk3, names)[point] == compile_term(eq.rhs, wk3, names)[point] for eq in member
        )

    assert holds(fixpoint) and not holds(only_one)


# --- absolute filter extension -----------------------------------------------------


def test_absolute_fep_for_pwk(pwk):
    assert absolute_fep_check(pwk, bi.testbed("wk3-isp"), arity_cap=2).passed


def test_absolute_fep_for_axiom_logic(one_logic):
    assert absolute_fep_check(one_logic, bi.testbed("box5"), arity_cap=2).passed


def synthetic_extension_failure():
    sig = Signature((("c", 0), ("u", 1)))
    big = FiniteAlgebra.make("ext", 3, sig, {"c": [2], "u": [1, 2, 2]})
    logic = RulePresented((Rule((), parse_term("(u x)", sig)),), name="theorems-of-u")
    return big, logic


def test_absolute_fep_synthetic_failure():
    big, logic = synthetic_extension_failure()
    v = absolute_fep_check(logic, (big,), arity_cap=1)
    assert v.failed
    assert v.witness["subalgebra"] == [1, 2]
    # inside the subalgebra only u-values of its own elements are theorems
    assert v.witness["fg_in_subalgebra"] == [2]
    assert v.witness["trace_from_extension"] == [1, 2]


def test_fep_with_base_filters(pwk, one_logic):
    assert fep_check(one_logic, bi.testbed("box5")).passed
    bed = generate_testbed([bi.algebra("WK3")], 1, include_subalgebras=True)
    assert fep_check(pwk, bed).passed


def test_fep_ord_logic_on_lattices(ord_logic):
    bed = generate_testbed(
        [bi.algebra("BOOL4"), bi.algebra("M3")], 1, include_subalgebras=True
    )
    v = fep_check(ord_logic, bed)
    assert v.failed
    assert v.witness == {
        "algebra": "BOOL4", "subalgebra": [0, 1, 3], "base_filter": [2, 3],
        "filter_without_extension": [1, 3],
    }


# --- factor determination ------------------------------------------------------------


def test_pwk_not_factor_determined(pwk, wk3):
    # the testbed (WK3,) at product arity 2 names WK3 x WK3 alone
    v = factor_determined_check(pwk, (wk3,), absolute=True, pinned_generators=[(6,)])
    assert v.failed
    assert v.witness["generator_labels"] == ["(half,0)"]
    assert v.witness["element_label"] == "(1,0)"
    assert v.witness["side"] == "product_of_factor_filters_minus_fg"


def test_pwk_sweep_also_finds_a_failure(pwk, wk3):
    v = factor_determined_check(pwk, (wk3,), absolute=True, generator_cap=1)
    assert v.failed


def test_axiom_logic_not_factor_determined(one_logic, box5):
    # generated filters only adjoin the constant, so the product of factor
    # filters strictly exceeds generation on the product: witness (0,1)
    v = factor_determined_check(one_logic, (box5,), generator_cap=1)
    assert v.failed
    assert v.witness["side"] == "product_of_factor_filters_minus_fg"


def test_kleene_factor_determined(kl, k3):
    assert factor_determined_check(kl, (k3,), generator_cap=1).passed


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(random_algebras(), random_rules())
def test_set_sweeps_report_the_first_witness_of_the_tuple_sweeps(algebra_and_perm, rules):
    algebra, _ = algebra_and_perm
    logic, bed = RulePresented(tuple(rules)), (algebra,)
    for cap in (2, 3):
        assert absolute_fep_check(logic, bed, arity_cap=cap).to_json() == oracle_absolute_fep_check(
            logic, bed, cap
        )
        assert factor_determined_check(logic, bed, generator_cap=cap).to_json() == (
            oracle_factor_determined_check(logic, bed, True, cap)
        )
    if algebra.size <= 3:  # the relative sweep repeats per pair of factor filters
        assert factor_determined_check(logic, bed, absolute=False, generator_cap=2).to_json() == (
            oracle_factor_determined_check(logic, bed, False, 2)
        )


def test_absolute_fep_first_fails_at_a_pair_of_generators():
    # a derivation leaves the subalgebra {0, 2, 3} through g(1, 1) = 0 once
    # both 2 and 3 are in; random rule logics rarely fail absfep at all
    sig = Signature((("g", 2),))
    table = [3, 3, 2, 0, 0, 0, 0, 3, 2, 3, 2, 2, 3, 2, 3, 3, 0, 3, 2, 1, 3, 1, 0, 1, 2]
    bed = (FiniteAlgebra.make("A", 5, sig, {"g": table}),)
    premises = tuple(parse_term(p, sig) for p in ("x", "y", "(g x y)"))
    logic = RulePresented((Rule(premises, parse_term("(g u u)", sig)),))
    for cap in (2, 3):
        v = absolute_fep_check(logic, bed, arity_cap=cap)
        assert v.to_json() == oracle_absolute_fep_check(logic, bed, cap)
        assert v.witness["generators"] == [2, 3]
        assert v.witness["trace_from_extension"] == [0, 2, 3]


@pytest.mark.parametrize(
    "call",
    [
        lambda pwk, wk3, cand: check_edcf(pwk, (wk3,), cand, n_max=-1),
        lambda pwk, wk3, cand: check_edcf(pwk, (wk3,), cand, n_max=-1, class_spec=Axiomatic()),
        lambda pwk, wk3, cand: compare_candidates(cand, cand, (wk3,), n_max=-1),
        lambda pwk, wk3, cand: absolute_fep_check(pwk, (wk3,), arity_cap=-1),
        lambda pwk, wk3, cand: factor_determined_check(pwk, (wk3,), generator_cap=-1),
        lambda pwk, wk3, cand: factor_determined_check(pwk, (wk3,), max_product_arity=1),
        lambda pwk, wk3, cand: smallest_relcong_check(pwk, wk3, Axiomatic(), arity_cap=-1),
    ],
    ids=["edcf", "edcf-theta", "compare", "absfep", "fdc-generators", "fdc-arity", "minrelcong"],
)
def test_a_cap_leaving_the_sweep_empty_is_a_configuration_error(pwk, wk3, call):
    with pytest.raises(InvalidSpec, match="the sweep would be empty"):
        call(pwk, wk3, bi.candidate("pwk-local"))


def test_caps_at_their_least_values_still_sweep(pwk, wk3):
    cand = bi.candidate("pwk-local")
    assert check_edcf(pwk, (wk3,), cand, n_max=0).passed
    assert compare_candidates(cand, cand, (wk3,), n_max=0).passed
    # a cap of 0 sweeps the empty generator set
    assert absolute_fep_check(pwk, (wk3,), arity_cap=0).passed
    assert factor_determined_check(pwk, (wk3,), generator_cap=0).passed


def test_relative_factor_determination_runs(pwk, wk3):
    v = factor_determined_check(pwk, (wk3,), absolute=False, generator_cap=0)
    assert v.passed


# --- test algebras ---------------------------------------------------------------------


def test_trivial_test_algebra(one_logic, box5):
    t = trivial_algebra(box5.signature, "t")
    v = run_test_algebra_check(one_logic, (t,), t, (), 0)
    assert v.passed


def test_a_test_algebra_fails_when_q_lies_outside_the_generated_filter(pwk, wk3):
    # Fg(empty set) on WK3 is {1, half}
    v = run_test_algebra_check(pwk, (wk3,), wk3, (), 0)
    assert v.failed
    assert v.witness == {
        "algebra": "WK3", "reason": "q outside the filter generated by the test elements",
        "p": [], "q": 0,
    }


def test_pwk_candidate_test_algebra_fails(pwk, wk3):
    v = run_test_algebra_check(pwk, (wk3,), wk3, (2,), 1)
    assert v.failed
    assert v.witness["reason"] == "no homomorphism maps the test elements onto this cell"


def test_test_algebra_check_spends_its_homomorphism_search(monkeypatch, pwk, wk3_sq):
    square = wk3_sq.algebra
    bed = (square,)
    run_test_algebra_check(pwk, bed, square, (0,), 4)  # build the filter contexts
    search = Budget()
    enumerate_homomorphisms(square, square, search)
    uncharged = Budget()
    with monkeypatch.context() as m:
        m.setattr(
            checks, "enumerate_homomorphisms",
            lambda dom, cod, budget=None: enumerate_homomorphisms(dom, cod), raising=False,
        )
        run_test_algebra_check(pwk, bed, square, (0,), 4, uncharged)
    charged = Budget()
    assert run_test_algebra_check(pwk, bed, square, (0,), 4, charged).failed
    assert charged.spent == uncharged.spent + search.spent


def test_square_test_algebra_for_pwk(pwk, wk3, wk3_sq):
    # no candidate over the square can work either; sweep a couple of choices
    square = wk3_sq.algebra
    outcomes = set()
    for p in (0, 6):
        q = 4  # (1,1)
        v = run_test_algebra_check(pwk, (wk3, square), square, (p,), q)
        outcomes.add(v.outcome)
    assert outcomes == {"fail"}


# --- smallest relative congruence ---------------------------------------------------


def test_box5_has_no_smallest_relative_congruence(one_logic, box5):
    v = smallest_relcong_check(
        one_logic, box5, bi.class_spec("alpha12"), pinned_cells=[((2, 3), 4)]
    )
    assert v.failed
    minimal = v.witness["minimal_congruences"]
    assert [[0, 1], [2, 4], [3]] in minimal
    assert [[0, 1], [2], [3, 4]] in minimal
    assert v.witness["meet_blocks"] == [[0, 1], [2], [3], [4]]


def test_box5_sweep_finds_a_failure_on_its_own(one_logic, box5):
    v = smallest_relcong_check(one_logic, box5, bi.class_spec("alpha12"), arity_cap=2)
    assert v.failed


def test_smallest_relcong_trivial_class(one_logic, box5, wk3, pwk):
    # membership upsets need not be principal even over the full congruence
    # lattice: the same five-element algebra refutes it
    v = smallest_relcong_check(one_logic, box5, Axiomatic(), arity_cap=2)
    assert v.failed
    assert v.witness["meet_blocks"] == [[0, 1], [2], [3], [4]]
    assert smallest_relcong_check(pwk, wk3, Axiomatic(), arity_cap=2).passed


def test_member_algebra_passes(kl, k3):
    assert smallest_relcong_check(kl, k3, GeneratedQuasivariety((k3,)), arity_cap=2).passed


def test_a_fail_read_off_an_uncertified_quotient_is_inconclusive(kl, k3):
    # the relative filters are computed on K3 x DM4 itself, and only its
    # certification is read: with one variable it stays uncertified, although
    # two of its quotients certify
    kl1 = MatrixDetermined(kl.matrices, 1, "KL1")
    algebra = direct_product([k3, bi.algebra("DM4")]).algebra
    quotients = [quotient(algebra, t.partition)[0] for t in all_congruences(algebra)]
    assert [filters_certified(q, kl1) for q in quotients] == [False, False, True, True]
    v = smallest_relcong_check(kl1, algebra, Axiomatic(), arity_cap=1)
    assert v.outcome == "inconclusive"
    assert v.witness["algebra"] == algebra.name and v.witness["meet_blocks"]
    assert v.notes[-1] == "witness read an uncertified algebra"
    # under KL every quotient certifies at two variables
    assert all(filters_certified(q, kl) for q in quotients)
    assert smallest_relcong_check(kl, algebra, Axiomatic(), arity_cap=1).passed


def test_uncertified_quotients_sharing_a_name_are_each_listed(kl, k3):
    # two different quotients of K3 x DM4 are both named K3xDM4/~ and both
    # stay uncertified with one variable; keyed by value, each keeps its own detail
    kl1 = MatrixDetermined(kl.matrices, 1, "KL1")
    algebra = direct_product([k3, bi.algebra("DM4")]).algebra
    quotients = [quotient(algebra, t.partition)[0] for t in all_congruences(algebra)]
    listed = checks._uncertified(kl1, quotients, Budget())
    assert len(listed) == 2 and {q.name for q in listed} == {f"{algebra.name}/~"}
    assert sorted(listed.values()) == [
        f"{algebra.name}/~ (v=1 tried, clone complete; lower family 1, unrefuted 2)",
        f"{algebra.name}/~ (v=1 tried, clone complete; lower family 2, unrefuted 25)",
    ]
    # the minrelcong sweep reads the algebra's own certification, listed once
    v = smallest_relcong_check(kl1, algebra, Axiomatic(), arity_cap=1)
    assert v.outcome == "inconclusive"
    assert v.notes[0] == (
        "filter computations not certified exact on: "
        f"{algebra.name} (v=1 tried, clone complete; lower family 2, unrefuted 25)"
    )


@pytest.mark.parametrize(
    "names, cap",
    [
        (("box5", "alpha12", "ONE"), 3), (("box5", "all", "ONE"), 2), (("WK3^2", "qwk3", "PWK"), 2),
        (("WK3^2", "pwk-quasi", "PWK"), 2), (("K3^2", "all", "KL"), 2), (("M3", "all", "ORD"), 2),
    ],
    ids=lambda p: "/".join(p) if isinstance(p, tuple) else f"cap{p}",
)
def test_smallest_relcong_matches_the_quotient_route_where_all_certify(names, cap):
    algebra, logic = bi.algebra(names[0]), bi.logic(names[2])
    spec = Axiomatic() if names[1] == "all" else bi.class_spec(names[1])
    assert filters_certified(algebra, logic)
    assert all(filters_certified(quotient(algebra, t.partition)[0], logic) for t in all_congruences(algebra))
    got = smallest_relcong_check(logic, algebra, spec, arity_cap=cap).to_json()
    assert got == oracle_smallest_relcong_check(logic, algebra, spec, cap)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(random_algebras(), random_rules())
def test_smallest_relcong_matches_the_quotient_route_on_random_rule_logics(algebra_and_perm, rules):
    algebra, _ = algebra_and_perm
    logic = RulePresented(tuple(rules))
    got = smallest_relcong_check(logic, algebra, Axiomatic(), arity_cap=2).to_json()
    assert got == oracle_smallest_relcong_check(logic, algebra, Axiomatic(), 2)


def test_the_relative_sweep_spends_an_exact_budget(cold_contexts, one_logic, box5):
    alpha12 = bi.class_spec("alpha12")

    def cold(budget):
        logics._CONTEXTS.clear()
        logics._CLONES.clear()
        return smallest_relcong_check(one_logic, box5, alpha12, budget=budget)

    spent = Budget()
    want = cold(spent).to_json()
    assert cold(Budget(spent.spent)).to_json() == want
    with pytest.raises(SizeBudgetExceeded):
        cold(Budget(spent.spent - 1))


# --- dually Brouwerian -----------------------------------------------------------------


def test_trivial_algebra_brouwerian(one_logic, box5):
    t = trivial_algebra(box5.signature, "t")
    assert dually_brouwerian_check(one_logic, (t,)).passed


def test_m3_fails_bool4_passes(ord_logic, m3, bool4):
    v = dually_brouwerian_check(ord_logic, (m3,))
    assert v.failed
    assert len(v.witness["minimal_h"]) >= 2
    assert dually_brouwerian_check(ord_logic, (bool4,)).passed


# --- Leibniz probes ---------------------------------------------------------------------


def test_probe_trivial_algebra(one_logic, box5):
    t = trivial_algebra(box5.signature, "t")
    assert leibniz_probe(one_logic, (t,), "monotone").passed


def test_pwk_monotonicity_violation_on_the_square(pwk, wk3, wk3_sq):
    v = leibniz_probe(pwk, (wk3, wk3_sq.algebra), "monotone")
    assert v.failed
    w = v.witness
    # replay the witness: F inside G yet the congruences are not ordered
    from filtra.congruences import leibniz_congruence

    f, g = frozenset(w["filter_f"]), frozenset(w["filter_g"])
    algebra = wk3_sq.algebra if w["algebra"] == wk3_sq.algebra.name else wk3
    assert f <= g
    assert is_filter(algebra, f, pwk) and is_filter(algebra, g, pwk)
    assert not leibniz_congruence(algebra, f).refines(leibniz_congruence(algebra, g))


def test_pwk_monotone_on_wk3_alone(pwk, wk3):
    assert leibniz_probe(pwk, (wk3,), "monotone").passed


def test_injective_probe_runs(kl, k3):
    assert leibniz_probe(kl, (k3,), "injective").outcome in ("pass", "fail")


# --- counterexample search ----------------------------------------------------------------


def test_search_finds_pwk_factor_failure(pwk, wk3):
    v = search_counterexample(pwk, "fdc", [wk3], max_product_arity=2, include_subalgebras=False,
                              checker_kwargs={"generator_cap": 1})
    assert v.failed
    assert v.notes[-1] == "found at product arity 2"


def test_search_modal_global_candidates(kg):
    for k in (0, 1):
        fixture = bi.algebra(f"mchain{k + 2}")
        v = search_counterexample(
            kg, "edcf", [fixture], max_product_arity=1, include_subalgebras=False,
            checker_kwargs={"candidate": bi.candidate(f"modal-global-k{k}"), "variant": "global"},
        )
        assert v.failed


def test_search_empty_generators(pwk):
    assert search_counterexample(pwk, "fdc", []).outcome == "inconclusive"


def test_search_checks_its_property_and_arity_before_the_generators(pwk):
    with pytest.raises(InvalidSpec, match="no searchable property 'nope'"):
        search_counterexample(pwk, "nope", [])
    with pytest.raises(InvalidSpec, match="max_product_arity must be at least 2"):
        search_counterexample(pwk, "fdc", [], max_product_arity=1)


@pytest.mark.parametrize("prop, arity", [("fdc", 1), ("leibniz", 0), ("edcf", 0)])
def test_search_refuses_an_arity_range_that_runs_no_checker(pwk, wk3, prop, arity):
    # fdc forms its products itself, so its range starts at 2
    with pytest.raises(InvalidSpec, match="max_product_arity must be at least"):
        search_counterexample(pwk, prop, [wk3], max_product_arity=arity)


def test_search_without_a_fail_names_the_arity_it_reached(pwk, wk3):
    v = search_counterexample(pwk, "leibniz", [wk3], max_product_arity=2, include_subalgebras=False,
                              checker_kwargs={"mode": "injective"})
    assert v.outcome == "inconclusive"
    assert v.notes == ("no counterexample up to product arity 2",)


def test_an_inconclusive_search_keeps_the_verdict_of_its_highest_arity(kl, k3):
    # with one variable K3 x K3 and two of its subalgebras stay uncertified,
    # so the witness the checker finds there is inconclusive, not a fail
    kl1 = MatrixDetermined(kl.matrices, 1, "KL1")
    kwargs = {"candidate": bi.candidate("kl-global"), "variant": "global"}
    want = check_edcf(kl1, generate_testbed([k3], 2, True), **kwargs)
    got = search_counterexample(kl1, "edcf", [k3], 2, checker_kwargs=kwargs)
    assert want.outcome == got.outcome == "inconclusive" and want.witness["algebra"] == "K3xK3"
    assert got.witness == want.witness
    assert got.notes == want.notes + ("no counterexample up to product arity 2",)


@pytest.mark.parametrize("prop", ["leibniz", "brouwer"])
def test_a_search_reports_every_uncertified_algebra_of_its_testbed(kl, k3, prop):
    # each checker sweeps the whole testbed: all three uncertified algebras are
    # listed, and the K3 x K3 witness is inconclusive rather than dropped
    kl1 = MatrixDetermined(kl.matrices, 1, "KL1")
    v = search_counterexample(kl1, prop, [k3], 2)
    assert v.outcome == "inconclusive" and v.witness["algebra"] == "K3xK3"
    listed, *rest = v.notes
    names = ["K3xK3 (", "K3xK3|{0,1,2,6,7,8} (", "K3xK3|{0,1,3,4,5,7,8} ("]
    assert [listed.count(name) for name in names] == [1, 1, 1]
    assert rest == ["witness read an uncertified algebra", "no counterexample up to product arity 2"]


@pytest.mark.parametrize(
    "prop, inputs, arity, subalgebras, kwargs, direct",
    [
        ("edcf", lambda: (bi.logic("KG"), [bi.algebra("mchain2")]), 1, False,
         {"candidate": bi.candidate("modal-global-k0"), "variant": "global"},
         lambda logic, bed, arity, kw: check_edcf(logic, bed, **kw)),
        ("absfep", lambda: (lambda big, logic: (logic, [big]))(*synthetic_extension_failure()), 1, False,
         {"arity_cap": 1},
         lambda logic, bed, arity, kw: absolute_fep_check(logic, bed, **kw)),
        ("fep", lambda: (bi.logic("ORD"), [bi.algebra("BOOL4"), bi.algebra("M3")]), 1, True, {},
         lambda logic, bed, arity, kw: fep_check(logic, bed)),
        ("leibniz", lambda: (bi.logic("PWK"), [bi.algebra("WK3")]), 2, False, {"mode": "monotone"},
         lambda logic, bed, arity, kw: leibniz_probe(logic, bed, **kw)),
        ("leibniz", lambda: (bi.logic("ORD"), [bi.algebra("K3")]), 1, False, {"mode": "injective"},
         lambda logic, bed, arity, kw: leibniz_probe(logic, bed, **kw)),
        ("brouwer", lambda: (bi.logic("ORD"), [bi.algebra("BOOL4"), bi.algebra("M3")]), 1, False, {},
         lambda logic, bed, arity, kw: dually_brouwerian_check(logic, bed)),
        ("fdc", lambda: (bi.logic("PWK"), [bi.algebra("WK3")]), 2, False, {"generator_cap": 1},
         lambda logic, bed, arity, kw: factor_determined_check(logic, bed, max_product_arity=arity, **kw)),
    ],
    ids=["edcf", "absfep", "fep", "leibniz", "leibniz-injective", "brouwer", "fdc"],
)
def test_search_reports_its_checkers_first_fail(prop, inputs, arity, subalgebras, kwargs, direct):
    logic, generators = inputs()
    # fdc forms its products itself and grows its own arity over the generators
    bed = generate_testbed(generators, 1 if prop == "fdc" else arity, subalgebras)
    want = direct(logic, bed, arity, kwargs)
    got = search_counterexample(
        logic, prop, generators, max_product_arity=arity, include_subalgebras=subalgebras,
        checker_kwargs=kwargs,
    )
    assert want.failed
    assert (got.outcome, got.witness) == (want.outcome, want.witness)
    assert got.notes == want.notes + (f"found at product arity {arity}",)


# --- cross-checker consistency (easy directions) ---------------------------------------------


def test_local_edcf_implies_absolute_fep(pwk):
    bed = bi.testbed("wk3-isp")
    if check_edcf(pwk, bed, bi.candidate("pwk-local"), "local").passed:
        assert absolute_fep_check(pwk, bed, arity_cap=2).passed


def test_global_edcf_implies_factor_determined(kl, lp, k3):
    bed = (k3,)
    for logic, cand in [(kl, "kl-global"), (lp, "lp-global")]:
        if check_edcf(logic, bi.testbed("k3-isp"), bi.candidate(cand), "global").passed:
            assert factor_determined_check(logic, bed, generator_cap=1).passed


# --- testbed monotonicity -------------------------------------------------------------------


@pytest.mark.parametrize(
    "logic, bed, check, outcomes",
    [
        ("LP", "k3-isp", lambda logic, bed: check_edcf(logic, bed, bi.candidate("pwk-local")), {"pass", "fail"}),
        ("PWK", "wk3-isp", lambda logic, bed: check_edcf(logic, bed, bi.candidate("pwk-local")), {"pass"}),
        ("KL", "k3-isp", lambda logic, bed: absolute_fep_check(logic, bed, arity_cap=2), {"pass"}),
        ("PWK", "wk3-isp", lambda logic, bed: absolute_fep_check(logic, bed, arity_cap=2), {"pass"}),
        ("KL", "k3-isp", fep_check, {"pass", "fail"}),
        ("PWK", "wk3-isp", fep_check, {"pass"}),
        ("ORD", "k3-isp", leibniz_probe, {"pass", "fail"}),
        ("PWK", "wk3-isp", leibniz_probe, {"pass", "fail"}),
    ],
    ids=["edcf-LP", "edcf-PWK", "absfep-KL", "absfep-PWK", "fep-KL", "fep-PWK", "leibniz-ORD", "leibniz-PWK"],
)
def test_per_algebra_verdicts_are_monotone_in_the_testbed(logic, bed, check, outcomes):
    # From seeded subsets of the testbed, some drawn among the algebras that
    # pass alone: a fail stays a fail with any one algebra added, a pass stays
    # a pass with any one algebra removed.  An inconclusive outcome on either
    # side is skipped, as certification decides it and not the property.
    # Neither testbed makes absfep fail, nor edcf or fep under PWK, so those
    # cases test the pass side only.
    logic, algebras = bi.logic(logic), bi.testbed(bed)
    n = len(algebras)
    rng = random.Random(n)

    def outcome(kept):
        return check(logic, tuple(algebras[i] for i in sorted(kept))).outcome

    passing = [i for i in range(n) if outcome({i}) == "pass"]
    starts = [rng.sample(range(n), rng.randint(2, n - 1)) for _ in range(4)]
    starts += [rng.sample(passing, rng.randint(2, len(passing))) for _ in range(4)]
    compared = set()
    for kept in map(set, starts):
        first = outcome(kept)
        if first == "fail":
            neighbours = [kept | {i} for i in range(n) if i not in kept]
        elif first == "pass":
            neighbours = [kept - {i} for i in kept]
        else:
            continue
        for other in neighbours:
            second = outcome(other)
            if second != "inconclusive":
                assert second == first, (sorted(kept), sorted(other))
                compared.add(first)
    assert compared == outcomes


# --- two presentations of one logic ---------------------------------------------------------


def test_rule_and_matrix_presentations_of_pwk_agree(wk3, pwk):
    # PWK is the logic of the matrix <WK3, {1, half}> (Bonzio, Gil-Ferez, Paoli
    # & Peruzzi, Studia Logica 2017).  On every wk3-isp algebra and on a seeded
    # sample of the arity-3 WK3 testbed, both presentations give the same
    # filters, certified on the matrix side, and the same local EDCF and
    # absolute FEP outcomes, algebra by algebra and over wk3-isp at once.
    matrix = MatrixDetermined((Matrix(wk3, frozenset(map(wk3.element_index, ("1", "half")))),), name="PWK-matrix")
    candidate = bi.candidate("pwk-local")
    checkers = (lambda logic, bed: check_edcf(logic, bed, candidate, "local"), absolute_fep_check)
    isp = bi.testbed("wk3-isp")
    sample = random.Random(3).sample(generate_testbed([wk3], 3, include_subalgebras=True), 8)
    for algebra in isp + tuple(sample):
        assert [f.members for f in all_filters(algebra, matrix)] == [f.members for f in all_filters(algebra, pwk)]
        assert filters_certified(algebra, matrix)
        for check in checkers:
            assert check(matrix, (algebra,)).outcome == check(pwk, (algebra,)).outcome
    for check in checkers:
        assert check(matrix, isp).outcome == check(pwk, isp).outcome


# --- relabelling the carrier -----------------------------------------------------------------

RELABELLED_CHECKERS = {
    "absfep": absolute_fep_check,
    "brouwer": dually_brouwerian_check,
    "fdc": factor_determined_check,
    "fep": fep_check,
    "leibniz-monotone": functools.partial(leibniz_probe, mode="monotone"),
    "leibniz-injective": functools.partial(leibniz_probe, mode="injective"),
}


@pytest.mark.parametrize(
    ("logic", "bed", "checker"),
    [
        ("ORD", "lattices", c) for c in ("fep", "brouwer", "leibniz-monotone", "leibniz-injective", "absfep")
    ] + [
        ("PWK", "wk3-isp", c) for c in ("absfep", "fdc", "fep", "leibniz-monotone", "leibniz-injective")
    ] + [
        ("KG", "modal-chains", c) for c in ("absfep", "fep", "leibniz-monotone", "leibniz-injective")
    ],
)
def test_checker_outcomes_survive_relabelling_the_carrier(logic, bed, checker):
    # Each testbed algebra is relabelled by a permutation of its carrier drawn
    # from seeds of this test.  Only outcomes are compared: a sweep runs in
    # the order of the elements, so the first witness found may differ.
    logic, algebras, check = bi.logic(logic), bi.testbed(bed), RELABELLED_CHECKERS[checker]
    want = check(logic, algebras).outcome
    for seed in range(3):
        rng = random.Random(seed)
        moved = tuple(relabel(a, rng.sample(range(a.size), a.size)) for a in algebras)
        assert check(logic, moved).outcome == want, seed


# --- one certification fold -----------------------------------------------------------------


def test_verdicts_on_filters_are_decided_only_in_resolve():
    # every checker that reads filters folds certification through _resolve;
    # compare_candidates reads no filters, and the search rewraps a verdict
    makers = set()
    for top in ast.parse(Path(checks.__file__).read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and "Verdict" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                makers.add(getattr(top, "name", "<module>"))
    assert makers == {"_resolve", "compare_candidates", "search_counterexample"}


def test_leibniz_probe_refuses_an_unknown_mode(one_logic, box5):
    with pytest.raises(InvalidSpec) as refused:
        leibniz_probe(one_logic, (box5,), "nope")
    assert str(refused.value) == "unknown probe mode 'nope'"
