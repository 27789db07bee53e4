import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    MATRIX_SIGNATURES,
    as_tuples,
    oracle_build_clone,
    oracle_compatible,
    oracle_closed_sets,
    oracle_fg_relative,
    oracle_least_closed,
    oracle_op,
    oracle_subuniverses,
    oracle_unrefuted,
    random_algebras,
    random_clone_algebras,
    quotient,
    random_rules,
    relabel,
)

from filtra import builtins as bi
from filtra import logics
from filtra.algebras import (
    DEFAULT_BUDGET,
    Budget,
    FiniteAlgebra,
    Matrix,
    _elements,
    direct_product,
    enumerate_homomorphisms,
    enumerate_subuniverses,
    induced_subalgebra,
)
from filtra.congruences import Congruence, all_congruences
from filtra.errors import InvalidSpec, SizeBudgetExceeded
from filtra.logics import (
    MatrixDetermined,
    _build_clone,
    _context,
    _evaluate_clone,
    _homomorphic_lower,
    RulePresented,
    all_filters,
    certification_detail,
    fg,
    fg_relative,
    fg_trace,
    filters_certified,
    is_filter,
    is_filter_certain,
)
from filtra.terms import Rule, Signature, parse_term


def rule(sig, premises, conclusion):
    return Rule(tuple(parse_term(p, sig) for p in premises), parse_term(conclusion, sig))


# --- rule validity ----------------------------------------------------------
# a rule is valid in a matrix iff the designated set is a filter of the
# one-rule logic


def test_detachment_valid_in_kleene_matrix(k3):
    m = Matrix(k3, frozenset({2}))
    r = rule(k3.signature, ["x", "(and x (or (neg x) y))"], "y")
    assert is_filter(m.algebra, m.designated, RulePresented((r,)))


def test_identity_rule_always_valid(k3, wk3):
    for algebra, designated in [(k3, {2}), (wk3, {1, 2})]:
        m = Matrix(algebra, frozenset(designated))
        assert is_filter(m.algebra, m.designated, RulePresented((rule(algebra.signature, ["x"], "x"),)))


def test_negation_introduction_invalid(k3):
    m = Matrix(k3, frozenset({2}))
    r = rule(k3.signature, ["x"], "(neg x)")
    # oracle: sweep the valuations by hand
    broken = any(
        e in m.designated and oracle_op(k3, "neg", e) not in m.designated for e in range(3)
    )
    assert broken
    assert not is_filter(m.algebra, m.designated, RulePresented((r,)))


# --- filterhood --------------------------------------------------------------


def test_pwk_filters_on_wk3(wk3, pwk):
    assert is_filter(wk3, {1, 2}, pwk)
    assert not is_filter(wk3, {1}, pwk)  # misses half = half | ~half
    assert is_filter(wk3, {0, 1, 2}, pwk)


def test_total_filter_for_every_logic(wk3, k3, pwk, kl):
    assert is_filter(wk3, range(3), pwk)
    assert is_filter(k3, range(3), kl)


def test_kleene_matrix_filters_exact(k3, kl):
    families = [sorted(f.members) for f in all_filters(k3, kl)]
    assert families == [[2], [0, 1, 2]]
    assert filters_certified(k3, kl)
    assert is_filter(k3, {2}, kl) and is_filter_certain(k3, {2}, kl)
    assert not is_filter(k3, {1, 2}, kl)


def test_lp_matrix_filters_exact(k3, lp):
    families = [sorted(f.members) for f in all_filters(k3, lp)]
    assert families == [[1, 2], [0, 1, 2]]
    assert filters_certified(k3, lp)


def test_pwk_filter_lattice_on_wk3(wk3, pwk):
    families = [sorted(f.members) for f in all_filters(wk3, pwk)]
    assert families == [[1, 2], [0, 1, 2]]


def test_logic_without_rules_accepts_all_subsets(box5, id_logic):
    assert len(all_filters(box5, id_logic)) == 2**box5.size


def test_axiom_logic_filters_contain_the_constant(box5, one_logic):
    families = [set(f.members) for f in all_filters(box5, one_logic)]
    assert all(1 in f for f in families)
    assert len(families) == 2 ** (box5.size - 1)


# --- generation ---------------------------------------------------------------


def test_fg_of_carrier(wk3, pwk):
    assert fg(wk3, range(3), pwk).members == frozenset(range(3))


def test_fg_empty_pwk(wk3, pwk):
    assert sorted(fg(wk3, (), pwk).members) == [1, 2]


def test_fg_trace_on_mv_chain(luk):
    l4 = bi.algebra("L4")
    stages = fg_trace(l4, [2], luk)  # two thirds
    assert stages[0] == frozenset({2})
    assert stages[-1] == frozenset(range(4))
    # successive powers 2/3, 1/3, 0 enter along the iteration
    assert any(1 in s for s in stages)
    assert stages[-1] >= {0, 1, 2, 3}


def test_fg_is_a_closure_operator(wk3, k3, pwk, kl, box5, one_logic):
    cases = [(wk3, pwk), (k3, kl), (box5, one_logic)]
    for algebra, logic in cases:
        elements = list(range(algebra.size))
        subsets = [
            frozenset(c)
            for r in range(3)
            for c in itertools.combinations(elements, r)
        ]
        for x in subsets:
            closed = fg(algebra, x, logic).members
            assert x <= closed
            assert fg(algebra, closed, logic).members == closed
            for y in subsets:
                if x <= y:
                    assert closed <= fg(algebra, y, logic).members


def test_fg_equals_intersection_of_filters(wk3, k3, pwk, kl, lp, one_logic, box5):
    for algebra, logic in [(wk3, pwk), (k3, kl), (k3, lp), (box5, one_logic)]:
        families = [f.members for f in all_filters(algebra, logic)]
        for r in range(3):
            for xs in itertools.combinations(range(algebra.size), r):
                x = frozenset(xs)
                inter = frozenset(range(algebra.size))
                for fam in families:
                    if x <= fam:
                        inter &= fam
                assert fg(algebra, x, logic).members == inter


def test_rule_and_matrix_presentations_agree(box5, one_logic):
    # the axiom logic of the constant, matrix-determined by every model of it
    # on the same algebra: both presentations must produce identical filters
    matrices = tuple(
        Matrix(box5, frozenset({1}) | frozenset(extra))
        for r in range(box5.size)
        for extra in itertools.combinations([0, 2, 3, 4], r)
    )
    matrix_logic = MatrixDetermined(matrices, name="ONE-matrix")
    assert filters_certified(box5, matrix_logic)
    assert [f.members for f in all_filters(box5, matrix_logic)] == [
        f.members for f in all_filters(box5, one_logic)
    ]
    for r in range(3):
        for xs in itertools.combinations(range(box5.size), r):
            by_rules = fg(box5, frozenset(xs), one_logic).members
            by_matrices = fg(box5, frozenset(xs), matrix_logic).members
            assert by_rules == by_matrices


def test_theoremless_logic_generates_empty(wk3, id_logic):
    assert fg(wk3, (), id_logic).members == frozenset()


# --- homomorphic preimages and products --------------------------------------


def test_filters_pull_back_along_homomorphisms(wk3, pwk, wk3_sq):
    square = wk3_sq.algebra
    filters_on_wk3 = [f.members for f in all_filters(wk3, pwk)]
    for h in enumerate_homomorphisms(square, wk3):
        for fam in filters_on_wk3:
            preimage = frozenset(a for a in range(square.size) if h[a] in fam)
            assert is_filter(square, preimage, pwk)


def test_fg_on_products_within_factor_product(wk3, k3, pwk, kl):
    for base, logic in [(wk3, pwk), (k3, kl)]:
        prod = direct_product([base, base])
        for x in range(prod.algebra.size):
            on_product = fg(prod.algebra, {x}, logic).members
            coords = prod.to_tuple(x)
            factor_filters = [fg(base, {coords[i]}, logic).members for i in range(2)]
            boxed = {
                e
                for e in range(prod.algebra.size)
                if all(prod.to_tuple(e)[i] in factor_filters[i] for i in range(2))
            }
            assert on_product <= boxed


# --- relative generation ------------------------------------------------------


def test_fg_relative_identity(wk3, pwk):
    delta = Congruence.identity(3)
    for r in range(3):
        for xs in itertools.combinations(range(3), r):
            assert fg_relative(wk3, delta, xs, pwk).members == fg(wk3, frozenset(xs), pwk).members


def test_fg_relative_total(wk3, pwk, id_logic):
    nabla = Congruence.total(3)
    # with a theorem the one-element quotient pulls back to the carrier
    assert fg_relative(wk3, nabla, (), pwk).members == frozenset(range(3))
    # without theorems the empty filter pulls back to the empty set
    assert fg_relative(wk3, nabla, (), id_logic).members == frozenset()


def test_fg_relative_box5(box5, one_logic):
    theta1 = Congruence.from_blocks([[0, 1], [2, 4], [3]], 5)
    grown = fg_relative(box5, theta1, [2, 3], one_logic).members
    assert 4 in grown  # b shares a block with a1


def test_fg_relative_is_least_compatible_filter(box5, one_logic, wk3, pwk):
    for algebra, logic in [(box5, one_logic), (wk3, pwk)]:
        families = [f.members for f in all_filters(algebra, logic)]
        for theta in all_congruences(algebra):
            for r in range(3):
                for xs in itertools.combinations(range(algebra.size), r):
                    got = fg_relative(algebra, theta, xs, logic).members
                    compatible = [
                        fam
                        for fam in families
                        if frozenset(xs) <= fam and oracle_compatible(theta.partition, fam)
                    ]
                    least = frozenset(range(algebra.size))
                    for fam in compatible:
                        least &= fam
                    assert got == least


def test_fg_relative_monotone_in_theta(box5, one_logic):
    chain = [
        Congruence.identity(5),
        Congruence.from_blocks([[0, 1], [2], [3], [4]], 5),
        Congruence.from_blocks([[0, 1], [2, 4], [3]], 5),
        Congruence.total(5),
    ]
    for small, big in zip(chain, chain[1:]):
        assert small.refines(big)
        for xs in [(), (2,), (2, 3)]:
            assert (
                fg_relative(box5, small, xs, one_logic).members
                <= fg_relative(box5, big, xs, one_logic).members
            )


# rule and matrix logics, each on an algebra that certifies
RELATIVE_PAIRS = (
    ("box5", "ONE"), ("WK3^2", "PWK"), ("K3^2", "KL"), ("K3^2", "LP"),
    ("DM4", "KL"), ("mchain3", "KG"), ("L4", "LUK"), ("M3", "ORD"),
)


def _assert_fg_relative_is_the_pull_back(algebra, logic, thetas):
    for theta in thetas:
        for r in range(3):
            for xs in itertools.combinations(range(algebra.size), r):
                want = oracle_fg_relative(algebra, theta, xs, logic)
                assert fg_relative(algebra, theta, xs, logic).members == want, (theta, xs)


@pytest.mark.parametrize("names", RELATIVE_PAIRS, ids="/".join)
def test_fg_relative_is_the_pull_back_of_the_quotient_filter(names):
    algebra, logic = bi.algebra(names[0]), bi.logic(names[1])
    assert filters_certified(algebra, logic)
    _assert_fg_relative_is_the_pull_back(algebra, logic, all_congruences(algebra))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(random_algebras(), random_rules())
def test_fg_relative_is_the_pull_back_on_random_rule_logics(algebra_and_perm, rules):
    algebra, _ = algebra_and_perm
    logic = RulePresented(tuple(rules))
    _assert_fg_relative_is_the_pull_back(algebra, logic, all_congruences(algebra))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(random_clone_algebras(MATRIX_SIGNATURES, (2, 2)), st.data())
def test_fg_relative_is_the_pull_back_on_random_matrix_logics(algebras, data):
    # exact on both sides once the algebra and the quotient certify; random
    # algebras are mostly simple, so a product of two small ones is drawn too,
    # for congruences other than the identity and the total one
    matrix_algebra, target = algebras
    designated = data.draw(st.frozensets(st.integers(0, matrix_algebra.size - 1)))
    logic = MatrixDetermined((Matrix(matrix_algebra, designated),), 2)
    factors = data.draw(random_clone_algebras((matrix_algebra.signature,), (2, 2), (2, 3)))
    for algebra in (target, direct_product(factors).algebra):
        if filters_certified(algebra, logic):
            thetas = [
                t for t in all_congruences(algebra)
                if filters_certified(quotient(algebra, t.partition)[0], logic)
            ]
            _assert_fg_relative_is_the_pull_back(algebra, logic, thetas)


# --- certification on the shipped testbeds ------------------------------------


def test_matrix_filters_certified_across_k3_family(k3, kl, lp):
    square = direct_product([k3, k3]).algebra
    targets = [k3, square]
    for sub in enumerate_subuniverses(k3):
        targets.append(induced_subalgebra(k3, sub)[0])
    for algebra in targets:
        assert filters_certified(algebra, kl), algebra.name
        assert filters_certified(algebra, lp), algebra.name


def test_kl_filters_on_the_square_are_the_projection_preimages(k3, kl):
    square = direct_product([k3, k3])
    families = {f.members for f in all_filters(square.algebra, kl)}
    top = frozenset(range(9))
    pi1 = frozenset(e for e in range(9) if square.to_tuple(e)[0] == 2)
    pi2 = frozenset(e for e in range(9) if square.to_tuple(e)[1] == 2)
    assert families == {top, pi1, pi2, pi1 & pi2}


# --- clone selection ------------------------------------------------------------


@pytest.mark.parametrize("nvars", [1, 2])
def test_clone_read_off_the_matrix_dag_equals_the_joint_build(k3, nvars):
    shared = _build_clone((k3,), nvars, Budget())
    for algebra in bi.testbed("k3-isp"):
        joint = _build_clone((algebra, k3), nvars, Budget())
        evaluated = _evaluate_clone(algebra, shared, Budget())
        assert evaluated.tables == joint.tables, algebra.name
        assert evaluated.nodes == joint.nodes, algebra.name
        assert evaluated.complete == joint.complete, algebra.name


def test_reading_a_clone_off_the_dag_spends_a_step_per_node_and_lane(k3):
    shared = _build_clone((k3,), 2, Budget())
    # 81 and 729 valuations of two variables: one and three lanes of 256
    for algebra, lanes in ((bi.algebra("K3^2"), 1), (direct_product([k3, k3, k3]).algebra, 3)):
        budget = Budget()
        _evaluate_clone(algebra, shared, budget)
        assert budget.spent == lanes * len(shared.nodes)


def test_the_lower_family_spends_the_callers_budget_on_its_searches(k3, kl):
    k3_sq = bi.algebra("K3^2")
    searched, budget = Budget(), Budget()
    enumerate_homomorphisms(k3_sq, k3, searched)
    homs, lower = _homomorphic_lower(k3_sq, kl, budget)
    preimages = {sum(1 << a for a, v in enumerate(h) if v in kl.matrices[0].designated) for h in homs}
    # and one step per meet: each member of the family meets each preimage once
    assert searched.spent > 0 and budget.spent == searched.spent + len(lower) * len(preimages)
    closed = {(1 << k3_sq.size) - 1} | preimages  # the family, closed under every pairwise meet
    while not closed >= (meets := {f & g for f in closed for g in closed}):
        closed |= meets
    assert lower == closed


def test_dm4_is_outside_isp_of_k3_and_built_jointly(k3, kl, lp):
    dm4 = bi.algebra("DM4")
    homs, _ = _homomorphic_lower(dm4, kl, Budget())
    assert homs == []  # nothing separates points, so the joint path is taken
    for logic in (kl, lp):
        ctx = _context(dm4, logic, Budget())
        joint = _build_clone((dm4, k3), ctx.clone.nvars, Budget())
        assert ctx.clone.tables == joint.tables
    # DM4 breaks identities of K3, so K3's DAG would merge distinct terms
    assert _evaluate_clone(dm4, _build_clone((k3,), 2, Budget()), Budget()).tables != joint.tables


# filter families on k3-isp and DM4 before the clone's variable count was
# chosen bottom-up; every one is certified and every logic has a theorem
PINNED_FAMILIES = {
    "KL": {
        "K3": [[2], [0, 1, 2]],
        "K3xK3": [[8], [2, 5, 8], [6, 7, 8], list(range(9))],
        "K3|{0,2}": [[1], [0, 1]],
        "K3xK3|{0,1,7,8}": [[3], [2, 3], [0, 1, 2, 3]],
        "K3xK3|{0,2,6,8}": [[3], [1, 3], [2, 3], [0, 1, 2, 3]],
        "K3xK3|{0,1,4,7,8}": [[4], [3, 4], [0, 1, 2, 3, 4]],
        "K3xK3|{0,1,2,6,7,8}": [[5], [2, 5], [3, 4, 5], list(range(6))],
        "K3xK3|{0,1,3,4,5,7,8}": [[6], [4, 6], [5, 6], list(range(7))],
        "DM4": [[0, 1, 2, 3]],
    },
    "LP": {
        "K3": [[1, 2], [0, 1, 2]],
        "K3xK3": [[4, 5, 7, 8], [1, 2, 4, 5, 7, 8], [3, 4, 5, 6, 7, 8], list(range(9))],
        "K3|{0,2}": [[1], [0, 1]],
        "K3xK3|{0,1,7,8}": [[2, 3], [1, 2, 3], [0, 1, 2, 3]],
        "K3xK3|{0,2,6,8}": [[3], [1, 3], [2, 3], [0, 1, 2, 3]],
        "K3xK3|{0,1,4,7,8}": [[2, 3, 4], [1, 2, 3, 4], [0, 1, 2, 3, 4]],
        "K3xK3|{0,1,2,6,7,8}": [[4, 5], [3, 4, 5], [1, 2, 4, 5], list(range(6))],
        "K3xK3|{0,1,3,4,5,7,8}": [
            [3, 4, 5, 6], [1, 3, 4, 5, 6], [2, 3, 4, 5, 6], list(range(7)),
        ],
        "DM4": [[0, 1, 2, 3]],
    },
}


def test_kl_lp_filters_pinned_on_k3_isp_and_dm4(kl, lp):
    for name, logic in (("KL", kl), ("LP", lp)):
        for algebra in list(bi.testbed("k3-isp")) + [bi.algebra("DM4")]:
            families = [sorted(f.members) for f in all_filters(algebra, logic)]
            assert families == PINNED_FAMILIES[name][algebra.name], (name, algebra.name)
            assert filters_certified(algebra, logic), (name, algebra.name)


# --- contexts, budgets and NextClosure -----------------------------------------


def test_a_context_build_spends_the_callers_budget(cold_contexts):
    mchain4, kg = bi.algebra("mchain4"), bi.logic("KG")
    with pytest.raises(SizeBudgetExceeded):
        all_filters(mchain4, kg, Budget(50))
    # the failed build left nothing behind, and a warm answer costs nothing
    assert len(all_filters(mchain4, kg)) == 5
    assert fg(mchain4, {1}, kg, Budget(0)).members == frozenset(range(16))


def test_a_cold_fg_spends_its_steps_and_a_warm_one_nothing(cold_contexts):
    # 256 elements and tens of thousands of rule instances: the steps of the
    # closure are priced by the entries they visit, beyond the build
    square, kg = bi.algebra("mchain4^2", Budget()), bi.logic("KG")

    def cold(budget):
        logics._CONTEXTS.clear()
        return fg(square, (1,), kg, budget)

    built = Budget()
    _context(square, kg, built)
    spent = Budget()
    want = cold(spent)
    assert spent.spent > built.spent
    assert cold(Budget(spent.spent)) == want
    with pytest.raises(SizeBudgetExceeded):
        cold(Budget(spent.spent - 1))
    cold(Budget())
    assert fg(square, (1,), kg, Budget(0)) == want


def test_rule_instances_spend_table_widths_and_points_and_fg_nothing_more(cold_contexts, k3):
    axiom = RulePresented((rule(k3.signature, [], "x"),))
    budget = Budget()
    fg(k3, (), axiom, budget)
    assert budget.spent == 3 + 3  # the table of x, then one step per valuation
    fg(k3, (0,), axiom, budget)
    assert budget.spent == 6


def test_equal_algebras_built_apart_share_one_context(kl):
    assert _context(bi.algebra("K3^2"), kl, Budget()) is _context(bi.algebra("K3^2"), kl, Budget())


def test_rule_logic_filters_on_mchain5_without_a_subset_sweep(cold_contexts, kg):
    mchain5 = bi.algebra("mchain5")
    filters = all_filters(mchain5, kg)
    assert len(filters) == 6
    assert all(is_filter(mchain5, f.members, kg) for f in filters)
    assert filters_certified(mchain5, kg)


def _answer_every_subset(algebra, logic, closed):
    """is_filter, fg and fg_trace on every subset against the closed sets: the
    trace iterates the consequence step and rises strictly to the least closed
    superset, which fg returns."""
    for r in range(algebra.size + 1):
        for subset in itertools.combinations(range(algebra.size), r):
            assert is_filter(algebra, subset, logic) == (frozenset(subset) in closed)
            least = oracle_least_closed(closed, subset)
            assert fg(algebra, subset, logic).members == least
            stages = fg_trace(algebra, subset, logic)
            assert stages[0] == frozenset(subset) and stages[-1] == least
            assert all(a < b for a, b in zip(stages, stages[1:]))


def _answer_before_and_after_the_family(algebra, logic, closed):
    """Every subset on the context as it stands (for a rule logic, the step
    path), then with the family enumerated and fg's memo cleared (the family
    path)."""
    _answer_every_subset(algebra, logic, closed)
    assert [f.members for f in all_filters(algebra, logic)] == closed
    _context(algebra, logic, Budget()).memo.clear()
    _answer_every_subset(algebra, logic, closed)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(random_algebras(), random_rules())
def test_random_rule_logics_match_the_closure_oracle(algebra_and_perm, rules):
    algebra, perm = algebra_and_perm
    logic = RulePresented(tuple(rules))
    closed = oracle_closed_sets(algebra, logic.rules)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logics, "_CONTEXTS", {})
        _answer_before_and_after_the_family(algebra, logic, closed)
    moved = {f.members for f in all_filters(relabel(algebra, perm), logic)}
    assert moved == {frozenset(perm[x] for x in s) for s in closed}


# --- the clone by columns, and NextClosure for matrix logics ---------------------


def _same_clone(got, want):
    assert got.nodes == want.nodes
    assert as_tuples(got.tables) == as_tuples(want.tables)
    assert got.complete == want.complete


def _built_or_raised(build, algebras, nvars, limit):
    """The clone `build` returns under Budget(limit), or None when it runs
    out, with the steps it spent."""
    budget = Budget(limit)
    try:
        return build(algebras, nvars, budget), budget.spent
    except SizeBudgetExceeded:
        return None, budget.spent


def _same_build(algebras, nvars, limit):
    """Both clone builds raise, or return equal clones; either way they spend
    alike."""
    got, spent = _built_or_raised(_build_clone, algebras, nvars, limit)
    want, oracle_spent = _built_or_raised(oracle_build_clone, algebras, nvars, limit)
    assert spent == oracle_spent
    assert (got is None) == (want is None)
    if got is not None:
        _same_clone(got, want)
    return got


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    random_clone_algebras(),
    st.sampled_from([3, 7, 20, 3000]),
    st.sampled_from([5, 40, 300, 1000, 3000]),
    st.integers(0, 31),
)
def test_clone_by_columns_and_subuniverses_match_the_oracles(algebras, cap, limit, extra):
    # the budget may run out mid-block (by `extra`), in the same block the
    # element cap is reached, or not at all
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logics, "DEFAULT_CLONE_ELEMENT_CAP", cap)
        for nvars in (1, 2):
            _same_build(algebras, nvars, limit + extra)
    for algebra in algebras:
        assert enumerate_subuniverses(algebra) == oracle_subuniverses(algebra)


@pytest.mark.parametrize("names", [("K3",), ("DM4",), ("K3xDM4", "K3")])
def test_builtin_clones_at_the_default_caps_match_the_oracle(names):
    k3, dm4 = bi.algebra("K3"), bi.algebra("DM4")
    named = {"K3": k3, "DM4": dm4, "K3xDM4": direct_product([k3, dm4]).algebra}
    algebras = tuple(named[n] for n in names)
    for nvars in (1, 2):
        assert _same_build(algebras, nvars, DEFAULT_BUDGET).complete


def test_clone_of_an_algebra_wider_than_a_byte_matches_the_oracle():
    n = 300
    signature = Signature((("f", 1), ("g", 2)))
    tables = {
        "f": [(x + 1) % n for x in range(n)],
        "g": [min(x, y) for x in range(n) for y in range(n)],
    }
    wide = FiniteAlgebra.make("wide", n, signature, tables)
    small = FiniteAlgebra.make("small", 2, signature, {"f": [1, 0], "g": [0, 0, 0, 1]})
    # 302 positions are two lanes a tuple
    assert _same_build((wide, small), 1, 2000) is None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logics, "DEFAULT_CLONE_ELEMENT_CAP", 40)
        assert not _same_build((wide, small), 1, 20_000).complete  # the cap ended it


MATRIX_LOGICS = [
    MatrixDetermined(bi.logic(name).matrices, bound, f"{name}{bound or ''}")
    for name in ("KL", "LP")
    for bound in (None, 1, 2)
]


def _matrix_targets():
    k3, dm4 = bi.algebra("K3"), bi.algebra("DM4")
    small = [bi.algebra(n) for n in bi.algebra_names() if bi.algebra(n).signature == k3.signature]
    squares = [direct_product([a, a]).algebra for a in small]
    return small + squares + [direct_product([k3, dm4]).algebra]


@pytest.mark.parametrize("logic", MATRIX_LOGICS, ids=lambda logic: logic.name)
@pytest.mark.parametrize("algebra", _matrix_targets(), ids=lambda algebra: algebra.name)
def test_matrix_family_equals_the_unrefuted_sweep(cold_contexts, algebra, logic):
    ctx = _context(algebra, logic, Budget())
    unrefuted = oracle_unrefuted(algebra, logic, ctx.clone)
    assert [sum(1 << a for a in f.members) for f in all_filters(algebra, logic)] == unrefuted
    exact_by_bound = ctx.clone.complete and ctx.clone.nvars == algebra.size
    assert filters_certified(algebra, logic) == (exact_by_bound or set(unrefuted) == set(ctx.lower))
    assert certification_detail(algebra, logic)["unrefuted"] == len(unrefuted)
    for ms in range(1 << algebra.size) if algebra.size <= 9 else ():
        members = [a for a in range(algebra.size) if ms >> a & 1]
        assert is_filter(algebra, members, logic) == (ms in unrefuted)


def test_kl_filters_on_k3_cubed_are_certified(cold_contexts, k3, kl):
    k3_cubed = direct_product([k3, k3, k3]).algebra
    filters = all_filters(k3_cubed, kl)
    assert len(filters) == 8
    assert filters_certified(k3_cubed, kl)


@pytest.mark.parametrize("logic_name", ["KL", "LP"])
@pytest.mark.parametrize("names, filters", [(("DM4", "DM4"), 1), (("K3", "DM4"), 2)], ids=["DM4xDM4", "K3xDM4"])
def test_products_with_dm4_certify_at_two_variables(cold_contexts, names, filters, logic_name):
    # outside ISP of K3, so their v = 2 clone of 168 elements is built jointly
    algebra = direct_product([bi.algebra(n) for n in names]).algebra
    logic = bi.logic(logic_name)
    assert filters_certified(algebra, logic)
    detail = certification_detail(algebra, logic)
    assert (detail["nvars_tried"], detail["clone_complete"]) == (2, True)
    assert len(_context(algebra, logic, Budget()).clone.nodes) == 168
    family = [f.members for f in all_filters(algebra, logic)]
    assert len(family) == filters
    perm = list(range(algebra.size))
    random.Random(5).shuffle(perm)
    moved = relabel(algebra, perm)
    assert filters_certified(moved, logic)
    assert {f.members for f in all_filters(moved, logic)} == {frozenset(perm[x] for x in s) for s in family}


def test_a_foreign_signature_is_refused_naming_both_algebras(cold_contexts, box5, kl):
    # the first homomorphism search refuses before it spends, so no context is left
    with pytest.raises(InvalidSpec, match="^box5 and K3 have different signatures"):
        all_filters(box5, kl, Budget(0))
    assert logics._CONTEXTS == {}


def test_a_cold_matrix_context_spends_the_callers_budget(cold_contexts, kl):
    k3_sq = bi.algebra("K3^2")
    with pytest.raises(SizeBudgetExceeded):
        is_filter(k3_sq, {8}, kl, Budget(0))
    assert (id(k3_sq), id(kl)) not in logics._CONTEXTS
    with pytest.raises(SizeBudgetExceeded):
        filters_certified(k3_sq, kl, Budget(0))
    with pytest.raises(SizeBudgetExceeded):
        is_filter_certain(k3_sq, {8}, kl, Budget(0))
    budget = Budget()
    assert is_filter(k3_sq, {8}, kl, budget)
    assert budget.spent > 0 and (id(k3_sq), id(kl)) in logics._CONTEXTS


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(random_clone_algebras(MATRIX_SIGNATURES, (2, 2)), st.data())
def test_random_matrix_logics_match_the_unrefuted_sweep(algebras, data):
    matrix_algebra, target = algebras
    designated = data.draw(st.frozensets(st.integers(0, matrix_algebra.size - 1)))
    bound = data.draw(st.sampled_from([1, 2]))
    logic = MatrixDetermined((Matrix(matrix_algebra, designated),), bound)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logics, "_CONTEXTS", {})
        ctx = _context(target, logic, Budget())
        unrefuted = oracle_unrefuted(target, logic, ctx.clone)
        closed = [frozenset(a for a in range(target.size) if u >> a & 1) for u in unrefuted]
        # a family certified by the lower one is known from the build on
        _answer_before_and_after_the_family(target, logic, closed)
        exact_by_bound = ctx.clone.complete and ctx.clone.nvars == target.size
        assert filters_certified(target, logic) == (exact_by_bound or set(unrefuted) == set(ctx.lower))


def test_a_row_keeps_every_maximal_mask_landing_on_an_element(cold_contexts):
    # at every valuation two incomparable designation masks land on 0 (and on
    # 2), and keeping only one of them can make {1} look closed
    signature = Signature((("f", 1), ("h", 1)))
    negation = FiniteAlgebra.make("N2", 2, signature, {"f": [1, 0], "h": [1, 0]})
    logic = MatrixDetermined((Matrix(negation, frozenset({0})),), 1)
    target = FiniteAlgebra.make("T3", 3, signature, {"f": [2, 0, 2], "h": [2, 2, 0]})
    unrefuted = oracle_unrefuted(target, logic, _context(target, logic, Budget()).clone)
    assert unrefuted == [0, 0b111]
    assert [f.members for f in all_filters(target, logic)] == [frozenset(), frozenset({0, 1, 2})]


# --- the warm query path ------------------------------------------------------------

FG_WARM_PAIRS = (
    ("K3^2", "KL"), ("K3^2", "LP"), ("WK3^2", "PWK"), ("mchain4", "KG"),
    ("L5", "LUK"), ("box5", "ONE"), ("M3", "ORD"),
)


def _oracle_family(algebra, logic):
    """The filters by brute force: the subsets closed under every rule
    instance, or those the oracle clone in two variables leaves unrefuted."""
    if isinstance(logic, RulePresented):
        return oracle_closed_sets(algebra, logic.rules)
    clone = oracle_build_clone((algebra,) + tuple(m.algebra for m in logic.matrices), 2, Budget())
    return [frozenset(_elements(ms)) for ms in oracle_unrefuted(algebra, logic, clone)]


def _rebuilt(algebra):
    """The algebra built again from its fields, which make returns as the
    live algebra of equal value: the same object."""
    again = FiniteAlgebra.make(algebra.name, algebra.size, algebra.signature, dict(algebra.tables), algebra.labels)
    assert again is algebra
    return again


def _subsets(algebra):
    """Every subset; above 9 elements, those of at most 3 elements and 300
    drawn ones, seeded by the size."""
    n = algebra.size
    subsets = [s for r in range(n + 1 if n <= 9 else 4) for s in itertools.combinations(range(n), r)]
    if n > 9:
        rng = random.Random(n)
        subsets += [tuple(a for a in range(n) if rng.random() < 0.5) for _ in range(300)]
    return subsets


def _answer_cold_warm_and_rebuilt(algebra, logic, closed):
    """fg and is_filter on _subsets against the closed sets: from an empty
    cache, again warm under budgets that allow no step, and on an equal algebra
    built apart, which is the same object and gets the identical Filters."""
    subsets = _subsets(algebra)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logics, "_CONTEXTS", {})
        for subset in subsets:  # the first call builds the context, every fg fills the memo
            assert fg(algebra, subset, logic).members == oracle_least_closed(closed, subset)
            assert is_filter(algebra, subset, logic) == (frozenset(subset) in closed)
        entries = len(logics._CONTEXTS)
        warm = {}
        for i, subset in enumerate(subsets):
            budget = (Budget(0), 0, None)[i % 3]
            f = warm[subset] = fg(algebra, subset, logic, budget)
            assert f.members == oracle_least_closed(closed, subset)
            assert is_filter(algebra, subset, logic, budget) == (frozenset(subset) in closed)
            assert not isinstance(budget, Budget) or budget.spent == 0
        again = _rebuilt(algebra)
        for subset in subsets:
            got = fg(again, subset, logic, Budget(0))
            assert got is warm[subset] and got.members == oracle_least_closed(closed, subset)
            assert is_filter(again, subset, logic, 0) == (frozenset(subset) in closed)
        assert len(logics._CONTEXTS) == entries


@pytest.mark.parametrize("names", FG_WARM_PAIRS, ids="-".join)
def test_warm_queries_on_the_fg_warm_pairs_match_the_oracle(names):
    algebra, logic = bi.algebra(names[0]), bi.logic(names[1])
    closed = _oracle_family(algebra, logic)
    _answer_cold_warm_and_rebuilt(algebra, logic, closed)
    if isinstance(logic, MatrixDetermined):  # the oracle's two variables certify there
        assert filters_certified(algebra, logic)


@pytest.mark.parametrize("names", FG_WARM_PAIRS, ids="-".join)
def test_one_filter_per_closed_set_before_and_after_all_filters(names):
    """From an empty cache, a cold miss under a budget that allows no step
    raises and stores nothing.  Then fg and is_filter on _subsets match the
    oracle before all_filters (on a rule logic, the step path) and after it
    (the family path).  Each closed set has one Filter: fg returns it for every
    form of every generator set reaching it, all_filters returns the same
    objects, and so does an equal algebra built apart, which is the same object."""
    algebra, logic = bi.algebra(names[0]), bi.logic(names[1])
    closed = _oracle_family(algebra, logic)
    subsets = _subsets(algebra)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logics, "_CONTEXTS", {})
        for read in (fg, is_filter):
            with pytest.raises(SizeBudgetExceeded):
                read(algebra, (), logic, Budget(0))
            assert logics._CONTEXTS == {}
        first = {}
        for subset in subsets:
            f = first[subset] = fg(algebra, subset, logic)
            assert f.members == oracle_least_closed(closed, subset) and f.algebra is algebra
            assert is_filter(algebra, subset, logic) == (frozenset(subset) in closed)
            assert is_filter(algebra, iter(subset), logic) == (frozenset(subset) in closed)
            for form in (iter(subset), list(subset) * 2, frozenset(subset), f.members):
                assert fg(algebra, form, logic) is f
        filters = all_filters(algebra, logic)
        assert [f.members for f in filters] == closed
        assert all(f.algebra is algebra for f in filters)
        by_members = {f.members: f for f in filters}
        for subset in subsets:
            f = fg(algebra, subset, logic, Budget(0))
            assert f is first[subset] is by_members[f.members]
            assert is_filter(algebra, subset, logic, Budget(0)) == (frozenset(subset) in closed)
            assert fg(algebra, f.members, logic, Budget(0)) is f
        assert all(f is g for f, g in zip(all_filters(algebra, logic, Budget(0)), filters))
        again = _rebuilt(algebra)
        theirs = all_filters(again, logic, Budget(0))
        assert all(f is g for f, g in zip(theirs, filters, strict=True))
        assert all(fg(again, f.members, logic, Budget(0)) is f for f in filters)
        assert all(f.algebra is algebra for f in all_filters(algebra, logic, Budget(0)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(random_algebras(), random_rules())
def test_warm_queries_on_random_rule_logics_match_the_oracle(algebra_and_perm, rules):
    algebra, _ = algebra_and_perm
    logic = RulePresented(tuple(rules))
    _answer_cold_warm_and_rebuilt(algebra, logic, oracle_closed_sets(algebra, logic.rules))


def test_fg_relative_adds_no_context_after_its_first_call(cold_contexts, box5, one_logic):
    theta = Congruence.from_blocks([[0, 1], [2, 4], [3]], 5)
    first = fg_relative(box5, theta, [2, 3], one_logic)
    entries = len(logics._CONTEXTS)
    for _ in range(49):  # equal to the first, read off the pair's own context
        assert fg_relative(box5, theta, [2, 3], one_logic) == first
        assert len(logics._CONTEXTS) == entries


@pytest.mark.parametrize("names", [("box5", "ONE"), ("K3^2", "KL")], ids="/".join)
def test_a_cold_fg_relative_spends_an_exact_budget(cold_contexts, names):
    algebra, logic = bi.algebra(names[0]), bi.logic(names[1])
    theta = all_congruences(algebra)[1]

    def cold(budget):
        logics._CONTEXTS.clear()
        logics._CLONES.clear()
        return fg_relative(algebra, theta, [algebra.size - 1], logic, budget)

    spent = Budget()
    want = cold(spent)
    assert spent.spent > 0 and cold(Budget(spent.spent)) == want
    with pytest.raises(SizeBudgetExceeded):
        cold(Budget(spent.spent - 1))


def test_cold_contexts_forces_a_build_of_a_warm_pair(request, wk3, pwk):
    fg(wk3, (), pwk)
    request.getfixturevalue("cold_contexts")
    budget = Budget()
    fg(wk3, (), pwk, budget)
    assert budget.spent > 0


@pytest.mark.parametrize("names", [("WK3^2", "PWK"), ("K3^2", "KL")], ids="-".join)
def test_a_warm_query_hashes_nothing_and_makes_no_budget(cold_contexts, monkeypatch, names):
    algebra, logic = bi.algebra(names[0]), bi.logic(names[1])
    warmed = fg(algebra, (1, 2), logic)
    calls = []

    def counted(name, original):
        def counting(*args):
            calls.append(name)
            return original(*args)
        return counting

    for cls in (FiniteAlgebra, RulePresented, MatrixDetermined):
        monkeypatch.setattr(cls, "__hash__", counted(cls.__name__, cls.__hash__))
    for module in ("filtra.algebras", "filtra.logics"):
        monkeypatch.setattr(f"{module}.as_budget", counted("as_budget", logics.as_budget))
    for budget in (None, Budget(0)):
        got = fg(algebra, (1, 2), logic, budget)
        is_filter(algebra, (1, 2), logic, budget)
        assert calls == [] and got is warmed
    # make hashes the rebuilt fields to find the live algebra, and the read
    # after it hashes nothing
    again = _rebuilt(algebra)
    assert fg(again, (1, 2), logic) is warmed and calls == []
