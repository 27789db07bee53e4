import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_cg_k,
    oracle_eval,
    oracle_k_congruences,
    oracle_member,
    oracle_op,
    quotient,
    random_algebras,
    relabel,
)

from filtra import builtins as bi
from filtra import classes
from filtra.algebras import (
    Budget,
    FiniteAlgebra,
    direct_product,
    enumerate_homomorphisms,
    induced_subalgebra,
)
from filtra.classes import (
    Axiomatic,
    GeneratedQuasivariety,
    Quasiequation,
    cg_k,
    k_congruences,
    theta_k,
)
from filtra.congruences import Congruence, all_congruences
from filtra.errors import InvalidSpec, SizeBudgetExceeded
from filtra.logics import all_filters
from filtra.terms import Signature, parse_equation

THETA1 = Congruence.from_blocks([[0, 1], [2, 4], [3]], 5)
THETA2 = Congruence.from_blocks([[0, 1], [3, 4], [2]], 5)


@pytest.fixture(scope="module")
def alpha12():
    return bi.class_spec("alpha12")


@pytest.fixture(scope="module")
def pwk_quasi():
    return bi.class_spec("pwk-quasi")


# --- membership ------------------------------------------------------------


def in_class(algebra, spec, budget=None):
    """An algebra lies in the class iff its least relative congruence is the identity."""
    return theta_k(algebra, spec, budget) == Congruence.identity(algebra.size)


def test_generator_is_a_member(wk3):
    assert in_class(wk3, GeneratedQuasivariety((wk3,)))


def test_box5_satisfies_membership_axioms(box5, alpha12):
    assert in_class(box5, alpha12)


def test_axiomatic_with_false_equation(box5):
    bad = Axiomatic(equations=(parse_equation("x1", "x2", box5.signature),))
    assert not in_class(box5, bad)


def test_quasiequation_on_quotients_of_the_square(wk3, wk3_sq, pwk_quasi):
    # unique negation fixpoints, checked on every four-element quotient
    quotients = [
        quotient(wk3_sq.algebra, t.partition)[0]
        for t in all_congruences(wk3_sq.algebra)
        if t.num_blocks == 4
    ]
    assert quotients
    q_spec = pwk_quasi.quasiequations[0]
    for q in quotients:
        fixpoints_collapse = True
        for a, b in itertools.product(range(q.size), repeat=2):
            v = {"x": a, "y": b}
            if all(
                oracle_eval(eq.lhs, q, v) == oracle_eval(eq.rhs, q, v)
                for eq in q_spec.antecedents
            ) and oracle_eval(q_spec.consequent.lhs, q, v) != oracle_eval(q_spec.consequent.rhs, q, v):
                fixpoints_collapse = False
        assert in_class(q, pwk_quasi) == fixpoints_collapse


QUASIEQUATIONS = (
    # (antecedents, consequent); the first and last hold only when every
    # antecedent must hold, not some
    ([("x", "y"), ("(neg x)", "(neg x)")], ("x", "y")),
    ([("x", "(neg x)"), ("y", "(neg y)")], ("x", "y")),
    ([("x", "x")], ("x", "(neg x)")),
    ([("(or x y)", "y")], ("(or (neg y) (neg x))", "(neg x)")),
    ([("(or x y)", "x"), ("(or x y)", "y")], ("x", "y")),
)


def test_quasiequations_match_pointwise_oracle(wk3, k3, wk3_sq):
    for algebra in (wk3, k3, wk3_sq.algebra):
        for antecedents, consequent in QUASIEQUATIONS:
            q = Quasiequation(
                tuple(parse_equation(l, r, algebra.signature) for l, r in antecedents),
                parse_equation(*consequent, algebra.signature),
            )

            def holds(eq, v):
                return oracle_eval(eq.lhs, algebra, v) == oracle_eval(eq.rhs, algebra, v)

            expected = all(
                holds(q.consequent, v) or not all(holds(eq, v) for eq in q.antecedents)
                for v in (dict(zip("xy", p)) for p in itertools.product(range(algebra.size), repeat=2))
            )
            assert in_class(algebra, Axiomatic(quasiequations=(q,))) == expected, (algebra.name, q)


def test_member_invariant_under_relabeling(wk3, k3, box5, alpha12):
    rng = random.Random(7)
    specs = [
        (box5, alpha12),
        (wk3, GeneratedQuasivariety((wk3,))),
        (k3, GeneratedQuasivariety((k3,))),
    ]
    for algebra, spec in specs:
        for _ in range(4):
            perm = list(range(algebra.size))
            rng.shuffle(perm)
            assert in_class(relabel(algebra, perm), spec) == in_class(algebra, spec)


def test_generated_quasivariety_closure_properties(wk3, k3):
    for gen in (wk3, k3):
        spec = GeneratedQuasivariety((gen,))
        square = direct_product([gen, gen]).algebra
        assert in_class(square, spec)
        for sub in all_filters(square, square.signature):
            if sub.members:  # WK3 has no constant, so the empty set is a subuniverse
                small, _ = induced_subalgebra(square, sub.members)
                assert in_class(small, spec)


def test_non_member_of_generated_quasivariety(wk3):
    # collapsing the two negation fixpoint classes of the square produces an
    # algebra with two distinct negation fixpoints, outside the quasivariety
    spec = GeneratedQuasivariety((wk3,))
    square = direct_product([wk3, wk3]).algebra
    found_outside = False
    for t in all_congruences(square):
        q, _ = quotient(square, t.partition)
        fixpoints = [a for a in range(q.size) if oracle_op(q, "neg", a) == a]
        if len(fixpoints) > 1:
            assert not in_class(q, spec)
            found_outside = True
    assert found_outside


# --- relative congruences ---------------------------------------------------


def test_no_axioms_keeps_every_congruence(box5):
    everything = Axiomatic()
    assert set(k_congruences(box5, everything)) == set(all_congruences(box5))


def test_box5_relative_congruences(box5, alpha12):
    relative = k_congruences(box5, alpha12)
    assert THETA1 in relative
    assert THETA2 in relative
    # quotients collapsing 0 and 1 always satisfy the membership axioms
    assert set(relative) == set(all_congruences(box5))


def test_k3_relative_congruences_of_itself(k3):
    spec = GeneratedQuasivariety((k3,))
    assert [t.blocks() for t in k_congruences(k3, spec)] == [
        [[0], [1], [2]],
        [[0, 1, 2]],
    ]


def test_theta_k_identity_iff_member(wk3, k3, box5, alpha12, bool4):
    cases = [
        (box5, alpha12),
        (wk3, GeneratedQuasivariety((wk3,))),
        (k3, GeneratedQuasivariety((k3,))),
        (bool4, Axiomatic()),
        # half names a variable, as on a quotient, so neg x = x fails on K3
        (k3, Axiomatic((parse_equation("(neg half)", "half", k3.signature),))),
    ]
    for algebra, spec in cases:
        assert oracle_member(algebra, spec) == (theta_k(algebra, spec) == Congruence.identity(algebra.size))


def test_theta_k_total_for_collapsing_axioms(k3, box5):
    collapse_k3 = Axiomatic(equations=(parse_equation("x", "y", k3.signature),))
    assert theta_k(k3, collapse_k3) == Congruence.total(3)
    collapse_box5 = Axiomatic(equations=(parse_equation("x", "y", box5.signature),))
    assert theta_k(box5, collapse_box5) == Congruence.total(5)


def test_cg_k_of_empty_is_theta_k(box5, alpha12):
    assert cg_k(box5, alpha12, []) == theta_k(box5, alpha12)
    assert cg_k(box5, alpha12, [(2, 2)]) == theta_k(box5, alpha12)


def test_cg_k_box5_pair(box5, alpha12):
    assert cg_k(box5, alpha12, [(2, 4)]) == THETA1
    assert cg_k(box5, alpha12, [(3, 4)]) == THETA2


def test_relative_congruences_meet_closed(wk3, box5, alpha12):
    cases = [(box5, alpha12), (wk3, GeneratedQuasivariety((wk3,)))]
    for algebra, spec in cases:
        relative = list(k_congruences(algebra, spec))
        assert Congruence.total(algebra.size) in relative
        for t1, t2 in itertools.combinations(relative, 2):
            assert t1.meet(t2) in relative


def test_relative_set_always_contains_the_total_congruence(wk3, k3, box5, alpha12):
    # the one-element algebra satisfies every supported class description, so
    # the total congruence is always relative and the lattices are non-empty
    cases = [
        (box5, alpha12),
        (wk3, GeneratedQuasivariety((wk3,))),
        (k3, Axiomatic(equations=(parse_equation("x", "y", k3.signature),))),
    ]
    for algebra, spec in cases:
        assert Congruence.total(algebra.size) in k_congruences(algebra, spec)
        theta_k(algebra, spec)  # never raises for these kinds


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(random_algebras(), random_algebras())
def test_the_total_congruence_is_always_relative(algebra_and_perm, generator_and_perm):
    # the one-element quotient lies in every class, so theta_k and cg_k meet
    # over a non-empty set whatever the class
    algebra, generator = algebra_and_perm[0], generator_and_perm[0]
    collapse = Axiomatic(equations=(parse_equation("x", "y", algebra.signature),))
    total = Congruence.total(algebra.size)
    for spec in (Axiomatic(), collapse, GeneratedQuasivariety((generator,))):
        assert total in k_congruences(algebra, spec)
    assert theta_k(algebra, collapse) == total


def test_cg_k_with_collapsing_pairs(k3):
    assert cg_k(k3, GeneratedQuasivariety((k3,)), [(0, 2)]) == Congruence.total(3)


def test_theta_k_spends_the_callers_budget_on_its_homomorphism_search(wk3):
    square = direct_product([wk3, wk3]).algebra
    search = Budget()
    homs = enumerate_homomorphisms(square, wk3, search)
    spent = Budget()
    assert in_class(square, bi.class_spec("qwk3"), spent)
    # the search, then one step per element for each meet with a distinct kernel
    kernels = {tuple(h.index(v) for v in h) for h in homs}
    assert len(kernels) == 5
    assert spent.spent == search.spent + 9 * len(kernels)


def test_k_congruences_spend_their_homomorphism_searches(monkeypatch, wk3):
    square = direct_product([wk3, wk3]).algebra
    qwk3 = bi.class_spec("qwk3")
    search = Budget()
    enumerate_homomorphisms(square, wk3, search)
    uncharged = Budget()
    with monkeypatch.context() as m:
        m.setattr(classes, "enumerate_homomorphisms", lambda dom, cod, budget=None: enumerate_homomorphisms(dom, cod))
        k_congruences(square, qwk3, uncharged)
    charged = Budget()
    k_congruences(square, qwk3, charged)
    # one search from the algebra itself into the generator
    assert charged.spent == uncharged.spent + search.spent
    # a budget that suffices once the search goes uncharged no longer does
    with pytest.raises(SizeBudgetExceeded):
        k_congruences(square, qwk3, Budget(uncharged.spent))


@pytest.mark.parametrize(
    ("spec_name", "k_steps", "theta_steps"),
    [("qwk3", 136_368, 1_935), ("pwk-quasi", 6_562_040, 6_561)],
)
def test_relative_congruences_of_the_wk3_cube_spend_exact_budgets(wk3, spec_name, k_steps, theta_steps):
    # generated: one homomorphism search, then 27 steps per meet with a
    # kernel; axiomatic: the lattice, the tables, then one step per point
    cube = direct_product([wk3, wk3, wk3]).algebra
    spec = bi.class_spec(spec_name)
    for relative, steps in ((k_congruences, k_steps), (theta_k, theta_steps)):
        exact = Budget(steps)
        relative(cube, spec, exact)
        assert exact.spent == steps, relative.__name__
        with pytest.raises(SizeBudgetExceeded):
            relative(cube, spec, Budget(steps - 1))


def test_the_wk3_cube_has_384_qwk3_congruences_at_an_exact_spend(wk3):
    # one homomorphism search, then each of the 384 met with every kernel at 27 steps a meet
    cube = direct_product([wk3, wk3, wk3]).algebra
    exact = Budget(136_368)
    assert len(k_congruences(cube, bi.class_spec("qwk3"), exact)) == 384
    assert exact.spent == 136_368
    with pytest.raises(SizeBudgetExceeded):
        k_congruences(cube, bi.class_spec("qwk3"), Budget(136_367))


def test_relative_congruences_build_no_quotient_and_test_no_membership(monkeypatch, wk3, box5, alpha12, pwk_quasi):
    def forbidden(*args, **kwargs):
        raise AssertionError("called")

    square = direct_product([wk3, wk3]).algebra
    # a quotient, like every algebra, is built by FiniteAlgebra.make
    monkeypatch.setattr(FiniteAlgebra, "make", forbidden)
    for algebra, spec in ((square, bi.class_spec("qwk3")), (square, pwk_quasi), (box5, alpha12)):
        assert k_congruences(algebra, spec)
        theta_k(algebra, spec)
        cg_k(algebra, spec, [(0, 1)])


def test_relative_congruences_across_signatures_raise(box5, wk3):
    qwk3 = GeneratedQuasivariety((wk3,))
    for relative in (k_congruences, theta_k):
        with pytest.raises(InvalidSpec):
            relative(box5, qwk3)
    with pytest.raises(InvalidSpec):
        cg_k(box5, qwk3, [(0, 1)])


def test_axiom_tables_read_every_difference_of_block_ids():
    # ids 128 apart differ only in a byte's high bit; above 256 elements the
    # tables are tuples, not byte lanes
    sig = Signature((("f", 1),))
    fixed = Axiomatic(equations=(parse_equation("(f x)", "x", sig),))
    injective = Axiomatic(quasiequations=(Quasiequation((parse_equation("(f x)", "(f y)", sig),), parse_equation("x", "y", sig)),))
    for n, bit in ((6, 1), (256, 128), (300, 1)):
        swap = FiniteAlgebra.make("swap", n, sig, {"f": [x ^ bit for x in range(n)]})
        assert theta_k(swap, fixed) == Congruence(tuple(min(x, x ^ bit) for x in range(n)))
        merged = {2: 0, 2 ^ bit: bit}
        assert cg_k(swap, injective, [(0, 2)]) == Congruence(tuple(merged.get(x, x) for x in range(n)))
        assert theta_k(swap, injective) == Congruence.identity(n)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(random_algebras(), random_algebras(), st.data())
def test_relative_congruences_match_the_quotient_oracle(algebra_and_perm, generator_and_perm, data):
    algebra, perm = algebra_and_perm
    sig = algebra.signature
    classes_ = (
        Axiomatic(),
        Axiomatic(equations=(parse_equation("x", "y", sig),)),
        Axiomatic(
            equations=(parse_equation("(g x x)", "x", sig),),
            quasiequations=(Quasiequation((parse_equation("(f x)", "(f y)", sig),), parse_equation("x", "y", sig)),),
        ),
        GeneratedQuasivariety((generator_and_perm[0],)),
    )
    element = st.integers(0, algebra.size - 1)
    pair = data.draw(st.tuples(element, element))
    moved = relabel(algebra, perm)
    inverse = [perm.index(y) for y in range(algebra.size)]

    def across(theta):
        return Congruence(tuple(theta.partition[x] for x in inverse))

    for spec in classes_:
        relative = oracle_k_congruences(algebra, spec)
        assert k_congruences(algebra, spec) == relative
        assert theta_k(algebra, spec) == oracle_cg_k(relative, [])
        assert cg_k(algebra, spec, [pair]) == oracle_cg_k(relative, [pair])
        assert set(k_congruences(moved, spec)) == {across(t) for t in relative}
        assert theta_k(moved, spec) == across(theta_k(algebra, spec))
        assert cg_k(moved, spec, [(perm[pair[0]], perm[pair[1]])]) == across(cg_k(algebra, spec, [pair]))
