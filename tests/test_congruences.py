import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_partitions,
    fresh_copy,
    oracle_cg_profiles,
    oracle_compatible,
    oracle_congruences,
    oracle_is_congruence,
    oracle_largest_compatible,
    oracle_least_containing,
    oracle_leibniz_profiles,
    random_algebras,
    relabel,
    trivial_algebra,
    unary_polynomials,
)

from filtra import builtins as bi
from filtra.algebras import Budget, FiniteAlgebra, direct_product
from filtra.congruences import (
    Congruence,
    _merged,
    all_congruences,
    cg_generated,
    leibniz_congruence,
)
from filtra.errors import SizeBudgetExceeded
from filtra.logics import all_filters
from filtra.terms import Signature

THETA1 = Congruence.from_blocks([[0, 1], [2, 4], [3]], 5)
THETA2 = Congruence.from_blocks([[0, 1], [3, 4], [2]], 5)


def test_canonical_encoding():
    assert Congruence((5, 5, 7, 5)).partition == (0, 0, 1, 0)
    assert Congruence.identity(3).partition == (0, 1, 2)
    assert Congruence.total(3).partition == (0, 0, 0)
    assert Congruence((0, 0, 1)) == Congruence((3, 3, 9))


def test_blocks_sorted_by_least_member():
    theta = Congruence.from_blocks([[3], [0, 1], [2, 4]], 5)
    assert theta.blocks() == [[0, 1], [2, 4], [3]]
    assert theta.to_blocks_json() == [[0, 1], [2, 4], [3]]


def test_meet_and_refines():
    a = Congruence((0, 0, 1, 1))
    b = Congruence((0, 1, 1, 1))
    m = a.meet(b)
    assert m.partition == (0, 1, 2, 2)
    assert m.refines(a) and m.refines(b)
    assert not a.refines(b)


# --- generation ------------------------------------------------------------


def test_cg_empty_is_identity(k3, box5):
    for algebra in (k3, box5):
        assert cg_generated(algebra, []) == Congruence.identity(algebra.size)


def test_cg_box5_pair_propagates(box5):
    # merging a1 with b forces 0 with 1 through the membership tables
    assert cg_generated(box5, [(2, 4)]) == THETA1


def test_cg_k3_collapses(k3):
    # 0 ~ 1 propagates through negation and the lattice to the total relation
    assert cg_generated(k3, [(0, 2)]) == Congruence.total(3)
    assert cg_generated(k3, [(0, 1)]) == Congruence.total(3)


def test_cg_equals_least_containing_congruence(wk3, k3, box5, bool4):
    for algebra in (wk3, k3, box5, bool4):
        lattice = oracle_congruences(algebra)
        for pair in itertools.combinations(range(algebra.size), 2):
            assert cg_generated(algebra, [pair]) == oracle_least_containing(lattice, [pair])


# --- enumeration -----------------------------------------------------------


def test_all_congruences_trivial_algebra():
    t = trivial_algebra(Signature((("f", 1),)), "t")
    assert list(all_congruences(t)) == [Congruence.identity(1)]


def test_k3_is_simple(k3):
    # oracle: check every partition of a 3-element set directly
    assert oracle_congruences(k3) == set(all_congruences(k3))
    assert len(all_congruences(k3)) == 2


def test_all_congruences_match_partition_oracle(wk3, box5, bool4, m3):
    for algebra in (wk3, box5, bool4, m3, bi.algebra("DM4"), bi.algebra("mchain2")):
        assert set(all_congruences(algebra)) == oracle_congruences(algebra)


def test_box5_contains_published_pair(box5):
    lattice = all_congruences(box5)
    assert THETA1 in lattice
    assert THETA2 in lattice


def test_mchain4_congruences_are_the_leibniz_congruences_of_its_filters():
    # KG is algebraizable, so the Leibniz operator maps its filters onto the
    # congruence lattice one to one; mchain4 has 16 elements
    mchain4 = bi.algebra("mchain4")
    filters = all_filters(mchain4, bi.logic("KG"))
    lattice = all_congruences(mchain4)
    assert len(filters) == len(lattice) == 5
    assert set(lattice) == {leibniz_congruence(mchain4, f.members) for f in filters}


def _join(t1, t2):
    """The join of two equivalence relations, as all_congruences takes it."""
    return Congruence(_merged(range(t1.size), t1.pairs() + t2.pairs()))


def test_join_is_least_upper_bound(box5):
    lattice = list(all_congruences(box5))
    for t1, t2 in itertools.combinations(lattice, 2):
        j = _join(t1, t2)
        assert t1.refines(j) and t2.refines(j)
        for other in lattice:
            if t1.refines(other) and t2.refines(other):
                assert j.refines(other)


def test_lattice_spends_one_step_per_element_per_join(wk3_sq, k3_sq, box5):
    # the closure makes the same joins and prices each at the carrier size
    for algebra, steps in ((wk3_sq.algebra, 3876), (box5, 705), (k3_sq.algebra, 3880)):
        budget = Budget()
        all_congruences(algebra, budget)
        assert budget.spent == steps, algebra.name


def test_wk3_cube_lattice_fits_the_default_budget(wk3):
    budget = Budget()
    assert len(all_congruences(direct_product([wk3, wk3, wk3]).algebra, budget)) == 2921
    assert budget.spent == 4_426_799


# --- compatibility ---------------------------------------------------------


def test_identity_compatible_with_everything(k3):
    delta = Congruence.identity(3)
    for r in range(4):
        for subset in itertools.combinations(range(3), r):
            assert oracle_compatible(delta.partition, subset)


def test_total_compatible_only_with_trivial_subsets(k3):
    nabla = Congruence.total(3)
    assert oracle_compatible(nabla.partition, set())
    assert oracle_compatible(nabla.partition, {0, 1, 2})
    assert not oracle_compatible(nabla.partition, {2})


def test_theta1_not_compatible_with_one(box5):
    # 1 sits in a block with 0, which is outside the subset
    assert not oracle_compatible(THETA1.partition, {1})
    assert oracle_compatible(THETA1.partition, {0, 1})


# --- unary polynomial clone (the profile oracle in conftest) ----------------


def test_clone_of_trivial_algebra():
    t = trivial_algebra(Signature((("f", 2),)), "t")
    assert set(unary_polynomials(t).functions) == {(0,)}


def test_clone_without_operations():
    bare = FiniteAlgebra.make("bare", 3, Signature(()), {})
    assert set(unary_polynomials(bare).functions) == {(0, 1, 2)}


def test_k3_clone_contains_expected_maps(k3):
    clone = set(unary_polynomials(k3).functions)
    assert (0, 1, 2) in clone            # identity
    assert (2, 1, 0) in clone            # negation
    assert (0, 1, 1) in clone            # meet with the middle element
    assert tuple(min(max(x, 0), 2) for x in range(3)) in clone


# --- Leibniz congruence ----------------------------------------------------


def test_leibniz_of_carrier_is_total(k3):
    assert leibniz_congruence(k3, range(3)) == Congruence.total(3)


def test_leibniz_examples(k3, wk3):
    assert leibniz_congruence(k3, {2}) == Congruence.identity(3)
    assert leibniz_congruence(wk3, {1, 2}) == Congruence.identity(3)


def test_leibniz_equals_largest_compatible(wk3, k3, box5, bool4):
    for algebra in (wk3, k3, box5, bool4):
        lattice = oracle_congruences(algebra)
        for r in range(algebra.size + 1):
            for subset in itertools.combinations(range(algebra.size), r):
                got = leibniz_congruence(algebra, subset)
                assert got == oracle_largest_compatible(lattice, subset)
                assert oracle_compatible(got.partition, set(subset))
                assert oracle_is_congruence(algebra, got.partition)


def test_leibniz_of_kg_filters_on_mchain4_is_maximal(kg):
    mchain4 = bi.algebra("mchain4")
    for f in all_filters(mchain4, kg):
        theta = leibniz_congruence(mchain4, f.members)
        assert oracle_is_congruence(mchain4, theta.partition)
        assert oracle_compatible(theta.partition, f.members)
        for a, b in itertools.combinations(range(mchain4.size), 2):
            if not theta.same(a, b):
                bigger = cg_generated(mchain4, theta.pairs() + [(a, b)])
                assert not oracle_compatible(bigger.partition, f.members), (sorted(f.members), a, b)


def test_leibniz_equals_profile_oracle_on_mchain3():
    mchain3 = bi.algebra("mchain3")
    clone = unary_polynomials(mchain3)
    for r in range(mchain3.size + 1):
        for subset in itertools.combinations(range(mchain3.size), r):
            assert leibniz_congruence(mchain3, subset) == oracle_leibniz_profiles(clone, subset)


# --- step budget -----------------------------------------------------------


def test_budget_bounds_congruence_calls(wk3_sq):
    mchain4 = bi.algebra("mchain4")
    with pytest.raises(SizeBudgetExceeded):
        leibniz_congruence(mchain4, {15}, Budget(50))
    with pytest.raises(SizeBudgetExceeded):
        cg_generated(mchain4, [(14, 15)], Budget(50))
    with pytest.raises(SizeBudgetExceeded):
        all_congruences(wk3_sq.algebra, Budget(50))


def test_budget_bounds_refinement_and_joins():
    # with no operations there is nothing to tabulate or propagate, so only
    # the refinement rounds and the joins can spend
    bare = FiniteAlgebra.make("bare", 3, Signature(()), {})
    assert leibniz_congruence(bare, {0}) == Congruence((0, 1, 1))
    with pytest.raises(SizeBudgetExceeded):
        leibniz_congruence(bare, {0}, Budget(0))
    assert len(all_congruences(bare)) == 5
    with pytest.raises(SizeBudgetExceeded):
        all_congruences(bare, Budget(0))


# --- translations: byte lanes up to 256 elements, priced per call ----------


def _cycle(size):
    """x -> x + 1 mod size: every Leibniz round below splits off one more
    block, so the refinement reaches block ids past 128 and up to size - 1."""
    return FiniteAlgebra.make("cycle", size, Signature((("s", 1),)), {"s": [(x + 1) % size for x in range(size)]})


@pytest.mark.parametrize("size", [256, 300])
def test_unary_algebras_on_either_side_of_the_byte_lanes_match_the_oracles(size):
    cycle = _cycle(size)
    assert {type(t) for t in cycle._basic_translations} == {bytes if size <= 256 else tuple}
    clone = unary_polynomials(cycle)
    for subset in ({0}, range(0, size, 2), range(128, size), range(size)):
        assert leibniz_congruence(cycle, subset) == oracle_leibniz_profiles(clone, subset)
    for pairs in ([(0, 128)], [(1, 3)], [(0, 1)], [(7, 7)]):
        assert cg_generated(cycle, pairs) == oracle_cg_profiles(clone, pairs)


CALLS = {
    "leibniz": lambda a, budget: leibniz_congruence(a, {0}, budget),
    "cg": lambda a, budget: cg_generated(a, [(0, 2)], budget),
    "lattice": all_congruences,
}


@pytest.mark.parametrize(
    "name, call",
    [(name, call) for name in ("box5", "mchain4") for call in CALLS]
    + [(f"cycle-{size}", call) for size in (256, 300) for call in ("leibniz", "cg")],
)
def test_a_warm_algebra_spends_what_a_fresh_one_does(call, name):
    algebra = _cycle(int(name[6:])) if name.startswith("cycle") else fresh_copy(bi.algebra(name))
    call, cold = CALLS[call], Budget()
    want = call(algebra, cold)
    warm = Budget()
    assert call(algebra, warm) == want
    assert warm.spent == cold.spent
    assert call(algebra, Budget(cold.spent)) == want
    with pytest.raises(SizeBudgetExceeded):
        call(fresh_copy(algebra), Budget(cold.spent - 1))
    with pytest.raises(SizeBudgetExceeded):
        call(algebra, Budget(cold.spent - 1))


# --- random algebras against the oracles ------------------------------------

def _relabel_congruence(theta, perm):
    partition = [0] * theta.size
    for x, block in enumerate(theta.partition):
        partition[perm[x]] = block
    return Congruence(tuple(partition))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(random_algebras())
def test_random_algebras_match_oracles(algebra_and_perm):
    algebra, perm = algebra_and_perm
    n = algebra.size
    lattice = oracle_congruences(algebra)
    assert set(all_congruences(algebra)) == lattice
    for pair in itertools.combinations(range(n), 2):
        assert cg_generated(algebra, [pair]) == oracle_least_containing(lattice, [pair])
    copy = relabel(algebra, perm)
    assert set(all_congruences(copy)) == {_relabel_congruence(t, perm) for t in lattice}
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            got = leibniz_congruence(algebra, subset)
            assert got == oracle_largest_compatible(lattice, subset)
            moved = leibniz_congruence(copy, [perm[x] for x in subset])
            assert moved == _relabel_congruence(got, perm)


@st.composite
def partition_pairs(draw):
    """Two partitions of one carrier of at most 6 elements, and a permutation."""
    n = draw(st.integers(0, 6))
    partitions = st.sampled_from(list(all_partitions(n)))
    return draw(partitions), draw(partitions), draw(st.permutations(range(n)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(partition_pairs())
def test_join_is_the_transitive_closure_of_the_union(case):
    p, q, perm = case
    n = len(p)
    related = {(a, b) for a in range(n) for b in range(n) if p[a] == p[b] or q[a] == q[b]}
    for k in range(n):  # Warshall
        related |= {(a, b) for a in range(n) for b in range(n) if (a, k) in related and (k, b) in related}
    joined = _join(Congruence(p), Congruence(q))
    assert {(a, b) for a in range(n) for b in range(n) if joined.same(a, b)} == related
    moved = _join(_relabel_congruence(Congruence(p), perm), _relabel_congruence(Congruence(q), perm))
    assert moved == _relabel_congruence(joined, perm)
