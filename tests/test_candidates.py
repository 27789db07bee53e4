import functools
import itertools

import pytest

from filtra import builtins as bi
from filtra.candidates import EDCFCandidate, fold_terms, leq, xvars
from filtra.errors import InvalidSpec, UnknownName
from filtra.terms import App, Equation, Var, format_term


def test_fold_shapes():
    xs = xvars(3)
    assert format_term(fold_terms("and", xs)) == "(and (and x1 x2) x3)"
    assert format_term(fold_terms("and", [], empty=App("1"))) == "1"
    with pytest.raises(InvalidSpec):
        fold_terms("and", [])


def test_leq_forms():
    a, b = Var("a"), Var("b")
    assert leq(a, b, "meet") == Equation(App("and", (a, b)), a)
    assert leq(a, b, "join") == Equation(App("or", (a, b)), b)
    with pytest.raises(InvalidSpec):
        leq(a, b, "sideways")


def test_power_and_boxed():
    # the k-th member of a local family: x1's k-th power, x1 under k - 1 necessitations
    powers = [format_term(theta[0].lhs) for theta in bi.candidate("luk-local-odot").family(1)]
    assert powers[0] == "(or x1 y)" and powers[2] == "(or (odot x1 (odot x1 x1)) y)"
    boxes = [format_term(theta[0].lhs) for theta in bi.candidate("modal-local").family(1)]
    assert boxes[0] == "(or x1 y)" and boxes[2] == "(or (and x1 (box (and x1 (box x1)))) y)"


def _power(t, k):
    out = t
    for _ in range(k - 1):
        out = App("odot", (t, out))
    return out


def _boxed(t, k):
    out = t
    for _ in range(k):
        out = App("and", (t, App("box", (out,))))
    return out


def _wk_meet(a, b):
    return App("neg", (App("or", (App("neg", (a,)), App("neg", (b,)))),))


Y = Var("y")
# n_max and the family at n of four built-in candidates, one per shape: a fold,
# meets of generator subsets, powers, iterated necessity
CONSTRUCTIONS = {
    "kl-global": (3, lambda n: [[leq(
        fold_terms("and", xvars(n), empty=App("1")), fold_terms("or", [App("neg", (x,)) for x in xvars(n)] + [Y]))]]),
    "pwk-local": (3, lambda n: [[Equation(Y, App("or", (Y, App("neg", (Y,)))))]] + [
        [leq(functools.reduce(_wk_meet, subset), Y)]
        for r in range(1, n + 1) for subset in itertools.combinations(xvars(n), r)]),
    "luk-local-odot": (3, lambda n: [
        [leq(_power(fold_terms("odot", xvars(n), empty=App("1")), k), Y)] for k in range(1, 5)]),
    "modal-local": (2, lambda n: [
        [leq(_boxed(fold_terms("and", xvars(n), empty=App("1")), k), Y)] for k in range(5)]),
}


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_a_builtin_candidate_equals_its_construction(name):
    n_max, family = CONSTRUCTIONS[name]
    families = tuple(tuple(tuple(theta) for theta in family(n)) for n in range(n_max + 1))
    assert bi.candidate(name) == EDCFCandidate(name, n_max, families)


def test_kl_global_materialization():
    c = bi.candidate("kl-global")
    assert c.n_max == 3
    assert len(c.family(0)) == 1 and len(c.family(2)) == 1
    eq = c.family(2)[0][0]
    assert format_term(eq.lhs) == "(or (and x1 x2) (or (or (neg x1) (neg x2)) y))"
    assert format_term(eq.rhs) == "(or (or (neg x1) (neg x2)) y)"
    # the empty meet falls back to the top constant
    eq0 = c.family(0)[0][0]
    assert format_term(eq0.lhs) == "(or 1 y)"


def test_lp_global_base_case():
    c = bi.candidate("lp-global")
    eq0 = c.family(0)[0][0]
    # negation of y below y
    assert format_term(eq0.lhs) == "(or (neg y) y)"
    assert format_term(eq0.rhs) == "y"


def test_pwk_local_family_sizes():
    c = bi.candidate("pwk-local")
    # one fixpoint equation plus one set per non-empty generator subset
    assert [len(c.family(n)) for n in range(4)] == [1, 2, 4, 8]
    got = {format_term(th[0].lhs) for th in c.family(2)[1:]}
    assert "(or x1 y)" in got
    assert "(or (neg (or (neg x1) (neg x2))) y)" in got


def test_luk_local_family_and_folds():
    c_and, c_odot = bi.candidate("luk-local-and"), bi.candidate("luk-local-odot")
    assert len(c_and.family(1)) == 4
    assert format_term(c_and.family(2)[1][0].lhs) == "(or (odot (and x1 x2) (and x1 x2)) y)"
    assert format_term(c_odot.family(2)[0][0].lhs) == "(or (odot x1 x2) y)"


def test_modal_families():
    local = bi.candidate("modal-local")
    assert len(local.family(1)) == 5  # necessitation depths 0..4
    g1 = bi.candidate("modal-global-k1")
    eq = g1.family(1)[0][0]
    assert format_term(eq.lhs) == "(or (and x1 (box x1)) y)"


def test_variant_shapes():
    kl, pwk = bi.candidate("kl-global"), bi.candidate("pwk-local")
    assert kl.matches_variant("global")
    assert kl.matches_variant("local")
    assert pwk.matches_variant("local")
    assert not pwk.matches_variant("global")
    with pytest.raises(InvalidSpec):
        pwk.matches_variant("sideways")


def test_variable_convention_enforced():
    eq = Equation(Var("x2"), Var("y"))
    with pytest.raises(InvalidSpec):
        EDCFCandidate("bad", 1, ((), ((eq,),)))  # x2 outside x1..x1
    # element literals are allowed, resolved against labels at run time
    EDCFCandidate("literal", 0, (((Equation(Var("y"), Var("1")),),),))


def test_family_out_of_range():
    c = bi.candidate("kl-global")
    with pytest.raises(InvalidSpec):
        c.family(c.n_max + 1)


def test_parameter_validation():
    eq = Equation(Var("z1"), Var("y"))
    c = EDCFCandidate("param", 0, (((eq,),),), param_count=1)
    assert c.matches_variant("parametrized")
    assert not c.matches_variant("global")
    with pytest.raises(InvalidSpec):
        EDCFCandidate("param-bad", 0, (((Equation(Var("z2"), Var("y")),),),), param_count=1)


@pytest.mark.parametrize("name", bi.candidate_names())
def test_a_candidate_reads_its_signature_without_building_an_algebra(cold_contexts, name):
    # the signature comes off the named algebra's document, so no algebra is
    # built outside a caller's budget
    bi.candidate(name)
    assert [key for key in bi._BUILT if key[0] == "algebra"] == []


def test_a_candidate_over_an_unknown_algebra_is_refused(cold_contexts, monkeypatch):
    doc = dict(bi._doc("candidate", "pwk-local"), name="bad", signature="nope")
    monkeypatch.setitem(bi._DOCS, "candidate", {"bad": doc})
    with pytest.raises(UnknownName, match="^no built-in algebra 'nope'$"):
        bi.candidate("bad")
