import pytest

from filtra.errors import ArityMismatch, TermSyntaxError, UnknownName
from filtra.terms import (
    App,
    Equation,
    Rule,
    Signature,
    Var,
    format_term,
    parse_term,
    variables,
)


@pytest.fixture
def sig():
    return Signature((("or", 2), ("neg", 1), ("1", 0)))


def test_parse_roundtrip(sig):
    text = "(or x1 (neg x1))"
    t = parse_term(text, sig)
    assert t == App("or", (Var("x1"), App("neg", (Var("x1"),))))
    assert format_term(t) == text


def test_constants_parse_as_applications(sig):
    assert parse_term("1", sig) == App("1", ())
    assert parse_term("(or 1 y)", sig) == App("or", (App("1", ()), Var("y")))


def test_unknown_atoms_stay_variables(sig):
    assert parse_term("half", sig) == Var("half")


def test_arity_errors(sig):
    with pytest.raises(ArityMismatch):
        parse_term("(neg x y)", sig)
    with pytest.raises(ArityMismatch):
        parse_term("neg", sig)
    with pytest.raises(TermSyntaxError):
        parse_term("(or x1 x2", sig)
    with pytest.raises(TermSyntaxError):
        parse_term("(unknownop x)", sig)
    with pytest.raises(TermSyntaxError):
        parse_term("", sig)
    with pytest.raises(TermSyntaxError):
        parse_term("(or x1 x2) trailing", sig)


def test_signature_validation():
    with pytest.raises(TermSyntaxError):
        Signature((("f", 1), ("f", 2)))
    sig = Signature((("f", 2),))
    assert sig.arity("f") == 2
    with pytest.raises(UnknownName):
        sig.arity("g")
    assert "f" in sig and "g" not in sig


def test_variable_collection(sig):
    t = parse_term("(or x2 (or x1 x2))", sig)
    assert variables(t) == ("x2", "x1")
    eq = Equation(parse_term("x1", sig), parse_term("(neg y)", sig))
    assert variables(eq.lhs, eq.rhs) == ("x1", "y")
    r = Rule((parse_term("x", sig),), parse_term("(or x z)", sig))
    assert variables(*r.premises, r.conclusion) == ("x", "z")
