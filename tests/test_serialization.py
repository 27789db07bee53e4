import json

import pytest

from filtra import builtins as bi
from filtra.congruences import Congruence
from filtra.errors import InvalidSpec
from filtra.logics import MatrixDetermined, RulePresented
from filtra.serialization import (
    algebra_from_json,
    candidate_from_json,
    class_from_json,
    logic_from_json,
)
from filtra.terms import format_term, parse_term

K3_DOC = {
    "name": "K3", "size": 3, "element_labels": ["0", "half", "1"],
    "signature": [{"name": "and", "arity": 2}, {"name": "or", "arity": 2}, {"name": "neg", "arity": 1},
                  {"name": "0", "arity": 0}, {"name": "1", "arity": 0}],
    "operations": {"and": [0, 0, 0, 0, 1, 1, 0, 1, 2], "or": [0, 1, 2, 1, 1, 2, 2, 2, 2],
                   "neg": [2, 1, 0], "0": [0], "1": [2]},
}


def test_algebra_roundtrip(k3):
    # a literal document reads as the built-in algebra, labels included
    assert algebra_from_json(json.loads(json.dumps(K3_DOC))) == k3
    bare = algebra_from_json({"name": "two", "size": 2, "signature": [{"name": "f", "arity": 1}],
                              "operations": {"f": [1, 0]}})
    assert bare.labels is None and bare.label(1) == "1"
    assert bare.table("f") == (1, 0)


def test_algebra_document_validation():
    doc = json.loads(json.dumps(K3_DOC))
    doc["operations"]["and"] = doc["operations"]["and"][:-1]
    with pytest.raises(InvalidSpec):
        algebra_from_json(doc)


def test_logic_roundtrip_rules(pwk, wk3):
    doc = {
        "name": "PWK", "kind": "rules", "signature": "WK3",
        "rules": [
            {"premises": [], "conclusion": "(or x (neg x))"},
            {"premises": ["x"], "conclusion": "(or x y)"},
            {"premises": ["x", "y"], "conclusion": "(neg (or (neg x) (neg y)))"},
        ],
    }
    back = logic_from_json(doc, bi.algebra)
    assert isinstance(back, RulePresented)
    assert back.rules == pwk.rules
    assert back.rules[2].premises == (parse_term("x", wk3.signature), parse_term("y", wk3.signature))


def test_logic_roundtrip_matrices(kl):
    doc = {"name": "KL", "kind": "matrices", "matrices": [{"algebra": "K3", "designated": [2]}]}
    back = logic_from_json(doc, bi.algebra)
    assert isinstance(back, MatrixDetermined)
    assert back.matrices == kl.matrices
    assert back.variable_bound is None
    bounded = logic_from_json(doc | {"variable_bound": 2}, bi.algebra)
    assert bounded.matrices == kl.matrices and bounded.variable_bound == 2


def test_class_documents():
    spec = bi.class_spec("alpha12")
    assert len(spec.equations) == 3
    gen = bi.class_spec("qwk3")
    assert gen.generators[0].name == "WK3"


def test_congruence_blocks_roundtrip():
    theta = Congruence.from_blocks([[0, 1], [2, 4], [3]], 5)
    blocks = theta.to_blocks_json()
    assert blocks == [[0, 1], [2, 4], [3]]
    assert Congruence.from_blocks(blocks, 5) == theta


def test_candidate_roundtrip(k3):
    doc = {
        "name": "kl-global", "variant": "global", "n_max": 1,
        "families": {
            "0": [[["(or 1 y)", "y"]]],
            "1": [[["(or x1 (or (neg x1) y))", "(or (neg x1) y)"]]],
        },
    }
    back = candidate_from_json(doc, k3.signature)
    assert back.n_max == 1 and back.param_count == 0
    assert back.families == bi.candidate("kl-global").families[:2]
    doc = {"name": "param", "n_max": 0, "param_count": 1, "families": {"0": [[["y", "(neg z1)"]]]}}
    back = candidate_from_json(doc, k3.signature)
    assert back.param_count == 1 and back.matches_variant("parametrized_local")
    doc["families"]["0"][0][0][1] = "(neg z2)"
    with pytest.raises(InvalidSpec):
        candidate_from_json(doc, k3.signature)


def test_candidate_template_sugar(k3):
    doc = {
        "name": "sugar",
        "variant": "global",
        "n_max": 2,
        "families": {
            "0": [[["<=", "@fold", "y"]]],
            "1": [[["<=", "@fold", "y"]]],
            "2": [[["<=", "@fold", "y"]]],
        },
        "template": {"fold": "and", "leq": "join", "empty": "1"},
    }
    c = candidate_from_json(doc, k3.signature)
    eq = c.family(2)[0][0]
    assert format_term(eq.lhs) == "(or (and x1 x2) y)"
    assert format_term(eq.rhs) == "y"
    eq0 = c.family(0)[0][0]
    assert format_term(eq0.lhs) == "(or 1 y)"


def test_candidate_meet_form(k3):
    doc = {
        "name": "meet-form",
        "variant": "global",
        "n_max": 0,
        "families": {"0": [[["<=", "y", "1"]]]},
        "template": {"leq": "meet"},
    }
    c = candidate_from_json(doc, k3.signature)
    eq = c.family(0)[0][0]
    assert format_term(eq.lhs) == "(and y 1)"
    assert format_term(eq.rhs) == "y"


def test_candidate_unknown_order_form_is_rejected(k3):
    doc = {
        "name": "bogus-form",
        "variant": "global",
        "n_max": 0,
        "families": {"0": [[["<=", "1", "y"]]]},
        "template": {"leq": "bogus"},
    }
    with pytest.raises(InvalidSpec, match="leq form"):
        candidate_from_json(doc, k3.signature)


def test_candidate_variant_is_checked_against_its_families(k3):
    # two members at n = 0: a local shape, not the one set of a global candidate
    doc = {"name": "c", "variant": "global", "n_max": 0, "families": {"0": [[["y", "y"]], [["y", "(neg y)"]]]}}
    with pytest.raises(InvalidSpec, match="does not have the global shape"):
        candidate_from_json(doc, k3.signature)
    doc["variant"] = "nope"
    with pytest.raises(InvalidSpec, match="unknown variant"):
        candidate_from_json(doc, k3.signature)
    doc["variant"] = "local"
    assert len(candidate_from_json(doc, k3.signature).family(0)) == 2


def test_candidate_missing_family(k3):
    doc = {"name": "gap", "variant": "local", "n_max": 1, "families": {"0": []}}
    with pytest.raises(InvalidSpec):
        candidate_from_json(doc, k3.signature)


def test_verdict_round_trips_through_json(one_logic, box5):
    from filtra.checks import smallest_relcong_check

    v = smallest_relcong_check(one_logic, box5, bi.class_spec("alpha12"),
                               pinned_cells=[((2, 3), 4)])
    doc = json.loads(json.dumps(v.to_json()))
    assert doc["outcome"] == "fail"
    # replay the witness from the serialized form
    from filtra.logics import fg_relative

    blocks = doc["witness"]["minimal_congruences"]
    for b in blocks:
        theta = Congruence.from_blocks(b, box5.size)
        regrown = fg_relative(box5, theta, doc["witness"]["generators"], one_logic)
        assert doc["witness"]["element"] in regrown.members
    meet = Congruence.from_blocks(doc["witness"]["meet_blocks"], box5.size)
    regrown = fg_relative(box5, meet, doc["witness"]["generators"], one_logic)
    assert doc["witness"]["element"] not in regrown.members


def _no_algebra(name):
    raise AssertionError(f"{name!r} should not be resolved")


_FOLD = {"n_max": 0, "families": {"0": [[["@fold", "y"]]]}}


@pytest.mark.parametrize(
    "read, message",
    [
        (lambda: logic_from_json({"kind": "rules", "name": "r", "rules": [{"premises": [], "conclusion": "x"}]},
                                 _no_algebra), "logic 'r': rules need a signature reference"),
        (lambda: logic_from_json({"kind": "nope", "name": "r"}, _no_algebra),
         "logic 'r': kind must be 'rules' or 'matrices'"),
        (lambda: class_from_json({"kind": "axioms", "name": "c", "equations": [["x", "x"]]}, _no_algebra),
         "class 'c': axioms need a signature reference"),
        (lambda: class_from_json({"kind": "nope", "name": "c"}, _no_algebra),
         "class 'c': kind must be 'axioms' or 'generators'"),
        (lambda: candidate_from_json(_FOLD | {"template": {"empty": "1"}}, bi.algebra("K3").signature),
         "term uses @fold but the template declares no fold symbol"),
        (lambda: candidate_from_json(_FOLD | {"template": {"fold": "and"}}, bi.algebra("K3").signature),
         "@fold at n = 0 needs an 'empty' base term in the template"),
        (lambda: candidate_from_json({"n_max": 0, "families": {"0": [[["y"]]]}}, bi.algebra("K3").signature),
         "equation entry ['y'] not understood"),
    ],
    ids=["rules-signature", "logic-kind", "axioms-signature", "class-kind", "fold-symbol", "fold-empty",
         "equation-entry"],
)
def test_malformed_documents_are_refused_with_their_reason(read, message):
    with pytest.raises(InvalidSpec) as refused:
        read()
    assert str(refused.value) == message
