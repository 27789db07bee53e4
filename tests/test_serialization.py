import json

import pytest

from filtra import builtins as bi
from filtra.algebras import eval_term
from filtra.candidates import kl_global
from filtra.congruences import Congruence
from filtra.errors import InvalidSpec
from filtra.logics import MatrixDetermined, RulePresented
from filtra.serialization import (
    algebra_from_json,
    algebra_to_json,
    candidate_from_json,
    candidate_to_json,
    class_from_json,
    congruence_from_json,
    congruence_to_json,
    logic_from_json,
    logic_to_json,
)
from filtra.terms import format_term


def test_algebra_roundtrip(wk3, k3, box5):
    for algebra in (wk3, k3, box5, bi.algebra("mchain3")):
        doc = algebra_to_json(algebra)
        json.dumps(doc)  # serializable
        back = algebra_from_json(doc)
        assert back == algebra


def test_algebra_document_validation(k3):
    doc = algebra_to_json(k3)
    doc["operations"]["and"] = doc["operations"]["and"][:-1]
    with pytest.raises(InvalidSpec):
        algebra_from_json(doc)


def test_logic_roundtrip_rules(pwk):
    doc = logic_to_json(pwk)
    doc["signature"] = "WK3"
    back = logic_from_json(doc, bi.algebra)
    assert isinstance(back, RulePresented)
    assert back.rules == pwk.rules


def test_logic_roundtrip_matrices(kl):
    doc = logic_to_json(kl)
    back = logic_from_json(doc, bi.algebra)
    assert isinstance(back, MatrixDetermined)
    assert back.matrices == kl.matrices


def test_class_documents():
    spec = bi.class_spec("alpha12")
    assert len(spec.equations) == 3
    gen = bi.class_spec("qwk3")
    assert gen.generators[0].name == "WK3"


def test_congruence_blocks_roundtrip():
    theta = Congruence.from_blocks([[0, 1], [2, 4], [3]], 5)
    blocks = congruence_to_json(theta)
    assert blocks == [[0, 1], [2, 4], [3]]
    assert congruence_from_json(blocks, 5) == theta


def test_candidate_roundtrip(k3):
    c = kl_global(2)
    doc = candidate_to_json(c, "global")
    back = candidate_from_json(doc, k3.signature)
    assert back.n_max == c.n_max
    assert back.families == c.families


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
        theta = congruence_from_json(b, box5.size)
        regrown = fg_relative(box5, theta, doc["witness"]["generators"], one_logic)
        assert doc["witness"]["element"] in regrown.members
    meet = congruence_from_json(doc["witness"]["meet_blocks"], box5.size)
    regrown = fg_relative(box5, meet, doc["witness"]["generators"], one_logic)
    assert doc["witness"]["element"] not in regrown.members
