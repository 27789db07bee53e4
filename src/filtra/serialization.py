"""JSON readers for algebra, logic, class and candidate documents.

Document shapes:

algebra   {"name", "size", "element_labels"?, "signature": [{"name","arity"}...],
           "operations": {symbol: flat row-major table}}
logic     {"kind": "rules", "signature": <algebra name|null>,
           "rules": [{"premises": [...], "conclusion": "..."}]}
        | {"kind": "matrices", "matrices": [{"algebra": "K3", "designated": [2]}],
           "variable_bound": 3}
class     {"kind": "axioms", "equations": [["lhs","rhs"]...],
           "quasi": [{"if": [["l","r"]...], "then": ["l","r"]}...]}
        | {"kind": "generators", "algebras": ["name"...]}
candidate {"variant"?, "signature"?: <algebra name>, "n_max", "param_count"?,
           "families": {"0": [[[lhs,rhs]...]...], ...},
           "template"?: {"fold": "and", "leq": "meet"|"join",
                         "empty": "<term>", "meet_symbol"?, "join_symbol"?}}

A candidate's terms are read under the signature its caller passes, that of
the algebra its "signature" entry names when it has one.  A candidate whose
families do not have the shape of its "variant" is refused.  Candidate term
strings may use the atom ``@fold`` for the fold of x1..xn under
the template's fold symbol (the template's ``empty`` term at n = 0), and
equations may be written as ["<=", lhs, rhs] to expand through the template's
order convention.

In a class's axioms every name that is not a symbol is a variable, element
labels included.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

from .algebras import FiniteAlgebra, Matrix
from .candidates import EDCFCandidate, fold_terms, leq, xvars
from .errors import InvalidSpec
from .logics import LogicSpec, MatrixDetermined, RulePresented
from .terms import Equation, Rule, Signature, Term, format_term, parse_equation, parse_term

if TYPE_CHECKING:
    from .classes import ClassSpec

Resolver = Callable[[str], FiniteAlgebra]


def signature_from_json(entries) -> Signature:
    return Signature(tuple((e["name"], int(e["arity"])) for e in entries))


def algebra_from_json(doc: Mapping) -> FiniteAlgebra:
    sig = signature_from_json(doc["signature"])
    return FiniteAlgebra.make(
        doc["name"], int(doc["size"]), sig, doc["operations"], doc.get("element_labels")
    )


def logic_from_json(doc: Mapping, resolve: Resolver) -> LogicSpec:
    kind = doc.get("kind")
    name = doc.get("name", "")
    if kind == "rules":
        sig_ref = doc.get("signature")
        if sig_ref is None:
            if doc["rules"]:
                raise InvalidSpec(f"logic {name!r}: rules need a signature reference")
            return RulePresented((), name=name)
        sig = resolve(sig_ref).signature
        rules = tuple(
            Rule(
                tuple(parse_term(p, sig) for p in r["premises"]),
                parse_term(r["conclusion"], sig),
            )
            for r in doc["rules"]
        )
        return RulePresented(rules, name=name)
    if kind == "matrices":
        matrices = tuple(
            Matrix(resolve(m["algebra"]), frozenset(int(d) for d in m["designated"]))
            for m in doc["matrices"]
        )
        return MatrixDetermined(matrices, doc.get("variable_bound"), name=name)
    raise InvalidSpec(f"logic {name!r}: kind must be 'rules' or 'matrices'")


def class_from_json(doc: Mapping, resolve: Resolver) -> ClassSpec:
    from .classes import Axiomatic, GeneratedQuasivariety, Quasiequation  # only a class needs congruences

    kind = doc.get("kind")
    name = doc.get("name", "")
    if kind == "generators":
        return GeneratedQuasivariety(tuple(resolve(n) for n in doc["algebras"]), name=name)
    if kind == "axioms":
        sig_ref = doc.get("signature")
        if sig_ref is None:
            if doc.get("equations") or doc.get("quasi"):
                raise InvalidSpec(f"class {name!r}: axioms need a signature reference")
            return Axiomatic(name=name)
        sig = resolve(sig_ref).signature
        equations = tuple(parse_equation(l, r, sig) for l, r in doc.get("equations", []))
        quasis = tuple(
            Quasiequation(
                tuple(parse_equation(l, r, sig) for l, r in q["if"]),
                parse_equation(q["then"][0], q["then"][1], sig),
            )
            for q in doc.get("quasi", [])
        )
        return Axiomatic(equations, quasis, name=name)
    raise InvalidSpec(f"class {name!r}: kind must be 'axioms' or 'generators'")


def _expand_candidate_term(text: str, sig: Signature, n: int, template: Mapping) -> Term:
    if template and "@fold" in text:
        fold_sym = template.get("fold")
        if fold_sym is None:
            raise InvalidSpec("term uses @fold but the template declares no fold symbol")
        empty = template.get("empty")
        if n == 0 and empty is None:
            raise InvalidSpec("@fold at n = 0 needs an 'empty' base term in the template")
        folded = fold_terms(fold_sym, xvars(n), empty=parse_term(empty, sig) if empty else None)
        text = text.replace("@fold", format_term(folded))
    return parse_term(text, sig)


def candidate_from_json(doc: Mapping, sig: Signature) -> EDCFCandidate:
    template = doc.get("template") or {}
    n_max = int(doc["n_max"])
    param_count = int(doc.get("param_count", 0))
    families = []
    for n in range(n_max + 1):
        raw_family = doc["families"].get(str(n))
        if raw_family is None:
            raise InvalidSpec(f"candidate families missing arity {n}")
        family = []
        for raw_theta in raw_family:
            eqs = []
            for raw_eq in raw_theta:
                if len(raw_eq) == 3 and raw_eq[0] == "<=":
                    eqs.append(leq(
                        _expand_candidate_term(raw_eq[1], sig, n, template),
                        _expand_candidate_term(raw_eq[2], sig, n, template),
                        template.get("leq", "join"), template.get("meet_symbol", "and"),
                        template.get("join_symbol", "or"),
                    ))
                elif len(raw_eq) == 2:
                    eqs.append(
                        Equation(
                            _expand_candidate_term(raw_eq[0], sig, n, template),
                            _expand_candidate_term(raw_eq[1], sig, n, template),
                        )
                    )
                else:
                    raise InvalidSpec(f"equation entry {raw_eq!r} not understood")
            family.append(tuple(eqs))
        families.append(tuple(family))
    candidate = EDCFCandidate(doc.get("name", "candidate"), n_max, tuple(families), param_count)
    if "variant" in doc and not candidate.matches_variant(doc["variant"]):
        raise InvalidSpec(f"candidate {candidate.name!r} does not have the {doc['variant']} shape")
    return candidate

