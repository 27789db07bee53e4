"""Built-in corpus: algebras, logics, classes and candidates shipped as data
files, plus the testbeds used throughout the examples and tests.

Reading names builds nothing.  An object is built from its document on its
first lookup, on the budget of the first caller; serialization, and checks for
a testbed, are imported by the first build that needs them."""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .algebras import Budget, FiniteAlgebra, direct_product
from .errors import UnknownName

if TYPE_CHECKING:
    from .candidates import EDCFCandidate
    from .checks import Testbed
    from .classes import ClassSpec
    from .logics import LogicSpec

# each kind's table of names, mapping each to its document; a file is read
# on the first use of its kind
_FILES = {
    "algebra": "algebras.json", "logic": "logics.json", "class": "classes.json", "candidate": "candidates.json",
}
_DOCS: dict[str, dict] = {
    # a testbed lists its algebras as they are, or closes one generator under
    # squares and subalgebras ("isp")
    "testbed": {
        "box5": {"algebras": ["box5"]},
        "k3-isp": {"isp": "K3"},
        "lattices": {"algebras": ["BOOL4", "M3"]},
        "modal-chains": {"algebras": ["mchain2", "mchain3", "mchain4"]},
        "mv-chains": {"algebras": ["L3", "L4", "L5"]},
        "wk3-isp": {"isp": "WK3"},
    },
}
# objects once built, by (kind, name); squares X^2 among them, which no
# table of names lists
_BUILT: dict[tuple[str, str], object] = {}


def _table(kind: str) -> dict:
    table = _DOCS.get(kind)
    if table is None:
        with open(Path(__file__).parent / "data" / _FILES[kind]) as fh:
            table = _DOCS[kind] = {doc["name"]: doc for doc in json.load(fh)}
    return table


def _doc(kind: str, name: str) -> dict:
    table = _table(kind)
    if name not in table:
        raise UnknownName(f"no built-in {kind} {name!r}")
    return table[name]


def _kept(kind: str, name: str, build: Callable):
    """The object `name` of `kind`, built by build() on its first lookup and
    kept, so that a second lookup returns it; a build that raises keeps nothing."""
    key = (kind, name)
    if key not in _BUILT:
        _BUILT[key] = build()
    return _BUILT[key]


def algebra(name: str, budget: Budget | None = None) -> FiniteAlgebra:
    from .serialization import algebra_from_json

    root = name.removesuffix("^2")
    # squares of the corpus are common enough to resolve by name
    if name not in _table("algebra") and root in _table("algebra"):
        return _kept("algebra", name, lambda: direct_product([algebra(root, budget)] * 2, budget).algebra)
    return _kept("algebra", name, lambda: algebra_from_json(_doc("algebra", name)))


def logic(name: str) -> LogicSpec:
    from .serialization import logic_from_json

    return _kept("logic", name, lambda: logic_from_json(_doc("logic", name), algebra))


def class_spec(name: str) -> ClassSpec:
    from .serialization import class_from_json

    return _kept("class", name, lambda: class_from_json(_doc("class", name), algebra))


def candidate(name: str) -> EDCFCandidate:
    from .serialization import candidate_from_json, signature_from_json

    def build():
        # the signature is read off the algebra's document, which builds nothing
        doc = _doc("candidate", name)
        algebra_doc = _doc("algebra", doc["signature"].removesuffix("^2"))
        return candidate_from_json(doc, signature_from_json(algebra_doc["signature"]))

    return _kept("candidate", name, build)


def testbed(name: str, budget: Budget | None = None) -> Testbed:
    def build():
        doc = _doc("testbed", name)
        if "algebras" in doc:
            return tuple(algebra(n, budget) for n in doc["algebras"])
        from .checks import generate_testbed

        return generate_testbed([algebra(doc["isp"], budget)], 2, include_subalgebras=True, budget=budget)

    return _kept("testbed", name, build)


def algebra_names() -> list[str]:
    return sorted(_table("algebra"))


def logic_names() -> list[str]:
    return sorted(_table("logic"))


def class_names() -> list[str]:
    return sorted(_table("class"))


def candidate_names() -> list[str]:
    return sorted(_table("candidate"))


def testbed_names() -> list[str]:
    return sorted(_table("testbed"))
