"""Built-in corpus: algebras shipped as data files, plus the standard logics,
classes, candidates, and testbeds used throughout the examples and tests."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from . import candidates as cand
from .algebras import Budget, FiniteAlgebra, direct_product
from .checks import Testbed, generate_testbed
from .classes import ClassSpec
from .errors import UnknownName
from .logics import LogicSpec
from .serialization import algebra_from_json, class_from_json, logic_from_json


def _read(filename: str, parse) -> dict:
    with open(Path(__file__).parent / "data" / filename) as fh:
        return {doc["name"]: parse(doc) for doc in json.load(fh)}


def _isp(generator: str):
    """The generator, its square and their subalgebras, on the caller's budget."""
    return lambda budget: generate_testbed([algebra(generator, budget)], 2, include_subalgebras=True, budget=budget)


def _listed(*names: str):
    return lambda budget: tuple(algebra(n, budget) for n in names)


# each kind's table of built-in names, loaded on first lookup; a testbed's
# entry is its builder, called on the budget of the first caller
_LOADERS = {
    "algebra": lambda: _read("algebras.json", algebra_from_json),
    "logic": lambda: _read("logics.json", lambda doc: logic_from_json(doc, algebra)),
    "class": lambda: _read("classes.json", lambda doc: class_from_json(doc, algebra)),
    "candidate": lambda: {c.name: c for c in (
        cand.kl_global(), cand.lp_global(), cand.pwk_local(), cand.luk_local("and"), cand.luk_local("odot"),
        *map(cand.luk_global, (1, 2, 3)), cand.modal_local(), *map(cand.modal_global, range(4)),
    )},
    "testbed": lambda: {
        "box5": _listed("box5"),
        "k3-isp": _isp("K3"),
        "lattices": _listed("BOOL4", "M3"),
        "modal-chains": _listed("mchain2", "mchain3", "mchain4"),
        "mv-chains": _listed("L3", "L4", "L5"),
        "wk3-isp": _isp("WK3"),
    },
}
_LOADED: dict[str, dict] = {}
# squares and testbeds once built, outside the tables of names
_SQUARES: dict[str, FiniteAlgebra] = {}
_TESTBEDS: dict[str, Testbed] = {}


def _table(kind: str) -> dict:
    table = _LOADED.get(kind)
    if table is None:
        table = _LOADED[kind] = _LOADERS[kind]()
    return table


def _lookup(kind: str, name: str):
    table = _table(kind)
    if name not in table:
        raise UnknownName(f"no built-in {kind} {name!r}")
    return table[name]


def _kept(built: dict, name: str, build: Callable):
    """built[name], built on first use by build(), which spends the budget of
    the first caller; a build that raises keeps nothing."""
    if name not in built:
        built[name] = build()
    return built[name]


def algebra(name: str, budget: Budget | None = None) -> FiniteAlgebra:
    # squares of the corpus are common enough to resolve by name
    if name.endswith("^2") and name not in _table("algebra"):
        return _kept(_SQUARES, name, lambda: direct_product([algebra(name[:-2], budget)] * 2, budget).algebra)
    return _lookup("algebra", name)


def logic(name: str) -> LogicSpec:
    return _lookup("logic", name)


def class_spec(name: str) -> ClassSpec:
    return _lookup("class", name)


def candidate(name: str) -> cand.EDCFCandidate:
    return _lookup("candidate", name)


def testbed(name: str, budget: Budget | None = None) -> Testbed:
    return _kept(_TESTBEDS, name, lambda: _lookup("testbed", name)(budget))


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
