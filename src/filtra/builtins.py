"""Built-in corpus: algebras shipped as data files, plus the standard logics,
classes, candidates, and testbeds used throughout the examples and tests."""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

from . import candidates as cand
from .algebras import FiniteAlgebra, direct_product
from .checks import Testbed, generate_testbed
from .classes import ClassSpec
from .errors import UnknownName
from .logics import LogicSpec
from .serialization import algebra_from_json, class_from_json, logic_from_json


def _load_json(filename: str):
    with open(Path(__file__).parent / "data" / filename) as fh:
        return json.load(fh)


@lru_cache(maxsize=1)
def _algebras() -> dict[str, FiniteAlgebra]:
    return {doc["name"]: algebra_from_json(doc) for doc in _load_json("algebras.json")}


def algebra(name: str) -> FiniteAlgebra:
    table = _algebras()
    if name in table:
        return table[name]
    # squares of the corpus are common enough to resolve by name
    if name.endswith("^2"):
        base = algebra(name[:-2])
        return direct_product([base, base]).algebra
    raise UnknownName(f"no built-in algebra {name!r}")


def algebra_names() -> list[str]:
    return sorted(_algebras())


@lru_cache(maxsize=1)
def _logics() -> dict[str, LogicSpec]:
    return {doc["name"]: logic_from_json(doc, algebra) for doc in _load_json("logics.json")}


def logic(name: str) -> LogicSpec:
    table = _logics()
    if name not in table:
        raise UnknownName(f"no built-in logic {name!r}")
    return table[name]


def logic_names() -> list[str]:
    return sorted(_logics())


@lru_cache(maxsize=1)
def _classes() -> dict[str, ClassSpec]:
    return {doc["name"]: class_from_json(doc, algebra) for doc in _load_json("classes.json")}


def class_spec(name: str) -> ClassSpec:
    table = _classes()
    if name not in table:
        raise UnknownName(f"no built-in class {name!r}")
    return table[name]


def class_names() -> list[str]:
    return sorted(_classes())


@lru_cache(maxsize=1)
def _candidates() -> dict[str, cand.EDCFCandidate]:
    out = {}
    for c in (
        cand.kl_global(3),
        cand.lp_global(3),
        cand.pwk_local(3),
        cand.luk_local("and", k_max=4, n_max=3, name="luk-local-and"),
        cand.luk_local("odot", k_max=4, n_max=3, name="luk-local-odot"),
        cand.luk_global(1),
        cand.luk_global(2),
        cand.luk_global(3),
        cand.modal_local(k_max=4, n_max=2),
        cand.modal_global(0),
        cand.modal_global(1),
        cand.modal_global(2),
        cand.modal_global(3),
    ):
        out[c.name] = c
    return out


def candidate(name: str) -> cand.EDCFCandidate:
    table = _candidates()
    if name not in table:
        raise UnknownName(f"no built-in candidate {name!r}")
    return table[name]


def candidate_names() -> list[str]:
    return sorted(_candidates())


@lru_cache(maxsize=None)
def testbed(name: str) -> Testbed:
    if name == "k3-isp":
        return generate_testbed([algebra("K3")], 2, include_subalgebras=True)
    if name == "wk3-isp":
        return generate_testbed([algebra("WK3")], 2, include_subalgebras=True)
    if name == "mv-chains":
        return tuple(algebra(n) for n in ("L3", "L4", "L5"))
    if name == "modal-chains":
        return tuple(algebra(n) for n in ("mchain2", "mchain3", "mchain4"))
    if name == "lattices":
        return algebra("BOOL4"), algebra("M3")
    if name == "box5":
        return (algebra("box5"),)
    raise UnknownName(f"no built-in testbed {name!r}")


def testbed_names() -> list[str]:
    return ["box5", "k3-isp", "lattices", "modal-chains", "mv-chains", "wk3-isp"]
