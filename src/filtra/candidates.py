"""Families of defining equation sets for compact-filter membership.

A candidate assigns to each generator count n a family of finite equation
sets over the variables x1..xn, y, and optionally parameters z1..zk.  It is
checked against a logic by comparing, cell by cell, membership in the
generated filter with satisfaction of some family member (parameters
existentially swept).

Shape conventions per variant:
  global              one equation set per n, no parameters
  local               any family size, no parameters
  parametrized        one equation set per n, parameters allowed
  parametrized_local  unrestricted

The built-in candidates are documents in data/candidates.json, read by
serialization.candidate_from_json.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InvalidSpec
from .terms import App, Equation, Term, Var, _Record, variables

ThetaSet = tuple[Equation, ...]

VARIANTS = ("global", "local", "parametrized", "parametrized_local")
# the properties checks.leibniz_probe refutes, kept beside VARIANTS so that
# the command line offers both as choices without importing checks
LEIBNIZ_MODES = ("monotone", "injective")


class EDCFCandidate(_Record):
    __slots__ = _fields = ("name", "n_max", "families", "param_count")

    def __init__(
        self, name: str, n_max: int, families: tuple[tuple[ThetaSet, ...], ...], param_count: int = 0
    ):
        if len(families) != n_max + 1:
            raise InvalidSpec(f"candidate {name!r}: {len(families)} families for n_max {n_max}")
        # variables follow the x1..xn / y / z1..zk convention; atoms outside
        # that shape are element literals resolved against labels at run time
        for n, family in enumerate(families):
            bounds = {"x": n, "z": param_count}
            for theta in family:
                for eq in theta:
                    for v in variables(eq.lhs, eq.rhs):
                        kind, index = v[0], v[1:]
                        if kind in bounds and index.isdigit() and not 1 <= int(index) <= bounds[kind]:
                            raise InvalidSpec(f"candidate {name!r}: {v} outside {kind}1..{kind}{bounds[kind]}")
        self._assign(name, n_max, families, param_count)

    def family(self, n: int) -> tuple[ThetaSet, ...]:
        if not (0 <= n <= self.n_max):
            raise InvalidSpec(f"candidate {self.name!r} materialized only up to n={self.n_max}")
        return self.families[n]

    def matches_variant(self, variant: str) -> bool:
        if variant not in VARIANTS:
            raise InvalidSpec(f"unknown variant {variant!r}")
        if variant in ("global", "parametrized"):
            if any(len(f) != 1 for f in self.families):
                return False
        if variant in ("global", "local"):
            if self.param_count != 0:
                return False
        return True


def xvars(n: int) -> list[Term]:
    return [Var(f"x{i}") for i in range(1, n + 1)]


def fold_terms(symbol: str, terms: Sequence[Term], empty: Term | None = None) -> Term:
    """Left fold of a binary symbol over the terms."""
    if not terms:
        if empty is None:
            raise InvalidSpec("empty fold needs a base term")
        return empty
    out = terms[0]
    for t in terms[1:]:
        out = App(symbol, (out, t))
    return out


def leq(lhs: Term, rhs: Term, form: str = "join", meet_symbol: str = "and", join_symbol: str = "or") -> Equation:
    """Order comparison as an equation: meet form a&b = a, join form a|b = b."""
    if form == "meet":
        return Equation(App(meet_symbol, (lhs, rhs)), lhs)
    if form == "join":
        return Equation(App(join_symbol, (lhs, rhs)), rhs)
    raise InvalidSpec(f"leq form must be 'meet' or 'join', got {form!r}")
