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
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

from .errors import InvalidSpec
from .terms import App, Equation, Term, Var, _Record, variables

ThetaSet = tuple[Equation, ...]

VARIANTS = ("global", "local", "parametrized", "parametrized_local")


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


def power(symbol: str, t: Term, k: int) -> Term:
    """k-fold product t*(t*(...)) under a binary symbol, k >= 1."""
    if k < 1:
        raise InvalidSpec("power needs k >= 1")
    out = t
    for _ in range(k - 1):
        out = App(symbol, (t, out))
    return out


def boxed(t: Term, k: int) -> Term:
    """Iterated necessity: step 0 is t, step i+1 is t & box(step i)."""
    out = t
    for _ in range(k):
        out = App("and", (t, App("box", (out,))))
    return out


# ---------------------------------------------------------------------------
# built-in candidate shapes


def kl_global(n_max: int = 3) -> EDCFCandidate:
    """Meet of the generators below the join of their negations and y."""
    families = []
    for n in range(n_max + 1):
        xs = xvars(n)
        lhs = fold_terms("and", xs, empty=App("1"))
        rhs = fold_terms("or", [App("neg", (x,)) for x in xs] + [Var("y")])
        families.append(((leq(lhs, rhs, "join"),),))
    return EDCFCandidate("kl-global", n_max, tuple(tuple(f) for f in families))


def lp_global(n_max: int = 3) -> EDCFCandidate:
    """Meet of the generators and the negation of y, below y."""
    families = []
    for n in range(n_max + 1):
        lhs = fold_terms("and", xvars(n) + [App("neg", (Var("y"),))])
        families.append(((leq(lhs, Var("y"), "join"),),))
    return EDCFCandidate("lp-global", n_max, tuple(tuple(f) for f in families))


def _wk_meet(a: Term, b: Term) -> Term:
    # meet is definable from join and negation
    return App("neg", (App("or", (App("neg", (a,)), App("neg", (b,)))),))


def pwk_local(n_max: int = 3) -> EDCFCandidate:
    """y is its own excluded middle, or some subset of generators meets below y."""
    families = []
    y = Var("y")
    fixpoint = Equation(y, App("or", (y, App("neg", (y,)))))
    for n in range(n_max + 1):
        family: list[ThetaSet] = [(fixpoint,)]
        xs = xvars(n)
        for r in range(1, n + 1):
            for subset in itertools.combinations(xs, r):
                meet = functools.reduce(_wk_meet, subset)
                family.append((leq(meet, y, "join"),))
        families.append(tuple(family))
    return EDCFCandidate("pwk-local", n_max, tuple(families))


def luk_local(fold_symbol: str = "and", k_max: int = 4, n_max: int = 3) -> EDCFCandidate:
    """Some power of the folded generators sits below y."""
    families = []
    for n in range(n_max + 1):
        base = fold_terms(fold_symbol, xvars(n), empty=App("1"))
        family = tuple(
            (leq(power("odot", base, k), Var("y"), "join"),) for k in range(1, k_max + 1)
        )
        families.append(family)
    return EDCFCandidate(f"luk-local-{fold_symbol}", n_max, tuple(families))


def luk_global(k: int) -> EDCFCandidate:
    n_max = 2
    families = []
    for n in range(n_max + 1):
        base = fold_terms("and", xvars(n), empty=App("1"))
        families.append(((leq(power("odot", base, k), Var("y"), "join"),),))
    return EDCFCandidate(f"luk-global-k{k}", n_max, tuple(families))


def modal_local(k_max: int = 4, n_max: int = 2) -> EDCFCandidate:
    """Some iterated necessity of the folded generators sits below y."""
    families = []
    for n in range(n_max + 1):
        base = fold_terms("and", xvars(n), empty=App("1"))
        family = tuple(
            (leq(boxed(base, k), Var("y"), "join"),) for k in range(k_max + 1)
        )
        families.append(family)
    return EDCFCandidate("modal-local", n_max, tuple(families))


def modal_global(k: int, n_max: int = 1) -> EDCFCandidate:
    families = []
    for n in range(n_max + 1):
        base = fold_terms("and", xvars(n), empty=App("1"))
        families.append(((leq(boxed(base, k), Var("y"), "join"),),))
    return EDCFCandidate(f"modal-global-k{k}", n_max, tuple(families))
