"""Decidable membership in classes of algebras and relative congruences.

Two kinds of class description are supported: a finite axiomatic presentation
by equations and quasiequations, and the quasivariety generated by finitely
many finite algebras.  For the latter, a finite algebra belongs iff every pair
of distinct elements is separated by a homomorphism into some generator, which
characterizes embeddability into a product of generators; at finite scale
ultraproducts contribute nothing further.
"""

from __future__ import annotations

import functools
import operator

from .algebras import (
    Budget,
    FiniteAlgebra,
    _free_variables,
    as_budget,
    compile_term,
    enumerate_homomorphisms,
    holds_universally,
    quotient,
)
from .congruences import Congruence, all_congruences
from .errors import InvalidSpec
from .terms import Equation, _Record, equation_variables


class Quasiequation(_Record):
    __slots__ = _fields = ("antecedents", "consequent")

    def __init__(self, antecedents: tuple[Equation, ...], consequent: Equation):
        object.__setattr__(self, "antecedents", antecedents)
        object.__setattr__(self, "consequent", consequent)

    def variables(self) -> tuple[str, ...]:
        out: list[str] = []
        for eq in self.antecedents + (self.consequent,):
            for v in equation_variables(eq):
                if v not in out:
                    out.append(v)
        return tuple(out)


class Axiomatic(_Record):
    """The class of all algebras satisfying the listed (quasi)equations."""

    __slots__ = _fields = ("equations", "quasiequations", "name")

    def __init__(
        self,
        equations: tuple[Equation, ...] = (),
        quasiequations: tuple[Quasiequation, ...] = (),
        name: str = "",
    ):
        object.__setattr__(self, "equations", equations)
        object.__setattr__(self, "quasiequations", quasiequations)
        object.__setattr__(self, "name", name)


class GeneratedQuasivariety(_Record):
    """The quasivariety generated by finitely many finite algebras."""

    __slots__ = _fields = ("generators", "name")

    def __init__(self, generators: tuple[FiniteAlgebra, ...], name: str = ""):
        if not generators:
            raise InvalidSpec("a generated quasivariety needs at least one generator")
        sig = generators[0].signature
        if any(g.signature != sig for g in generators):
            raise InvalidSpec("generators must share a signature")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "name", name)


ClassSpec = Axiomatic | GeneratedQuasivariety


def _holds_quasiequation(
    q: Quasiequation, algebra: FiniteAlgebra, budget: Budget
) -> bool:
    variables = _free_variables(q.variables(), algebra)

    def agreement(eq: Equation) -> list[bool]:
        lhs = compile_term(eq.lhs, algebra, variables, budget)
        return list(map(operator.eq, lhs, compile_term(eq.rhs, algebra, variables, budget)))

    antecedents = [agreement(eq) for eq in q.antecedents]
    for point, holds in enumerate(agreement(q.consequent)):
        budget.spend()
        if not holds and all(a[point] for a in antecedents):
            return False
    return True


def member(
    algebra: FiniteAlgebra, spec: ClassSpec, budget: Budget | int | None = None
) -> bool:
    budget = as_budget(budget)
    if isinstance(spec, Axiomatic):
        for eq in spec.equations:
            if not holds_universally(eq, algebra, budget):
                return False
        for q in spec.quasiequations:
            if not _holds_quasiequation(q, algebra, budget):
                return False
        return True
    for g in spec.generators:
        if g.signature != algebra.signature:
            raise InvalidSpec("membership test across different signatures")
    # separating-homomorphism criterion; homs are enumerated once per generator
    hom_sets = [enumerate_homomorphisms(algebra, g, budget) for g in spec.generators]
    for a in range(algebra.size):
        for b in range(a + 1, algebra.size):
            budget.spend()
            if not any(h[a] != h[b] for homs in hom_sets for h in homs):
                return False
    return True


def k_congruences(
    algebra: FiniteAlgebra, spec: ClassSpec, budget: Budget | int | None = None
) -> tuple[Congruence, ...]:
    """Congruences whose quotient lies in the class, finer first.

    The total congruence is always among them: its quotient has one element,
    which satisfies every (quasi)equation and has no pair to separate.
    """
    budget = as_budget(budget)
    return tuple(
        theta
        for theta in all_congruences(algebra, budget)
        if member(quotient(algebra, theta.partition)[0], spec, budget)
    )


def theta_k(
    algebra: FiniteAlgebra, spec: ClassSpec, budget: Budget | int | None = None
) -> Congruence:
    """The least congruence with quotient in the class."""
    return cg_k(algebra, spec, (), budget)


def cg_k(
    algebra: FiniteAlgebra,
    spec: ClassSpec,
    pairs,
    budget: Budget | int | None = None,
) -> Congruence:
    """Least relative congruence containing the pairs; the total congruence
    contains every pair, so the meet is never over nothing."""
    above = [
        theta
        for theta in k_congruences(algebra, spec, budget)
        if all(theta.same(a, b) for a, b in pairs)
    ]
    return functools.reduce(Congruence.meet, above)
