"""Classes of algebras and their relative congruences.

Two kinds of class description are supported: a finite axiomatic presentation
by equations and quasiequations, and the quasivariety generated by finitely
many finite algebras.  For the latter, a finite algebra belongs iff every pair
of distinct elements is separated by a homomorphism into some generator, which
characterizes embeddability into a product of generators; at finite scale
ultraproducts contribute nothing further.  An algebra lies in the class iff
its least relative congruence, theta_k, is the identity.

Relative congruences (those whose quotient lies in the class) are read off
the algebra itself; no quotient is built.  For a
generated class they are the meets of kernels of the homomorphisms into the
generators, searched once per generator, with the total congruence as the
empty meet.  For an axiomatic class each (quasi)equation is compiled once
into tables on the algebra, and a congruence is relative iff those tables
agree modulo it wherever the antecedents do; the least one above a set of
pairs is a fixpoint of Cg (Gorbunov, Algebraic Theory of Quasivarieties,
1998).  Each meet spends one step per element, and each reading of a table
modulo a congruence one step per point.
"""

from __future__ import annotations

from .algebras import (
    Budget,
    FiniteAlgebra,
    Table,
    _agreement,
    _canonical,
    _in_carrier,
    _lanes,
    _meet_closure,
    as_budget,
    compile_term,
    enumerate_homomorphisms,
)
from .congruences import Congruence, _finer_first, all_congruences, cg_generated
from .errors import InvalidSpec
from .terms import Equation, _Record, variables


class Quasiequation(_Record):
    __slots__ = _fields = ("antecedents", "consequent")

    def variables(self) -> tuple[str, ...]:
        equations = self.antecedents + (self.consequent,)
        return variables(*(side for eq in equations for side in (eq.lhs, eq.rhs)))


class Axiomatic(_Record):
    """The class of all algebras satisfying the listed (quasi)equations."""

    __slots__ = _fields = ("equations", "quasiequations", "name")
    _defaults = {"equations": (), "quasiequations": (), "name": ""}


class GeneratedQuasivariety(_Record):
    """The quasivariety generated by finitely many finite algebras."""

    __slots__ = _fields = ("generators", "name")

    def __init__(self, generators: tuple[FiniteAlgebra, ...], name: str = ""):
        if not generators:
            raise InvalidSpec("a generated quasivariety needs at least one generator")
        sig = generators[0].signature
        if any(g.signature != sig for g in generators):
            raise InvalidSpec("generators must share a signature")
        self._assign(generators, name)


ClassSpec = Axiomatic | GeneratedQuasivariety


def _kernels(
    algebra: FiniteAlgebra, spec: GeneratedQuasivariety, budget: Budget
) -> list[tuple[int, ...]]:
    """The distinct kernels of the homomorphisms from the algebra into the
    generators, as canonical block arrays; one search per generator, the
    first of which refuses a foreign signature before it spends."""
    kernels: dict[tuple[int, ...], None] = {}
    for g in spec.generators:
        for h in enumerate_homomorphisms(algebra, g, budget):
            kernels.setdefault(_canonical(h))
    return list(kernels)


_Axiom = tuple[list[tuple[Table, Table]], Table, Table]


def _axioms(algebra: FiniteAlgebra, spec: Axiomatic, budget: Budget) -> list[_Axiom]:
    """Each (quasi)equation as the tables of its antecedents and of the two
    sides of its consequent, compiled once on the algebra.

    Every name is a variable, as on a quotient, whose labels are bracketed
    block lists: an axiom holds on A/theta iff its consequent agrees modulo
    theta at every point where its antecedents do.
    """
    def tables(eq: Equation, names: tuple[str, ...]) -> tuple[Table, Table]:
        return (
            compile_term(eq.lhs, algebra, names, budget),
            compile_term(eq.rhs, algebra, names, budget),
        )

    axioms: list[_Axiom] = []
    for eq in spec.equations:
        axioms.append(([], *tables(eq, variables(eq.lhs, eq.rhs))))
    for q in spec.quasiequations:
        names = q.variables()
        axioms.append(([tables(eq, names) for eq in q.antecedents], *tables(q.consequent, names)))
    return axioms


def _violations(axiom: _Axiom, partition: tuple[int, ...], budget: Budget) -> int:
    """Lanes (as in _agreement) holding 1 at the points where the axiom fails
    modulo the partition: its antecedents agree there, its consequent does
    not.  One step per point."""
    antecedents, lhs, rhs = axiom
    budget.spend(len(lhs))
    failing = _agreement(lhs, rhs, partition) ^ _lanes(b"\1" * len(lhs))
    for a, b in antecedents:
        if not failing:
            break
        failing &= _agreement(a, b, partition)
    return failing


def _consequent_pairs(axiom: _Axiom, failing: int) -> set[tuple[int, int]]:
    """The values of the consequent's two sides at the lanes set in failing."""
    _, lhs, rhs = axiom
    pairs = set()
    while failing:
        bit = failing & -failing
        point = bit.bit_length() // 8
        pairs.add((lhs[point], rhs[point]))
        failing ^= bit
    return pairs


def k_congruences(
    algebra: FiniteAlgebra, spec: ClassSpec, budget: Budget | None = None
) -> tuple[Congruence, ...]:
    """Congruences whose quotient lies in the class, finer first.

    For a generated class these are the meets of kernels of homomorphisms into
    the generators, with the total congruence as the empty meet: the closure
    of {total} under meeting with each kernel, at one step per element per
    meet.  For an axiomatic class, the lattice filtered by the axioms' tables.
    The total congruence is always among them: its quotient has one element,
    which satisfies every (quasi)equation and has no pair to separate.
    """
    budget = as_budget(budget)
    if isinstance(spec, Axiomatic):
        axioms = _axioms(algebra, spec, budget)
        return tuple(
            theta
            for theta in all_congruences(algebra, budget)
            if not any(_violations(axiom, theta.partition, budget) for axiom in axioms)
        )
    kernels = _kernels(algebra, spec, budget)
    meets = _meet_closure((0,) * algebra.size, kernels, lambda a, b: _canonical(zip(a, b)), algebra.size, budget)
    return _finer_first(meets)


def theta_k(
    algebra: FiniteAlgebra, spec: ClassSpec, budget: Budget | None = None
) -> Congruence:
    """The least congruence with quotient in the class."""
    return cg_k(algebra, spec, (), budget)


def cg_k(
    algebra: FiniteAlgebra,
    spec: ClassSpec,
    pairs,
    budget: Budget | None = None,
) -> Congruence:
    """Least relative congruence containing the pairs.

    For a generated class, the meet of the kernels that identify every pair,
    or the total congruence when none does.  For an axiomatic class, the
    fixpoint of psi -> Cg(psi and the consequent pairs whose antecedents hold
    modulo psi), from Cg(pairs): every relative congruence above the pairs
    contains each stage, and the fixpoint satisfies every axiom (Gorbunov,
    Algebraic Theory of Quasivarieties, 1998).
    """
    budget = as_budget(budget)
    pairs = list(pairs)
    _in_carrier(algebra, (e for pair in pairs for e in pair))
    if isinstance(spec, Axiomatic):
        axioms = _axioms(algebra, spec, budget)
        psi = Congruence.identity(algebra.size)
        while True:
            if pairs:
                psi = cg_generated(algebra, psi.pairs() + pairs, budget)
            pairs = [
                p for axiom in axioms for p in _consequent_pairs(axiom, _violations(axiom, psi.partition, budget))
            ]
            if not pairs:
                return psi
    theta = Congruence.total(algebra.size)
    for kernel in _kernels(algebra, spec, budget):
        if all(kernel[a] == kernel[b] for a, b in pairs):
            budget.spend(algebra.size)
            theta = theta.meet(Congruence(kernel))
    return theta
