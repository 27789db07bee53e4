"""Deductive filters and filter generation on finite algebras.

A logic is given either by finitely many rules or by finitely many finite
matrices.  Each (algebra, logic) pair has one context for the life of the
process.  It holds subsets of the carrier as bitmasks (element e is bit e),
memoizes fg by generator mask, and computes each of its parts on first need
from that call's budget; a computation that raises leaves nothing behind.

Rule-presented filters are exact: fg iterates the one-step consequence of the
rule instances to its fixpoint, and the family is enumerated by Ganter's
NextClosure, which computes at most |A| closures per filter.

Matrix-determined filters quantify over every rule valid in the matrices; that
is reduced to a finite check through the clone of term functions in v
variables, evaluated jointly on the target algebra and on the matrix algebras:

* a subset is refuted as a filter when some clone element is entailed by the
  designated premises at an instantiation tuple yet lands outside the subset
  (always sound: each such element is a genuine valid-rule instance);
* the check is complete when v reaches the carrier size and the clone closes,
  since v variables then name every element;
* below that, exactness is certified differently: homomorphism preimages of
  designated sets and their intersections are always genuine filters, so
  whenever that lower family coincides with the unrefuted upper family the
  enumeration is provably exact.

The variable count ascends from 1 and stops at the first v that certifies;
refuting power only grows with v, so a larger v could not certify more.
Should none certify, the largest complete clone is kept.  When the
homomorphisms from the target into the matrix algebras separate its points,
the target lies in ISP of the matrix algebras and satisfies every identity
they do; its tables are then read off the term DAG of the clone on the matrix
algebras alone, which is built once per (matrix algebras, v) and shared by
every such target.  Any other target is closed jointly with the matrices.
The clone and the homomorphism search have allowances of their own, whose
exhaustion leaves the family uncertified rather than raising.

All built-in matrix logics certify on the shipped testbeds; uncertified
results are flagged so report-level verdicts can degrade to "inconclusive"
instead of overclaiming.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

from .algebras import (
    DEFAULT_BUDGET,
    Budget,
    FiniteAlgebra,
    Matrix,
    _apply_pointwise,
    _free_variables,
    _hash_fields_once,
    _leaf_table,
    as_budget,
    compile_term,
    enumerate_homomorphisms,
    quotient,
)
from .congruences import Congruence
from .errors import InvalidSpec, SizeBudgetExceeded
from .terms import Rule, rule_variables

DEFAULT_CLONE_ELEMENT_CAP = 3000
CLONE_STEP_ALLOWANCE = 2_000_000
MAX_CLONE_TABLE = 250_000


@dataclass(frozen=True)
class RulePresented:
    rules: tuple[Rule, ...]
    name: str = ""

    __hash__ = _hash_fields_once


@dataclass(frozen=True)
class MatrixDetermined:
    matrices: tuple[Matrix, ...]
    variable_bound: int | None = None
    name: str = ""

    __hash__ = _hash_fields_once

    def __post_init__(self):
        if not self.matrices:
            raise InvalidSpec("a matrix-determined logic needs at least one matrix")
        sig = self.matrices[0].algebra.signature
        if any(m.algebra.signature != sig for m in self.matrices):
            raise InvalidSpec("matrices must share a signature")
        if self.variable_bound is not None and self.variable_bound <= 0:
            raise InvalidSpec("variable_bound must be positive")


LogicSpec = RulePresented | MatrixDetermined


@dataclass(frozen=True)
class Filter:
    """A subset of a carrier known to be closed under the logic.

    Build through make_filter to have filterhood checked; the enumeration and
    generation routines construct instances for sets they have just verified.
    """

    algebra: FiniteAlgebra
    members: frozenset[int]

    def __contains__(self, element: int) -> bool:
        return element in self.members


def make_filter(algebra: FiniteAlgebra, members: Iterable[int], logic: LogicSpec) -> Filter:
    ms = frozenset(members)
    if not is_filter(algebra, ms, logic):
        raise InvalidSpec(f"{algebra.describe(ms)} is not a filter on {algebra.name!r}")
    return Filter(algebra, ms)


def _mask(elements: Iterable[int]) -> int:
    mask = 0
    for e in elements:
        mask |= 1 << e
    return mask


def _elements(mask: int) -> list[int]:
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def _by_size(mask: int) -> tuple[int, list[int]]:
    """Sort key: ascending by cardinality, then lexicographically."""
    return mask.bit_count(), _elements(mask)


def rule_valid_in_matrix(rule: Rule, matrix: Matrix, budget: Budget | int | None = None) -> bool:
    """Whether the designated set is closed under every valuation instance of
    the rule, that is, a filter of the one-rule logic."""
    one_rule = _RuleContext(matrix.algebra, RulePresented((rule,)))
    return one_rule.is_filter(_mask(matrix.designated), as_budget(budget))


# ---------------------------------------------------------------------------
# rule-presented logics


class _RuleContext:
    """A rule logic on one algebra, with what has been computed of it so far."""

    def __init__(self, algebra: FiniteAlgebra, logic: RulePresented):
        self.algebra = algebra
        self.rules = logic.rules
        self._instances: tuple[tuple[int, int], ...] | None = None
        self.memo: dict[int, frozenset[int]] = {}
        self.family: tuple[int, ...] | None = None

    def instances(self, budget: Budget) -> tuple[tuple[int, int], ...]:
        """Every valuation instance of every rule, as (premise mask, conclusion bit)."""
        if self._instances is None:
            found: set[tuple[int, int]] = set()
            for rule in self.rules:
                variables = _free_variables(rule_variables(rule), self.algebra)
                premises = [compile_term(p, self.algebra, variables, budget) for p in rule.premises]
                conclusion = compile_term(rule.conclusion, self.algebra, variables, budget)
                for point, concl in enumerate(conclusion):
                    budget.spend()
                    prem = _mask(p[point] for p in premises)
                    if not prem >> concl & 1:
                        found.add((prem, 1 << concl))
            self._instances = tuple(found)
        return self._instances

    def stages(self, mask: int, budget: Budget) -> list[int]:
        """Stages of the one-step consequence operator, first stage included."""
        instances = self.instances(budget)
        stages = [mask]
        while True:
            current = stages[-1]
            step = current
            for prem, concl in instances:
                if prem & current == prem:
                    step |= concl
            if step == current:
                return stages
            stages.append(step)

    def is_filter(self, mask: int, budget: Budget) -> bool:
        return all(concl & mask for prem, concl in self.instances(budget) if prem & mask == prem)

    def is_filter_certain(self, mask: int) -> bool:
        return True

    def certified(self, budget: Budget) -> bool:
        return True

    @property
    def has_theorem(self) -> bool:
        return self.stages(0, Budget())[-1] != 0

    def filters(self, budget: Budget) -> tuple[int, ...]:
        """NextClosure (Ganter 1984): the closed sets in lectic order, where
        the smaller element weighs more, each found from its predecessor A as
        the first closure of (A below i) + i that adds nothing below i."""
        if self.family is None:
            size = self.algebra.size
            closed = self.stages(0, budget)[-1]
            found = [closed]
            while closed != (1 << size) - 1:
                for i in reversed(range(size)):
                    bit = 1 << i
                    if closed & bit:
                        continue
                    below = closed & (bit - 1)
                    budget.spend()
                    candidate = self.stages(below | bit, budget)[-1]
                    if candidate & (bit - 1) == below:
                        closed = candidate
                        break
                found.append(closed)
            self.family = tuple(sorted(found, key=_by_size))
        return self.family


# ---------------------------------------------------------------------------
# matrix-determined logics: clone of term functions, jointly evaluated


@dataclass
class _Clone:
    """Term functions in `nvars` variables, closed jointly on some algebras.

    Element e is the term DAG node nodes[e], either (None, i) for the variable
    x{i+1} or (symbol, argument elements); tables[e] holds one table per
    algebra, indexed by valuation tuples in lexicographic order.
    """

    nvars: int
    complete: bool
    nodes: list[tuple]
    tables: list[tuple[tuple[int, ...], ...]]


def _build_clone(algebras: tuple[FiniteAlgebra, ...], nvars: int) -> _Clone:
    """Close the joint projections under all operations, within caps."""
    step = sum(alg.size**nvars for alg in algebras)
    allowance = Budget(CLONE_STEP_ALLOWANCE)
    seen: set[tuple] = set()
    nodes: list[tuple] = []
    tables: list[tuple] = []

    def add(node, tabs) -> None:
        if tabs not in seen:
            seen.add(tabs)
            nodes.append(node)
            tables.append(tabs)

    for i in range(nvars):
        add((None, i), tuple(_leaf_table(alg, nvars, (None, i)) for alg in algebras))

    complete = True
    try:
        frontier_start = 0
        while True:
            prev_count = len(tables)
            for sym, arity in algebras[0].signature.symbols:
                if arity == 0:
                    allowance.spend(step)
                    add((sym, ()), tuple(_leaf_table(alg, nvars, (sym, ())) for alg in algebras))
                    continue
                for args in itertools.product(range(prev_count), repeat=arity):
                    if frontier_start and max(args) < frontier_start:
                        continue
                    allowance.spend(step)
                    add((sym, args), tuple(
                        _apply_pointwise(alg.table(sym), alg.size, [tables[a][ci] for a in args])
                        for ci, alg in enumerate(algebras)
                    ))
                    if len(tables) > DEFAULT_CLONE_ELEMENT_CAP:
                        raise SizeBudgetExceeded("clone element cap")
            if len(tables) == prev_count:
                break
            frontier_start = prev_count
    except SizeBudgetExceeded:
        complete = False
    return _Clone(nvars, complete, nodes, tables)


@lru_cache(maxsize=None)
def _shared_clone(algebras: tuple[FiniteAlgebra, ...], nvars: int) -> _Clone:
    """_build_clone, built once: the matrix side serves every target in ISP of
    the matrices, a joint build every logic over the same matrix algebras."""
    return _build_clone(algebras, nvars)


def _evaluate_clone(target: FiniteAlgebra, shared: _Clone) -> _Clone:
    """The joint clone on the target and the shared algebras, read off the DAG.

    Valid when the target satisfies every identity of the shared algebras: two
    terms that agree there agree on the target, so the shared closure already
    lists each joint term function once, in the order a joint build finds it.
    """
    nvars = shared.nvars
    allowance = Budget(CLONE_STEP_ALLOWANCE)
    width = target.size**nvars
    mine: list[tuple[int, ...]] = []
    complete = shared.complete
    try:
        for sym, args in shared.nodes:
            allowance.spend(width)
            if sym is None or not args:
                mine.append(_leaf_table(target, nvars, (sym, args)))
            else:
                mine.append(_apply_pointwise(target.table(sym), target.size, [mine[a] for a in args]))
    except SizeBudgetExceeded:
        complete = False
    tables = [(t,) + tabs for t, tabs in zip(mine, shared.tables)]
    return _Clone(nvars, complete, shared.nodes[: len(tables)], tables)


def _subsets(size: int) -> Iterator[int]:
    """Every subset of the carrier, ascending by cardinality then lexicographically."""
    for r in range(size + 1):
        for combo in itertools.combinations(range(size), r):
            yield _mask(combo)


def _homomorphic_lower(
    algebra: FiniteAlgebra, logic: MatrixDetermined
) -> tuple[list[tuple[int, ...]], set[int]]:
    """Homomorphisms into the matrix algebras, with the lower family they give.

    The preimages of designated sets, the carrier and their intersections are
    genuine filters.  Should a search exceed its budget, the matrices from that
    one on contribute nothing.
    """
    homs: list[tuple[int, ...]] = []
    lower: set[int] = {(1 << algebra.size) - 1}
    try:
        for m in logic.matrices:
            for h in enumerate_homomorphisms(algebra, m.algebra):
                homs.append(h)
                lower.add(_mask(a for a in range(algebra.size) if h[a] in m.designated))
    except SizeBudgetExceeded:
        pass
    grew = True
    while grew:
        grew = False
        for f, g in itertools.combinations(list(lower), 2):
            meet = f & g
            if meet not in lower:
                lower.add(meet)
                grew = True
    return homs, lower


@dataclass
class _MatrixContext:
    algebra: FiniteAlgebra
    clone: _Clone
    a_tables: list[tuple[int, ...]]
    desig: list[int]
    full_mask: int
    lower: tuple[int, ...]
    has_theorem: bool | None
    exact_by_bound: bool
    # the highest variable count built, and whether that clone completed
    tried: tuple[int, bool] = (0, False)
    memo: dict[int, frozenset[int]] = field(default_factory=dict)
    family: tuple[int, ...] | None = None

    def is_filter(self, mask: int, budget: Budget) -> bool:
        return not _refuted(self, mask)

    def is_filter_certain(self, mask: int) -> bool:
        return self.exact_by_bound or mask in self.lower or _refuted(self, mask)

    def filters(self, budget: Budget) -> tuple[int, ...]:
        """Every unrefuted subset; set to the lower family once that matched."""
        if self.family is None:
            budget.check(2**self.algebra.size)
            found = []
            for ms in _subsets(self.algebra.size):
                budget.spend()
                if not _refuted(self, ms):
                    found.append(ms)
            self.family = tuple(found)
        return self.family

    def certified(self, budget: Budget) -> bool:
        return self.exact_by_bound or set(self.filters(budget)) == set(self.lower)

    def stages(self, mask: int, budget: Budget) -> list[int]:
        # the unrefuted family is the closure system of the clone's rule
        # instances: it contains the carrier and is closed under intersection
        closed = (1 << self.algebra.size) - 1
        for ms in self.filters(budget):
            if mask & ms == mask:
                closed &= ms
        return [mask, closed]


def _clone_context(
    algebra: FiniteAlgebra, logic: MatrixDetermined, clone: _Clone, hom_lower: set[int]
) -> _MatrixContext:
    # designation bitmask per clone element over all (matrix, valuation) points
    desig = []
    for tabs in clone.tables:
        bits = 0
        pos = 0
        for m, bt in zip(logic.matrices, tabs[1:]):
            for value in bt:
                if value in m.designated:
                    bits |= 1 << pos
                pos += 1
        desig.append(bits)
    npoints = sum(m.algebra.size**clone.nvars for m in logic.matrices)
    full_mask = (1 << npoints) - 1

    everywhere = any(bits == full_mask for bits in desig)
    if everywhere:
        has_theorem = True
    elif clone.complete and clone.nvars >= 1:
        # a theorem in many variables yields one in a single variable, and the
        # completed clone contains every single-variable term function
        has_theorem = False
    else:
        has_theorem = None

    # adding the empty set keeps the family closed under intersection
    lower = hom_lower | {0} if has_theorem is False else hom_lower
    return _MatrixContext(
        algebra, clone, [tabs[0] for tabs in clone.tables], desig, full_mask,
        tuple(sorted(lower, key=_by_size)), has_theorem,
        clone.complete and clone.nvars == algebra.size,
    )


def _matrix_context(algebra: FiniteAlgebra, logic: MatrixDetermined) -> _MatrixContext:
    """Context of the first variable count that certifies the filter family.

    v ascends from 1 to the bound.  It stops when the tables would outgrow
    MAX_CLONE_TABLE or a clone fails to complete, since both only get worse
    with v, and at the first v that certifies: exactly (complete at v = |A|)
    or by refuting every subset outside the lower family.  Without a
    certificate the largest complete clone is kept; with none, the constants
    alone.  A target whose homomorphisms into the matrix algebras separate its
    points lies in ISP of them, so its tables are read off the shared matrix
    clone (see the module docstring); any other target is closed jointly.
    """
    for m in logic.matrices:
        if m.algebra.signature != algebra.signature:
            raise InvalidSpec("matrix logic applied to an algebra of another signature")
    algebras = tuple(m.algebra for m in logic.matrices)
    bound = min(algebra.size, logic.variable_bound or algebra.size)
    homs, hom_lower = _homomorphic_lower(algebra, logic)
    in_isp = len({tuple(h[a] for h in homs) for a in algebra.elements()}) == algebra.size
    can_sweep = 2**algebra.size <= DEFAULT_BUDGET  # as the default budget allows filters()

    def clone_at(v: int) -> _Clone:
        if in_isp:
            return _evaluate_clone(algebra, _shared_clone(algebras, v))
        return _shared_clone((algebra,) + algebras, v)

    best = None
    tried = None
    for v in range(1, bound + 1):
        if algebra.size**v + sum(b.size**v for b in algebras) > MAX_CLONE_TABLE:
            break
        clone = clone_at(v)
        tried = (v, clone.complete)
        if not clone.complete:
            break
        best = _clone_context(algebra, logic, clone, hom_lower)
        if best.exact_by_bound:
            break
        lower = set(best.lower)
        if can_sweep and all(_refuted(best, ms) for ms in _subsets(algebra.size) if ms not in lower):
            best.family = best.lower  # every subset outside it is refuted
            break
    if best is None:
        best = _clone_context(algebra, logic, clone_at(0), hom_lower)
    best.tried = tried or (0, best.clone.complete)
    return best


def _refuted(ctx: _MatrixContext, members: int) -> bool:
    """Whether some rule valid in the matrices leads out of the subset.

    For each instantiation of the clone variables by elements, the premises
    are every clone element landing in the candidate set; an element entailed
    by them at every matrix point must land there too.
    """
    a_tables = ctx.a_tables
    desig = ctx.desig
    n = len(a_tables)
    inside = [members >> a & 1 for a in range(ctx.algebra.size)]
    for w in range(ctx.algebra.size**ctx.clone.nvars):
        mask = ctx.full_mask
        for e in range(n):
            if inside[a_tables[e][w]]:
                mask &= desig[e]
        for e in range(n):
            if not inside[a_tables[e][w]] and desig[e] & mask == mask:
                return True
    return False


# ---------------------------------------------------------------------------
# one context per (algebra, logic), and the public operations on it


_CONTEXTS: dict[tuple[FiniteAlgebra, LogicSpec], _RuleContext | _MatrixContext] = {}


def _context(algebra: FiniteAlgebra, logic: LogicSpec) -> _RuleContext | _MatrixContext:
    """The pair's context, keyed by value: equal algebras built apart share it."""
    key = (algebra, logic)
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        build = _RuleContext if isinstance(logic, RulePresented) else _matrix_context
        ctx = _CONTEXTS[key] = build(algebra, logic)
    return ctx


def is_filter(
    algebra: FiniteAlgebra,
    members: Iterable[int],
    logic: LogicSpec,
    budget: Budget | int | None = None,
) -> bool:
    """Closure of the subset under the logic.

    Exact for rule-presented logics.  For matrix-determined logics a False is
    always definitive; a True is definitive when is_filter_certain agrees.
    """
    return _context(algebra, logic).is_filter(_mask(members), as_budget(budget))


def is_filter_certain(algebra: FiniteAlgebra, members: Iterable[int], logic: LogicSpec) -> bool:
    """Whether is_filter's answer on this subset is conclusive."""
    return _context(algebra, logic).is_filter_certain(_mask(members))


def all_filters(
    algebra: FiniteAlgebra, logic: LogicSpec, budget: Budget | int | None = None
) -> list[Filter]:
    """Every filter, ascending by cardinality then lexicographically."""
    family = _context(algebra, logic).filters(as_budget(budget))
    return [Filter(algebra, frozenset(_elements(ms))) for ms in family]


def filters_certified(algebra: FiniteAlgebra, logic: LogicSpec) -> bool:
    """True when the filter enumeration (hence fg) is provably exact."""
    return _context(algebra, logic).certified(Budget())


fg_certified = filters_certified


def certification_detail(algebra: FiniteAlgebra, logic: MatrixDetermined) -> dict:
    """Why a matrix logic's filter enumeration is (un)certified.

    The highest variable count whose clone was built and whether it completed,
    then the sizes of the lower family (genuine filters) and of the unrefuted
    family (a superset of the filters); certification needs them equal.
    """
    ctx = _context(algebra, logic)
    nvars, complete = ctx.tried
    return {
        "nvars_tried": nvars,
        "clone_complete": complete,
        "lower": len(ctx.lower),
        "unrefuted": len(ctx.filters(Budget())),
    }


def fg_trace(
    algebra: FiniteAlgebra,
    generators: Iterable[int],
    logic: LogicSpec,
    budget: Budget | int | None = None,
) -> list[frozenset[int]]:
    """Stages of filter generation; the last stage is the filter."""
    stages = _context(algebra, logic).stages(_mask(generators), as_budget(budget))
    return [frozenset(_elements(stage)) for stage in stages]


def fg(
    algebra: FiniteAlgebra,
    generators: Iterable[int],
    logic: LogicSpec,
    budget: Budget | int | None = None,
) -> Filter:
    """Least filter containing the generators.

    Rule-presented: iterate the one-step consequence to fixpoint.
    Matrix-determined: least member of the filter enumeration; exact whenever
    filters_certified holds for the algebra and logic.
    """
    ctx = _context(algebra, logic)
    mask = _mask(generators)
    members = ctx.memo.get(mask)
    if members is None:
        members = ctx.memo[mask] = frozenset(_elements(ctx.stages(mask, as_budget(budget))[-1]))
    return Filter(algebra, members)


def fg_relative(
    algebra: FiniteAlgebra,
    theta: Congruence,
    generators: Iterable[int],
    logic: LogicSpec,
    budget: Budget | int | None = None,
) -> Filter:
    """Least filter containing the generators among those compatible with theta.

    Computed on the quotient and pulled back along the projection.
    """
    q, proj = quotient(algebra, theta.partition)
    image = fg(q, {proj[g] for g in generators}, logic, budget)
    members = frozenset(a for a in range(algebra.size) if proj[a] in image.members)
    return Filter(algebra, members)


def has_theorem(algebra: FiniteAlgebra, logic: LogicSpec) -> bool | None:
    """Whether the logic proves anything outright; None when undecided."""
    return _context(algebra, logic).has_theorem
