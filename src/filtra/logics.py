"""Deductive filters and filter generation on finite algebras.

A logic is given either by finitely many rules or by finitely many finite
matrices.  Rule-presented filters are computed exactly by closing under all
valuation instances of the rules.  Matrix-determined filters quantify over
every rule valid in the matrices; that is reduced to a finite check through
the clone of term functions in v variables, evaluated jointly on the target
algebra and on the matrix algebras:

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

All built-in matrix logics certify on the shipped testbeds; uncertified
results are flagged so report-level verdicts can degrade to "inconclusive"
instead of overclaiming.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .algebras import (
    DEFAULT_BUDGET,
    Budget,
    FiniteAlgebra,
    Matrix,
    _apply_pointwise,
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


@dataclass(frozen=True)
class MatrixDetermined:
    matrices: tuple[Matrix, ...]
    variable_bound: int | None = None
    name: str = ""

    def __post_init__(self):
        if not self.matrices:
            raise InvalidSpec("a matrix-determined logic needs at least one matrix")
        sig = self.matrices[0].algebra.signature
        if any(m.algebra.signature != sig for m in self.matrices):
            raise InvalidSpec("matrices must share a signature")
        if self.variable_bound is not None and self.variable_bound <= 0:
            raise InvalidSpec("variable_bound must be positive")


LogicSpec = RulePresented | MatrixDetermined


def logic_name(logic: LogicSpec) -> str:
    return logic.name or ("<rules>" if isinstance(logic, RulePresented) else "<matrices>")


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

    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))


def make_filter(algebra: FiniteAlgebra, members: Iterable[int], logic: LogicSpec) -> Filter:
    ms = frozenset(members)
    if not is_filter(algebra, ms, logic):
        raise InvalidSpec(f"{algebra.describe(ms)} is not a filter on {algebra.name!r}")
    return Filter(algebra, ms)


def _free_rule_variables(rule: Rule, algebra: FiniteAlgebra) -> tuple[str, ...]:
    labels = set(algebra.labels or ())
    return tuple(v for v in rule_variables(rule) if v not in labels)


def _rule_tables(rule: Rule, algebra: FiniteAlgebra, budget: Budget):
    """Compiled premise and conclusion tables over the rule's free variables."""
    variables = _free_rule_variables(rule, algebra)
    budget.check(algebra.size ** len(variables))
    premises = [compile_term(p, algebra, variables, budget) for p in rule.premises]
    return premises, compile_term(rule.conclusion, algebra, variables, budget)


def rule_valid_in_matrix(rule: Rule, matrix: Matrix, budget: Budget | int | None = None) -> bool:
    """Quantify the rule over all valuations into the matrix algebra."""
    budget = as_budget(budget)
    premises, conclusion = _rule_tables(rule, matrix.algebra, budget)
    designated = matrix.designated
    for point, concl in enumerate(conclusion):
        budget.spend()
        if concl not in designated and all(p[point] in designated for p in premises):
            return False
    return True


# ---------------------------------------------------------------------------
# rule-presented logics


@lru_cache(maxsize=None)
def _rule_instances(
    algebra: FiniteAlgebra, logic: RulePresented
) -> tuple[tuple[frozenset[int], int], ...]:
    """All valuation instances of all rules, as (premise values, conclusion)."""
    budget = Budget()
    instances: set[tuple[frozenset[int], int]] = set()
    for rule in logic.rules:
        premises, conclusion = _rule_tables(rule, algebra, budget)
        for point, concl in enumerate(conclusion):
            budget.spend()
            prem = frozenset(p[point] for p in premises)
            if concl not in prem:
                instances.add((prem, concl))
    return tuple(sorted(instances, key=lambda pc: (sorted(pc[0]), pc[1])))


def _closed_under_instances(members: frozenset[int], instances) -> bool:
    return all(concl in members for prem, concl in instances if prem <= members)


def _iterate_consequence(
    start: frozenset[int], instances
) -> list[frozenset[int]]:
    """Stages of the one-step consequence operator, first stage included."""
    stages = [start]
    current = start
    while True:
        step = set(current)
        for prem, concl in instances:
            if prem <= current:
                step.add(concl)
        nxt = frozenset(step)
        if nxt == current:
            return stages
        stages.append(nxt)
        current = nxt


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


def _build_clone(
    algebras: tuple[FiniteAlgebra, ...], nvars: int,
    element_cap: int = DEFAULT_CLONE_ELEMENT_CAP,
) -> _Clone:
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
                    if len(tables) > element_cap:
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


def _subsets(size: int) -> Iterator[frozenset[int]]:
    """Every subset of the carrier, ascending by cardinality then lexicographically."""
    for r in range(size + 1):
        for combo in itertools.combinations(range(size), r):
            yield frozenset(combo)


def _homomorphic_lower(
    algebra: FiniteAlgebra, logic: MatrixDetermined
) -> tuple[list[tuple[int, ...]], set[frozenset[int]]]:
    """Homomorphisms into the matrix algebras, with the lower family they give.

    The preimages of designated sets, the carrier and their intersections are
    genuine filters.  Should a search exceed its budget, the matrices from that
    one on contribute nothing.
    """
    homs: list[tuple[int, ...]] = []
    lower: set[frozenset[int]] = {frozenset(range(algebra.size))}
    try:
        for m in logic.matrices:
            for h in enumerate_homomorphisms(algebra, m.algebra):
                homs.append(h)
                lower.add(frozenset(a for a in range(algebra.size) if h[a] in m.designated))
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
    logic: MatrixDetermined
    clone: _Clone
    a_tables: list[tuple[int, ...]]
    desig: list[int]
    full_mask: int
    lower: tuple[frozenset[int], ...]
    has_theorem: bool | None
    exact_by_bound: bool
    # every subset outside the lower family is refuted, so the two coincide
    matched: bool = False
    # the highest variable count built, and whether that clone completed
    tried: tuple[int, bool] = (0, False)


def _clone_context(
    algebra: FiniteAlgebra, logic: MatrixDetermined, clone: _Clone, hom_lower: set[frozenset[int]]
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
    lower = hom_lower | {frozenset()} if has_theorem is False else hom_lower
    return _MatrixContext(
        algebra, logic, clone, [tabs[0] for tabs in clone.tables], desig, full_mask,
        tuple(sorted(lower, key=lambda s: (len(s), sorted(s)))), has_theorem,
        clone.complete and clone.nvars == algebra.size,
    )


@lru_cache(maxsize=None)
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
    can_sweep = 2**algebra.size <= DEFAULT_BUDGET  # as _all_filters_cached allows

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
            best.matched = True
            break
    if best is None:
        best = _clone_context(algebra, logic, clone_at(0), hom_lower)
    best.tried = tried or (0, best.clone.complete)
    return best


def _refuted(ctx: _MatrixContext, members: frozenset[int]) -> bool:
    """Whether some rule valid in the matrices leads out of the subset.

    For each instantiation of the clone variables by elements, the premises
    are every clone element landing in the candidate set; an element entailed
    by them at every matrix point must land there too.
    """
    a_tables = ctx.a_tables
    desig = ctx.desig
    n = len(a_tables)
    for w in range(ctx.algebra.size**ctx.clone.nvars):
        mask = ctx.full_mask
        for e in range(n):
            if a_tables[e][w] in members:
                mask &= desig[e]
        for e in range(n):
            if a_tables[e][w] not in members and desig[e] & mask == mask:
                return True
    return False


def _filter_status(algebra: FiniteAlgebra, members: frozenset[int], logic: MatrixDetermined):
    """(is_filter_verdict, certain) for a single subset."""
    ctx = _matrix_context(algebra, logic)
    if _refuted(ctx, members):
        return False, True
    if ctx.exact_by_bound or members in ctx.lower:
        return True, True
    return True, False


# ---------------------------------------------------------------------------
# public operations


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
    ms = frozenset(members)
    if isinstance(logic, RulePresented):
        return _closed_under_instances(ms, _rule_instances(algebra, logic))
    return _filter_status(algebra, ms, logic)[0]


def is_filter_certain(algebra: FiniteAlgebra, members: Iterable[int], logic: LogicSpec) -> bool:
    """Whether is_filter's answer on this subset is conclusive."""
    if isinstance(logic, RulePresented):
        return True
    return _filter_status(algebra, frozenset(members), logic)[1]


@lru_cache(maxsize=None)
def _all_filters_cached(algebra: FiniteAlgebra, logic: LogicSpec):
    budget = Budget()
    budget.check(2**algebra.size)
    found: list[frozenset[int]] = []
    if isinstance(logic, RulePresented):
        instances = _rule_instances(algebra, logic)
        for ms in _subsets(algebra.size):
            budget.spend()
            if _closed_under_instances(ms, instances):
                found.append(ms)
        return tuple(found), True
    ctx = _matrix_context(algebra, logic)
    if ctx.matched:
        return ctx.lower, True
    for ms in _subsets(algebra.size):
        budget.spend()
        if not _refuted(ctx, ms):
            found.append(ms)
    certified = ctx.exact_by_bound or set(found) == set(ctx.lower)
    return tuple(found), certified


def all_filters(
    algebra: FiniteAlgebra, logic: LogicSpec, budget: Budget | int | None = None
) -> list[Filter]:
    """Every filter, ascending by cardinality then lexicographically."""
    families, _ = _all_filters_cached(algebra, logic)
    return [Filter(algebra, ms) for ms in families]


def filters_certified(algebra: FiniteAlgebra, logic: LogicSpec) -> bool:
    """True when the filter enumeration (hence fg) is provably exact."""
    return _all_filters_cached(algebra, logic)[1]


def certification_detail(algebra: FiniteAlgebra, logic: MatrixDetermined) -> dict:
    """Why a matrix logic's filter enumeration is (un)certified.

    The highest variable count whose clone was built and whether it completed,
    then the sizes of the lower family (genuine filters) and of the unrefuted
    family (a superset of the filters); certification needs them equal.
    """
    ctx = _matrix_context(algebra, logic)
    nvars, complete = ctx.tried
    return {
        "nvars_tried": nvars,
        "clone_complete": complete,
        "lower": len(ctx.lower),
        "unrefuted": len(_all_filters_cached(algebra, logic)[0]),
    }


def fg_trace(
    algebra: FiniteAlgebra,
    generators: Iterable[int],
    logic: LogicSpec,
    budget: Budget | int | None = None,
) -> list[frozenset[int]]:
    """Stages of filter generation; the last stage is the filter."""
    start = frozenset(generators)
    if isinstance(logic, RulePresented):
        return _iterate_consequence(start, _rule_instances(algebra, logic))
    return [start, fg(algebra, start, logic, budget).members]


@lru_cache(maxsize=None)
def _fg_cached(algebra: FiniteAlgebra, generators: frozenset[int], logic: LogicSpec) -> frozenset[int]:
    if isinstance(logic, RulePresented):
        return _iterate_consequence(generators, _rule_instances(algebra, logic))[-1]
    # the unrefuted family is the closure system of the clone's rule
    # instances: it contains the carrier and is closed under intersection
    families, _ = _all_filters_cached(algebra, logic)
    inter = frozenset(range(algebra.size))
    for ms in families:
        if generators <= ms:
            inter &= ms
    return inter


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
    return Filter(algebra, _fg_cached(algebra, frozenset(generators), logic))


def fg_certified(algebra: FiniteAlgebra, logic: LogicSpec) -> bool:
    if isinstance(logic, RulePresented):
        return True
    return filters_certified(algebra, logic)


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
    if isinstance(logic, RulePresented):
        return any(not r.premises for r in logic.rules) or bool(
            _iterate_consequence(frozenset(), _rule_instances(algebra, logic))[-1]
        )
    return _matrix_context(algebra, logic).has_theorem
