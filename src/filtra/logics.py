"""Deductive filters and filter generation on finite algebras.

A logic is given either by finitely many rules or by finitely many finite
matrices; a signature stands for the rules of its operations.  Each (algebra,
logic) pair has one context for the life of the process, built from the
budget of the call that first needs it; a build that raises leaves nothing
behind.  A read finds it in one dict probe by the identity of the pair:
FiniteAlgebra.make returns one object per value, so equal algebras are one
object and share it.  It holds subsets of the carrier
as bitmasks (element e is bit e) and one consequence step: the elements a
subset's members yield outside it.  Only the step depends on how the logic is
given.  fg iterates it to its fixpoint (fg_trace lists the stages), is_filter
asks whether it adds nothing, and Ganter's NextClosure enumerates its closed
sets with at most |A| closures per closed set.  Once that family is known, fg
and is_filter read it instead.  Each closed set has one Filter: fg memoizes it
under its mask and every generator mask asked, and all_filters returns it.
fg_relative alternates fg with saturation by a congruence's blocks, in the
same context.  Every step spends the budget of the call that takes it, by the
work it does, so a cold fg or is_filter reads its budget, while a warm one (a
memo hit, or a known family) takes no step and spends nothing.  An element
outside the carrier is refused by name wherever a call computes, a negative
one everywhere; a warm read adds no check, since no memo holds such an
element and a known family answers is_filter False.

Rule-presented filters are exact: a step adds the conclusion of each
valuation instance of a rule whose premises lie in the subset.  Instances
sharing a premise set are kept as one entry, watched by its highest premise
element; a step spends one step per entry its members watch.  A signature
gives one rule x1, ..., xk |- f(x1, ..., xk) per symbol f, a constant an axiom,
so its filters are the subuniverses, the empty one included when there is no
constant, and fg(A, X, A.signature) is the subuniverse X generates (Sg is an
algebraic closure operator; Burris & Sankappanavar 1981).

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

The matrix step is refutation, read off rows built once per context: one per
valuation of the clone variables in the target, each holding the meet of the
designation masks landing on every element and the maximal masks landing on
it.  The unrefuted subsets are its closed sets; certification stops at the
first closed set outside the lower family.  Building the rows spends one
step of the caller's budget per clone element and valuation, each matrix step
one per row it scans, and NextClosure one per closure besides its steps.

The variable count ascends from 1 and stops at the first v that certifies;
refuting power only grows with v, so a larger v could not certify more.
Should none certify, the largest complete clone is kept.  When the
homomorphisms from the target into the matrix algebras separate its points,
the target lies in ISP of the matrix algebras and satisfies every identity
they do; its tables are then read off the term DAG of the clone on the matrix
algebras alone, which is built once per (matrix algebras, v) and shared by
every such target.  Any other target is closed jointly with the matrices.
The clone, its evaluation on the target and the homomorphism search spend
the caller's budget like every other layer, pricing the clone per lane of 256
positions; only the element cap and MAX_CLONE_TABLE leave a family
uncertified, while running out of budget raises.

All built-in matrix logics certify on the shipped testbeds; uncertified
results are flagged so report-level verdicts can degrade to "inconclusive"
instead of overclaiming.
"""

from __future__ import annotations

import itertools
import operator
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .algebras import (
    Budget,
    FiniteAlgebra,
    Matrix,
    Table,
    _apply_pointwise,
    _by_size,
    _codec,
    _elements,
    _free_variables,
    _in_carrier,
    _leaf_table,
    _mask,
    _meet_closure,
    as_budget,
    compile_term,
    enumerate_homomorphisms,
    next_closure,
)
from .errors import InvalidSpec
from .terms import Signature, _hash_fields_once, _Record, variables

if TYPE_CHECKING:
    from .congruences import Congruence

DEFAULT_CLONE_ELEMENT_CAP = 3000
MAX_CLONE_TABLE = 250_000


class RulePresented(_Record):
    _fields = ("rules", "name")
    _defaults = {"name": ""}

    __hash__ = _hash_fields_once


class MatrixDetermined(_Record):
    _fields = ("matrices", "variable_bound", "name")

    def __init__(
        self, matrices: tuple[Matrix, ...], variable_bound: int | None = None, name: str = ""
    ):
        if not matrices:
            raise InvalidSpec("a matrix-determined logic needs at least one matrix")
        sig = matrices[0].algebra.signature
        if any(m.algebra.signature != sig for m in matrices):
            raise InvalidSpec("matrices must share a signature")
        if variable_bound is not None and variable_bound <= 0:
            raise InvalidSpec("variable_bound must be positive")
        self._assign(matrices, variable_bound, name)

    __hash__ = _hash_fields_once


# a signature stands for the rules x1, ..., xk |- f(x1, ..., xk) of its
# operations, whose filters are the subuniverses
LogicSpec = RulePresented | MatrixDetermined | Signature


class Filter(_Record):
    """A subset of a carrier known to be closed under the logic.

    A context builds one per closed set it verified, naming the context's algebra.
    """

    __slots__ = _fields = ("algebra", "members")


# ---------------------------------------------------------------------------
# the filter context of one (algebra, logic) pair


class _Context:
    """A logic on one algebra, with what has been computed of it so far.

    step(mask, budget) is the set of elements one consequence step adds
    outside the subset, spending from the budget the work it does; only it
    depends on how the logic is given.  The closed sets of the operator it
    iterates to are the filters of a rule logic and the unrefuted family of a
    matrix logic.  Once the family is known, closures and filterhood are read
    off it.  A context outlives the calls that read it, so each call hands
    its own budget to what it computes.
    """

    def __init__(
        self,
        algebra: FiniteAlgebra,
        logic: LogicSpec,
        step: Callable[[int, Budget], int],
        exact: bool | None = True,
        lower: Iterable[int] = (),
        clone: _Clone | None = None,
    ):
        self.algebra = algebra
        self.logic = logic
        self.step = step
        # whether the closed sets are the filter family: always for rules; for
        # a matrix logic True from the start when the clone is complete at
        # v = |A|, else known once certified() ran
        self.exact = exact
        # genuine filters, for a matrix logic, sorted by size
        self.lower = dict.fromkeys(lower)
        self.clone = clone
        # the highest variable count built, and whether that clone completed
        self.tried = (0, False)
        self.memo: dict[int, Filter] = {}  # fg by generator mask, one Filter per closed set
        # the closed sets once known, sorted by size: close scans them, is_filter probes them
        self.family: dict[int, None] | None = None

    def stages(self, mask: int, budget: Budget) -> list[int]:
        """Stages of the one-step consequence, first stage included."""
        stages = [mask]
        while added := self.step(stages[-1], budget):
            stages.append(stages[-1] | added)
        return stages

    def close(self, mask: int, budget: Budget) -> int:
        """The last stage, or with the family known its first member above the
        mask: the least, as the family is sorted by size and closed under meets."""
        if self.family is None:
            return self.stages(mask, budget)[-1]
        return next(ms for ms in self.family if mask & ms == mask)

    def filter(self, closed: int) -> Filter:
        """The one Filter of a closed set, memoized as its own fg."""
        if closed not in self.memo:
            self.memo[closed] = Filter(self.algebra, frozenset(_elements(closed)))
        return self.memo[closed]

    def filters(self, budget: Budget) -> dict[int, None]:
        """The closed sets; the lower family once that matched them."""
        if self.family is None:
            closed = next_closure(self.algebra.size, self.close, budget)
            self.family = dict.fromkeys(sorted(closed, key=_by_size))
        return self.family

    def certified(self, budget: Budget) -> bool:
        """Exact from the start, or NextClosure meets no closed set outside
        the lower family (it stops at the first it meets)."""
        if self.exact is None:
            closed = next_closure(self.algebra.size, self.close, budget)
            self.exact = all(ms in self.lower for ms in closed)
            if self.exact:
                self.family = self.lower
        return self.exact


# ---------------------------------------------------------------------------
# rule-presented logics


def _rule_tables(
    algebra: FiniteAlgebra, logic: RulePresented | Signature, budget: Budget
) -> Iterator[tuple[list[Table], Table]]:
    """Each rule's premise tables and conclusion table, over its valuations.
    A signature's rule x1, ..., xk |- f(x1, ..., xk) reads the k projections,
    paid at their widths before they are built, and f's own table: no term is
    compiled, so no element label can stand in for a variable."""
    if isinstance(logic, Signature):
        for sym, arity in logic.symbols:
            budget.spend(arity * algebra.size**arity)
            yield [_leaf_table(algebra, arity, (None, i)) for i in range(arity)], algebra.table(sym)
        return
    for rule in logic.rules:
        names = _free_variables(variables(*rule.premises, rule.conclusion), algebra)
        *premises, conclusion = [
            compile_term(t, algebra, names, budget)
            for t in rule.premises + (rule.conclusion,)
        ]
        yield premises, conclusion


def _rule_context(algebra: FiniteAlgebra, logic: RulePresented | Signature, budget: Budget) -> _Context:
    """The context whose step reads the valuation instances of the rules, or
    of a signature's operations, whose closed sets are the subuniverses.

    Each rule's tables are built once, spending one budget step per
    valuation besides their widths.  The instances are kept as one entry per
    distinct premise mask, holding the OR of the conclusions it yields; the
    instances with no premise, the axioms, fold into one mask that every step
    adds.  Every other entry is watched by its highest premise element, which
    lies in each subset holding its premises, so a step visits only the
    entries its members watch (LinClosure, Beeri & Bernstein 1979, indexes
    implications by premise for the same reason) and spends one step each.
    """
    bits = [1 << e for e in range(algebra.size)]
    conclusions: dict[int, int] = {}
    for premises, conclusion in _rule_tables(algebra, logic, budget):
        budget.spend(len(conclusion))
        masks = itertools.repeat(0, len(conclusion))  # the premise mask of each valuation
        for table in premises:
            masks = map(operator.or_, masks, map(bits.__getitem__, table))
        for prem, concl in set(zip(masks, conclusion)):
            if not prem >> concl & 1:
                conclusions[prem] = conclusions.get(prem, 0) | bits[concl]
    axioms = conclusions.pop(0, 0)
    watched: dict[int, list[tuple[int, int]]] = {}  # by the bit of the highest premise
    for prem, concl in conclusions.items():
        watched.setdefault(1 << prem.bit_length() - 1, []).append((prem, concl))
    watching = sum(watched)

    def step(mask: int, budget: Budget) -> int:
        """The axioms and the conclusions of the entries whose premises lie in
        the subset, outside it."""
        added = axioms
        visited = 0
        rest = mask & watching
        while rest:
            bit = rest & -rest
            rest ^= bit
            entries = watched[bit]
            visited += len(entries)
            for prem, concl in entries:
                if prem & mask == prem:
                    added |= concl
        budget.spend(visited)
        return added & ~mask

    return _Context(algebra, logic, step)


# ---------------------------------------------------------------------------
# matrix-determined logics: clone of term functions, jointly evaluated


class _Clone(_Record):
    """Term functions in `nvars` variables, closed jointly on some algebras.

    Element e is the term DAG node nodes[e], either (None, i) for the variable
    x{i+1} or (symbol, argument elements); tables[e] holds one table per
    algebra, indexed by valuation tuples in lexicographic order: bytes when
    no algebra of the build exceeds 256 elements, tuples otherwise.
    """

    __slots__ = _fields = ("nvars", "complete", "nodes", "tables")


def _build_clone(algebras: tuple[FiniteAlgebra, ...], nvars: int, budget: Budget) -> _Clone:
    """Close the joint projections under all operations, within caps.

    An element is one flat key over every (algebra, valuation) position, a
    bytes object when every value fits in a byte.  Each round applies the
    operations to the elements known when it starts, the argument tuples in
    lexicographic order, skipping those that use no element of the previous
    round's frontier.  The tuples sharing all but the last argument form a
    block: each position reads the table row its prefix selects and maps it
    over the last argument's column.  A block spends, before it is built, one
    step per tuple and lane of 256 positions.  The clone is left incomplete
    only when it outgrows the element cap.
    """
    _, table_row, gather, join = _codec(max(alg.size for alg in algebras))
    widths = [alg.size**nvars for alg in algebras]
    step = sum(widths)
    lanes = -(-step // 256)
    owner = [ci for ci, width in enumerate(widths) for _ in range(width)]
    sizes = [algebras[ci].size for ci in owner]
    seen: set = set()
    nodes: list[tuple] = []
    keys: list = []

    def add(node: tuple, key) -> None:
        if key not in seen:
            seen.add(key)
            nodes.append(node)
            keys.append(key)

    def leaf(node: tuple):
        return join([_leaf_table(a, nvars, node) for a in algebras])

    for i in range(nvars):
        add((None, i), leaf((None, i)))

    def closes() -> bool:
        """Run the rounds; False once the element cap is passed."""
        frontier_start = 0
        while True:
            prev_count = len(keys)
            everything = join(keys)
            columns = [everything[p::step] for p in range(step)]  # columns[p][e]
            fresh = [column[frontier_start:] for column in columns]
            for sym, arity in algebras[0].signature.symbols:
                if arity == 0:
                    budget.spend(lanes)
                    add((sym, ()), leaf((sym, ())))
                    continue
                rows_of = []
                for alg in algebras:
                    table, n = alg.table(sym), alg.size
                    rows_of.append([table_row(table[r : r + n]) for r in range(0, len(table), n)])
                rows = [rows_of[ci] for ci in owner]
                for prefix in itertools.product(range(prev_count), repeat=arity - 1):
                    lo = 0 if prefix and max(prefix) >= frontier_start else frontier_start
                    count = prev_count - lo
                    budget.spend(count * lanes)
                    index = [0] * step
                    for a in prefix:
                        index = [i * n + v for i, n, v in zip(index, sizes, keys[a])]
                    selected = map(list.__getitem__, rows, index)
                    source = fresh if lo else columns
                    joined = join(map(gather, source, selected))
                    block = [joined[j::count] for j in range(count)]
                    if not seen.issuperset(block):
                        for last, key in enumerate(block, lo):
                            add((sym, prefix + (last,)), key)
                            if len(keys) > DEFAULT_CLONE_ELEMENT_CAP:
                                return False
                    elif len(keys) > DEFAULT_CLONE_ELEMENT_CAP:
                        return False  # a constant went over
            if len(keys) == prev_count:
                return True
            frontier_start = prev_count

    complete = closes()
    bounds = list(itertools.accumulate(widths, initial=0))
    tables = [tuple(key[i:j] for i, j in zip(bounds, bounds[1:])) for key in keys]
    return _Clone(nvars, complete, nodes, tables)


_CLONES: dict[tuple[tuple[FiniteAlgebra, ...], int], _Clone] = {}


def _shared_clone(algebras: tuple[FiniteAlgebra, ...], nvars: int, budget: Budget) -> _Clone:
    """_build_clone, built once: the matrix side serves every target in ISP of
    the matrices, a joint build every logic over the same matrix algebras.
    Stored only once built, from the budget of the call that first needs it."""
    if (algebras, nvars) not in _CLONES:
        _CLONES[algebras, nvars] = _build_clone(algebras, nvars, budget)
    return _CLONES[algebras, nvars]


def _evaluate_clone(target: FiniteAlgebra, shared: _Clone, budget: Budget) -> _Clone:
    """The joint clone on the target and the shared algebras, read off the DAG.

    Valid when the target satisfies every identity of the shared algebras: two
    terms that agree there agree on the target, so the shared closure already
    lists each joint term function once, in the order a joint build finds it.
    Each node spends one step per lane of 256 valuations.
    """
    nvars = shared.nvars
    lanes = -(-(target.size**nvars) // 256)
    mine: list[Table] = []
    for sym, args in shared.nodes:
        budget.spend(lanes)
        if sym is None or not args:
            mine.append(_leaf_table(target, nvars, (sym, args)))
        else:
            mine.append(_apply_pointwise(target, sym, [mine[a] for a in args]))
    tables = [(t,) + tabs for t, tabs in zip(mine, shared.tables)]
    return _Clone(nvars, shared.complete, shared.nodes, tables)


def _homomorphic_lower(
    algebra: FiniteAlgebra, logic: MatrixDetermined, budget: Budget
) -> tuple[list[tuple[int, ...]], set[int]]:
    """Homomorphisms into the matrix algebras, with the lower family they give.

    The preimages of designated sets, the carrier and their intersections are
    genuine filters: the closure of {carrier} under meeting with each
    preimage, at one step per meet.
    """
    homs: list[tuple[int, ...]] = []
    preimages: set[int] = set()
    for m in logic.matrices:
        for h in enumerate_homomorphisms(algebra, m.algebra, budget):
            homs.append(h)
            preimages.add(_mask(a for a in range(algebra.size) if h[a] in m.designated))
    return homs, _meet_closure((1 << algebra.size) - 1, preimages, operator.and_, 1, budget)


def _clone_context(
    algebra: FiniteAlgebra,
    logic: MatrixDetermined,
    clone: _Clone,
    hom_lower: set[int],
    budget: Budget,
) -> _Context:
    """The context whose step reads rows built from the clone.

    Each row stands for valuations of the clone variables in the algebra and
    holds, over the matrix points, meets[a]: the meet of the designation
    masks of the clone elements landing on a, and kept: the pairs
    (designation mask, bit of b) of the maximal masks landing on b.  A subset's
    premises are designated at the meet of its members' masks; one step adds
    every b with a kept mask containing it (a valid-rule instance leading out
    of the subset).  The subsets one step leaves alone are the unrefuted
    family.
    """
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

    # a theorem in many variables yields one in a single variable, and the
    # completed clone contains every single-variable term function
    no_theorem = clone.complete and clone.nvars >= 1 and full_mask not in desig

    # one row per valuation of the clone variables in the algebra, each
    # spending one step per clone element; a mask inside another landing on
    # the same element adds nothing, so elements are visited by decreasing
    # mask size and each kept only if no kept mask there contains it
    order = sorted(range(len(desig)), key=lambda e: -desig[e].bit_count())
    ordered = [desig[e] for e in order]
    rows = {}
    for values in zip(*(clone.tables[e][0] for e in order)):
        budget.spend(len(desig))
        meets = [full_mask] * algebra.size
        tops: list[list[int]] = [[] for _ in range(algebra.size)]
        for a, bits in zip(values, ordered):
            meets[a] &= bits
            for t in tops[a]:
                if bits & t == bits:
                    break
            else:
                tops[a].append(bits)
        kept = tuple((bits, 1 << a) for a, top in enumerate(tops) for bits in top)
        rows[tuple(meets), kept] = None  # equal rows are kept once

    def step(mask: int, budget: Budget) -> int:
        """The elements outside the subset that some row adds, one budget
        step per row."""
        budget.spend(len(rows))
        members = _elements(mask)
        added = 0
        for meets, kept in rows:
            premises = full_mask
            for a in members:
                premises &= meets[a]
            for designated, bit in kept:
                if designated & premises == premises:
                    added |= bit
        return added & ~mask

    # adding the empty set keeps the family closed under intersection
    lower = hom_lower | {0} if no_theorem else hom_lower
    return _Context(
        algebra, logic, step,
        True if clone.complete and clone.nvars == algebra.size else None,
        sorted(lower, key=_by_size), clone,
    )


def _matrix_context(algebra: FiniteAlgebra, logic: MatrixDetermined, budget: Budget) -> _Context:
    """Context of the first variable count that certifies the filter family.

    v ascends from 1 to the bound.  It stops when the tables would outgrow
    MAX_CLONE_TABLE or a clone fails to complete, since both only get worse
    with v, and at the first v that certifies: exactly (complete at v = |A|)
    or by NextClosure meeting no unrefuted subset outside the lower family.
    Without a certificate the largest complete clone is kept; with none, the
    constants alone.  A target whose homomorphisms into the matrix algebras
    separate its points lies in ISP of them, so its tables are read off the
    shared matrix clone (see the module docstring); any other target is
    closed jointly.  Every layer, from the homomorphisms to the certification,
    spends the caller's budget.
    """
    algebras = tuple(m.algebra for m in logic.matrices)
    bound = min(algebra.size, logic.variable_bound or algebra.size)
    homs, hom_lower = _homomorphic_lower(algebra, logic, budget)
    in_isp = len({tuple(h[a] for h in homs) for a in range(algebra.size)}) == algebra.size

    def clone_at(v: int) -> _Clone:
        if in_isp:
            return _evaluate_clone(algebra, _shared_clone(algebras, v, budget), budget)
        return _shared_clone((algebra,) + algebras, v, budget)

    best = None
    tried = None
    for v in range(1, bound + 1):
        if algebra.size**v + sum(b.size**v for b in algebras) > MAX_CLONE_TABLE:
            break
        clone = clone_at(v)
        tried = (v, clone.complete)
        if not clone.complete:
            break
        best = _clone_context(algebra, logic, clone, hom_lower, budget)
        if best.certified(budget):
            break
    if best is None:
        best = _clone_context(algebra, logic, clone_at(0), hom_lower, budget)
    best.tried = tried or (0, best.clone.complete)
    return best


# ---------------------------------------------------------------------------
# one context per (algebra, logic), and the public operations on it


# keyed by (id(algebra), id(logic)); each context holds its algebra and its
# logic alive, so their ids stay theirs
_CONTEXTS: dict[tuple[int, int], _Context] = {}


def _context(algebra: FiniteAlgebra, logic: LogicSpec, budget: Budget | None) -> _Context:
    """The pair's context, found by identity without hashing either object.
    Equal algebras from FiniteAlgebra.make are one object, so they share it;
    an algebra or logic built some other way gets a context of its own, with
    the same answers.  A build, by the call that first needs it, spends that
    call's budget; it is stored once built."""
    key = (id(algebra), id(logic))
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        build = _matrix_context if isinstance(logic, MatrixDetermined) else _rule_context
        ctx = _CONTEXTS[key] = build(algebra, logic, as_budget(budget))
    return ctx


def is_filter(
    algebra: FiniteAlgebra,
    members: Iterable[int],
    logic: LogicSpec,
    budget: Budget | None = None,
) -> bool:
    """Closure of the subset under the logic.

    Exact for rule-presented logics.  For matrix-determined logics a False is
    always definitive; a True is definitive when is_filter_certain agrees.
    The family, or fg's memo, answers without a step: the subset is closed
    when its closure is no larger.
    """
    # a cold context and its first step spend one budget
    ctx = _CONTEXTS.get((id(algebra), id(logic))) or _context(algebra, logic, budget := as_budget(budget))
    mask = 0
    try:
        for e in members:
            mask |= 1 << e
    except ValueError:  # a negative shift count
        _in_carrier(algebra, [e])
        raise
    if ctx.family is not None:
        return mask in ctx.family
    f = ctx.memo.get(mask)
    if f is not None:
        return len(f.members) == mask.bit_count()
    if mask >> algebra.size:
        _in_carrier(algebra, _elements(mask))
    return not ctx.step(mask, as_budget(budget))


def is_filter_certain(
    algebra: FiniteAlgebra,
    members: Iterable[int],
    logic: LogicSpec,
    budget: Budget | None = None,
) -> bool:
    """Whether is_filter's answer on this subset is conclusive."""
    budget = as_budget(budget)
    ctx = _context(algebra, logic, budget)
    mask = _mask(_in_carrier(algebra, members))
    return bool(ctx.exact) or mask in ctx.lower or bool(ctx.step(mask, budget))


def all_filters(
    algebra: FiniteAlgebra, logic: LogicSpec, budget: Budget | None = None
) -> list[Filter]:
    """Every filter, ascending by cardinality then lexicographically."""
    budget = as_budget(budget)
    ctx = _context(algebra, logic, budget)
    return [ctx.filter(ms) for ms in ctx.filters(budget)]


def filters_certified(
    algebra: FiniteAlgebra, logic: LogicSpec, budget: Budget | None = None
) -> bool:
    """True when the filter enumeration (hence fg) is provably exact."""
    budget = as_budget(budget)
    return _context(algebra, logic, budget).certified(budget)


fg_certified = filters_certified


def certification_detail(
    algebra: FiniteAlgebra, logic: MatrixDetermined, budget: Budget | None = None
) -> dict:
    """Why a matrix logic's filter enumeration is (un)certified.

    The highest variable count whose clone was built and whether it completed,
    then the sizes of the lower family (genuine filters) and of the unrefuted
    family (a superset of the filters); certification needs them equal.
    """
    budget = as_budget(budget)
    ctx = _context(algebra, logic, budget)
    nvars, complete = ctx.tried
    return {
        "nvars_tried": nvars,
        "clone_complete": complete,
        "lower": len(ctx.lower),
        "unrefuted": len(ctx.filters(budget)),
    }


def fg_trace(
    algebra: FiniteAlgebra,
    generators: Iterable[int],
    logic: LogicSpec,
    budget: Budget | None = None,
) -> list[frozenset[int]]:
    """Stages of filter generation; the last stage is the filter."""
    budget = as_budget(budget)
    stages = _context(algebra, logic, budget).stages(_mask(_in_carrier(algebra, generators)), budget)
    return [frozenset(_elements(stage)) for stage in stages]


def fg(
    algebra: FiniteAlgebra,
    generators: Iterable[int],
    logic: LogicSpec,
    budget: Budget | None = None,
) -> Filter:
    """Least filter containing the generators.

    The one-step consequence iterated to its fixpoint, or the least member of
    the family once that is known; exact whenever filters_certified holds.
    It returns the closed set's one Filter, memoized under the generators' mask.
    """
    # a cold context and its first step spend one budget
    ctx = _CONTEXTS.get((id(algebra), id(logic))) or _context(algebra, logic, budget := as_budget(budget))
    mask = 0
    try:
        for e in generators:
            mask |= 1 << e
    except ValueError:  # a negative shift count
        _in_carrier(algebra, [e])
        raise
    f = ctx.memo.get(mask)
    if f is None:
        if mask >> algebra.size:
            _in_carrier(algebra, _elements(mask))
        f = ctx.memo[mask] = ctx.filter(ctx.close(mask, as_budget(budget)))
    return f


def fg_relative(
    algebra: FiniteAlgebra,
    theta: Congruence,
    generators: Iterable[int],
    logic: LogicSpec,
    budget: Budget | None = None,
) -> Filter:
    """Least filter containing the generators among those compatible with
    theta, the filters that are unions of its blocks.

    These are the pull-backs of the filters of the quotient by theta.  fg and
    saturation by theta's blocks are both closure operators, so alternating
    them from the generators reaches the least set closed under both, in the
    algebra's own context and through fg's memo: no quotient is built.  Exact
    whenever filters_certified holds.
    """
    budget = as_budget(budget)
    blocks = [_mask(block) for block in theta.blocks()]
    block_of = [blocks[b] for b in theta.partition]
    saturated = 0
    for g in _in_carrier(algebra, generators):
        saturated |= block_of[g]
    while True:
        f = fg(algebra, _elements(saturated), logic, budget)
        saturated = 0
        for e in f.members:
            saturated |= block_of[e]
        if saturated.bit_count() == len(f.members):  # the saturation holds the filter
            return f
