"""Property checkers over finite testbeds.

Every verdict is scoped to its inputs: "pass" means no violation was found on
this testbed, never a universal claim, while "fail" carries a witness that can
be replayed with the filter and equation primitives.  Verdicts resting on
filter computations that are not certified exact (see
logics.filters_certified) degrade to "inconclusive" rather than overclaim: a
pass when any algebra the checker read is uncertified, a fail when one whose
filters its witness reports is.  One function, _resolve, decides both.

Sweeps are deterministic: testbed order, then generator count ascending, then
tuples lexicographically, then elements ascending.  The first witness found in
that order is the one reported.  Checks that read the generators only as a set
sweep the sorted tuples alone, which reports the same first witness.  A cap
that would leave a sweep empty is a configuration error, not a vacuous pass.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .algebras import (
    Budget,
    FiniteAlgebra,
    _agreement,
    _homomorphisms,
    _lanes,
    as_budget,
    compile_term,
    direct_product,
    enumerate_homomorphisms,
    enumerate_subuniverses,
    induced_subalgebra,
)
from .candidates import LEIBNIZ_MODES, EDCFCandidate
from .errors import InvalidSpec
from .logics import (
    LogicSpec,
    all_filters,
    certification_detail,
    fg,
    fg_certified,
    fg_relative,
)
from .terms import _Record

if TYPE_CHECKING:  # a class or a congruence is read by three checkers alone
    from .classes import ClassSpec
    from .congruences import Congruence

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


class Verdict(_Record):
    __slots__ = _fields = ("outcome", "checker", "witness", "notes")
    _defaults = {"witness": None, "notes": ()}

    def to_json(self) -> dict:
        out = {"outcome": self.outcome, "checker": self.checker}
        if self.witness is not None:
            out["witness"] = dict(self.witness)
        if self.notes:
            out["notes"] = list(self.notes)
        return out

    @property
    def passed(self) -> bool:
        return self.outcome == PASS

    @property
    def failed(self) -> bool:
        return self.outcome == FAIL


Testbed = tuple[FiniteAlgebra, ...]  # the algebras a checker sweeps, in order


def generate_testbed(
    generators: Sequence[FiniteAlgebra],
    max_product_arity: int = 1,
    include_subalgebras: bool = False,
    budget: Budget | None = None,
) -> Testbed:
    """Generators, their products up to the arity bound, optionally all
    subalgebras, deduplicated up to isomorphism among algebras of at most 8
    elements."""
    budget = as_budget(budget)
    algebras: list[FiniteAlgebra] = []

    def push(alg: FiniteAlgebra) -> None:
        for seen in algebras:
            # above 8 elements the isomorphism searches cost more than the duplicates they drop
            if seen.size == alg.size <= 8 and seen.signature == alg.signature:
                if next(_homomorphisms(seen, alg, budget, injective=True), None) is not None:
                    return
        algebras.append(alg)

    for g in generators:
        push(g)
    for r in range(2, max_product_arity + 1):
        for combo in itertools.combinations_with_replacement(generators, r):
            push(direct_product(list(combo), budget=budget).algebra)
    if include_subalgebras:
        for alg in list(algebras):
            for _, sub, _ in _proper_subalgebras(alg, budget):
                push(sub)
    return tuple(algebras)


def _proper_subalgebras(
    big: FiniteAlgebra, budget: Budget
) -> Iterator[tuple[frozenset[int], FiniteAlgebra, tuple[int, ...]]]:
    """Each proper subuniverse of big with its subalgebra and inclusion map."""
    for sub in enumerate_subuniverses(big, budget):
        if len(sub) == big.size:
            continue
        yield sub, *induced_subalgebra(big, sub, budget)


# ---------------------------------------------------------------------------
# candidate satisfaction


def _sweep_table(
    algebra: FiniteAlgebra,
    family: Sequence,
    n: int,
    param_count: int,
    budget: Budget,
    theta: Congruence | None = None,
) -> bytes:
    """For each cell (generators, element) in sweep order, 1 where some member
    of the family holds at some parameter tuple, else 0.

    With theta the two sides of an equation need only share a block.  The
    tables are combined as big integers, one byte lane per valuation: an
    equation holds where its sides XOR to zero, a member where all its
    equations hold (AND), the family where some member does (OR), and a cell
    where some of its parameter lanes does.
    """
    variables = [f"x{i + 1}" for i in range(n)] + ["y"] + [f"z{j + 1}" for j in range(param_count)]
    width = algebra.size ** len(variables)
    partition = None if theta is None else theta.partition
    everywhere = _lanes(b"\1" * width)
    somewhere = 0
    for member in family:
        holds = everywhere
        for eq in member:
            lhs = compile_term(eq.lhs, algebra, variables, budget)
            rhs = compile_term(eq.rhs, algebra, variables, budget)
            holds &= _agreement(lhs, rhs, partition)
        somewhere |= holds
    fan = algebra.size**param_count
    lanes = somewhere.to_bytes(width, "little")
    cells = 0
    for j in range(fan):
        cells |= _lanes(lanes[j::fan])
    return cells.to_bytes(width // fan, "little")


def _sweep_cells(algebra: FiniteAlgebra, n: int) -> Iterable[tuple[tuple[int, ...], int]]:
    """The cells (generators, element) of generator count n, in sweep order."""
    return itertools.product(itertools.product(range(algebra.size), repeat=n), range(algebra.size))


def _cell(algebra: FiniteAlgebra, xs: Sequence[int], b: int) -> dict:
    return {
        "algebra": algebra.name,
        "generators": list(xs),
        "generator_labels": _labels(algebra, xs),
        "element": b,
        "element_label": algebra.label(b),
    }


def _labels(algebra: FiniteAlgebra, elems: Iterable[int]) -> list[str]:
    return [algebra.label(e) for e in elems]


def _generator_sets(size: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Every set of at most cap elements as its sorted tuple, by count, then
    lexicographically: the sweep of a check that reads generators as a set."""
    for n in range(cap + 1):
        yield from itertools.combinations(range(size), n)


def _uncertified(
    logic: LogicSpec, algebras: Iterable[FiniteAlgebra], budget: Budget
) -> dict[FiniteAlgebra, str]:
    """Algebras whose filter computations are not certified exact, keyed by
    value, each with its name and what the certification search found there."""
    out = {}
    for a in algebras:
        if not fg_certified(a, logic, budget):
            d = certification_detail(a, logic, budget)
            clone = "complete" if d["clone_complete"] else "incomplete"
            out[a] = (
                f"{a.name} (v={d['nvars_tried']} tried, clone {clone}; "
                f"lower family {d['lower']}, unrefuted {d['unrefuted']})"
            )
    return out


def _resolve(
    checker: str,
    uncertified: Mapping[FiniteAlgebra, str],
    witness: Mapping | None = None,
    read: Iterable[FiniteAlgebra] = (),
) -> Verdict:
    """Fold certification into the verdict: with no witness a pass, with one
    a fail, each inconclusive when it rests on uncertified filters; read are
    the algebras whose filters the witness reports."""
    listed = ", ".join(uncertified.values())
    notes = (f"filter computations not certified exact on: {listed}",) if uncertified else ()
    if witness is None:
        return Verdict(INCONCLUSIVE, checker, None, notes) if uncertified else Verdict(PASS, checker)
    if any(a in uncertified for a in read):
        return Verdict(INCONCLUSIVE, checker, witness, notes + ("witness read an uncertified algebra",))
    return Verdict(FAIL, checker, witness, notes)


# ---------------------------------------------------------------------------
# checkers


def _require(cap: int | None, least: int, what: str) -> None:
    """A cap below its least value would sweep nothing and pass vacuously."""
    if cap is not None and cap < least:
        raise InvalidSpec(f"{what} must be at least {least}, got {cap}: the sweep would be empty")


def _top(candidate: EDCFCandidate, variant: str, n_max: int | None) -> int:
    if not candidate.matches_variant(variant):
        raise InvalidSpec(f"candidate {candidate.name!r} does not have the {variant} shape")
    _require(n_max, 0, "n_max")
    return candidate.n_max if n_max is None else min(n_max, candidate.n_max)


def _first_mismatch(
    logic: LogicSpec,
    algebra: FiniteAlgebra,
    candidate: EDCFCandidate,
    top: int,
    budget: Budget,
    theta: Congruence | None = None,
) -> dict | None:
    """The first cell where filter membership and candidate satisfaction differ.

    Each generator tuple's row of cells, one per element, is compared whole
    with its slice of the sweep table; one step per cell up to the first that
    differs, as a cell-by-cell sweep would spend.  The membership row depends
    on the generator set alone and is built once per set.
    """
    size = algebra.size
    rows: dict[frozenset[int], bytes] = {}
    for n in range(top + 1):
        sat = None
        for r, xs in enumerate(itertools.product(range(size), repeat=n)):
            gens = frozenset(xs)
            row = rows.get(gens)
            if row is None:
                members = fg(algebra, gens, logic, budget).members
                row = rows[gens] = bytes([b in members for b in range(size)])
            if sat is None:  # built after the first fg, whose errors come first
                sat = _sweep_table(algebra, candidate.family(n), n, candidate.param_count, budget, theta)
            cells = sat[r * size : (r + 1) * size]
            if row == cells:
                budget.spend(size)
                continue
            b = next(b for b in range(size) if row[b] != cells[b])
            budget.spend(b + 1)
            return {"algebra": algebra.name, "n": n} | _cell(algebra, xs, b) | {"in_fg": bool(row[b])}
    return None


def check_edcf(
    logic: LogicSpec,
    testbed: Testbed,
    candidate: EDCFCandidate,
    variant: str = "local",
    n_max: int | None = None,
    class_spec: ClassSpec | None = None,
    budget: Budget | None = None,
) -> Verdict:
    """Compare filter membership with candidate satisfaction on every cell;
    with a class, satisfaction modulo each algebra's least relative congruence
    (theta_k), the algebras need not lie in the class."""
    budget = as_budget(budget)
    top = _top(candidate, variant, n_max)
    uncertified = _uncertified(logic, testbed, budget)
    if class_spec is not None:
        from .classes import theta_k
    for algebra in testbed:
        theta = None if class_spec is None else theta_k(algebra, class_spec, budget)
        witness = _first_mismatch(logic, algebra, candidate, top, budget, theta)
        if witness is not None:
            if theta is not None:
                witness["theta_blocks"] = theta.to_blocks_json()
            witness["satisfies_candidate"] = not witness["in_fg"]
            witness["candidate"] = candidate.name
            return _resolve("edcf", uncertified, witness, [algebra])
    return _resolve("edcf", uncertified)


def compare_candidates(
    c1: EDCFCandidate,
    c2: EDCFCandidate,
    testbed: Testbed,
    n_max: int | None = None,
    budget: Budget | None = None,
) -> Verdict:
    """Mutual refinement: every member of one family is implied, across the
    testbed, by some member of the other, in both directions.

    A fail names, for each member of the other family, the first cell in
    sweep order where the unmatched member holds and that one does not.
    """
    budget = as_budget(budget)
    _require(n_max, 0, "n_max")
    top = min(c1.n_max, c2.n_max)
    if n_max is not None:
        top = min(top, n_max)
    tables: dict[tuple[int, int, int, int], bytes] = {}

    def sat(side: int, n: int, i: int, a: int) -> bytes:
        key = (side, n, i, a)
        if key not in tables:
            cand = (c1, c2)[side]
            tables[key] = _sweep_table(
                testbed[a], [cand.family(n)[i]], n, cand.param_count, budget
            )
        return tables[key]

    def first_break(side: int, i: int, j: int, n: int) -> dict | None:
        """The first cell where member i holds and member j of the other does
        not, spending one step per cell up to it."""
        for a, algebra in enumerate(testbed):
            mine, theirs = sat(side, n, i, a), sat(1 - side, n, j, a)
            broken = _lanes(mine) & ~_lanes(theirs)
            if broken:
                c = (broken & -broken).bit_length() // 8  # the lowest lane set
                budget.spend(c + 1)
                return _cell(algebra, *next(itertools.islice(_sweep_cells(algebra, n), c, None)))
            budget.spend(len(mine))
        return None

    for n in range(top + 1):
        for side, (first, second) in enumerate(((c1, c2), (c2, c1))):
            for i in range(len(first.family(n))):
                breaks = []
                for j in range(len(second.family(n))):
                    cell = first_break(side, i, j, n)
                    if cell is None:
                        break
                    breaks.append(cell)
                else:  # no member of the other family is implied
                    return Verdict(FAIL, "compare-candidates", {
                        "unmatched_candidate": first.name,
                        "n": n,
                        "breaking_cells": breaks,
                        "direction": f"{first.name} -> {second.name}",
                        "member_index": i,
                    })
    return Verdict(PASS, "compare-candidates")


def absolute_fep_check(
    logic: LogicSpec,
    testbed: Testbed,
    arity_cap: int = 3,
    budget: Budget | None = None,
) -> Verdict:
    """Generated filters on subalgebras against their traces from above, one
    step per generator set of at most arity_cap elements (_generator_sets)."""
    budget = as_budget(budget)
    _require(arity_cap, 0, "arity_cap")
    uncertified: dict[FiniteAlgebra, str] = {}
    for big in testbed:
        uncertified |= _uncertified(logic, [big], budget)
        for sub, small, inclusion in _proper_subalgebras(big, budget):
            uncertified |= _uncertified(logic, [small], budget)
            for xs in _generator_sets(small.size, arity_cap):
                budget.spend()
                inner = fg(small, frozenset(xs), logic, budget).members
                outer = fg(big, frozenset(inclusion[x] for x in xs), logic, budget).members
                trace = frozenset(i for i in range(small.size) if inclusion[i] in outer)
                if inner != trace:
                    witness = {
                        "algebra": big.name,
                        "subalgebra": sorted(sub),
                        "subalgebra_labels": _labels(big, sub),
                        "generators": [inclusion[x] for x in xs],
                        "generator_labels": _labels(big, (inclusion[x] for x in xs)),
                        "fg_in_subalgebra": sorted(inclusion[i] for i in inner),
                        "trace_from_extension": sorted(inclusion[i] for i in trace),
                    }
                    return _resolve("absolute-fep", uncertified, witness, [big, small])
    return _resolve("absolute-fep", uncertified)


def fep_check(
    logic: LogicSpec,
    testbed: Testbed,
    budget: Budget | None = None,
) -> Verdict:
    """Filter extension over submatrices: every filter of the subalgebra above
    the trace of a base filter extends to a filter above the base filter."""
    budget = as_budget(budget)
    uncertified: dict[FiniteAlgebra, str] = {}
    for big in testbed:
        uncertified |= _uncertified(logic, [big], budget)
        big_filters = [f.members for f in all_filters(big, logic, budget)]
        for sub, small, inclusion in _proper_subalgebras(big, budget):
            uncertified |= _uncertified(logic, [small], budget)
            small_filters = [f.members for f in all_filters(small, logic, budget)]
            for base in big_filters:
                trace = frozenset(i for i in range(small.size) if inclusion[i] in base)
                if trace not in small_filters:
                    continue  # the submatrix is then not a model pair for this base
                for ff in small_filters:
                    budget.spend()
                    if not (trace <= ff):
                        continue
                    extended = any(
                        base <= gg
                        and frozenset(i for i in range(small.size) if inclusion[i] in gg) == ff
                        for gg in big_filters
                    )
                    if not extended:
                        witness = {
                            "algebra": big.name,
                            "subalgebra": sorted(sub),
                            "base_filter": sorted(base),
                            "filter_without_extension": sorted(inclusion[i] for i in ff),
                        }
                        return _resolve("fep", uncertified, witness, [big, small])
    return _resolve("fep", uncertified)


def factor_determined_check(
    logic: LogicSpec,
    testbed: Testbed,
    absolute: bool = True,
    max_product_arity: int = 2,
    generator_cap: int = 2,
    pinned_factors: Sequence[FiniteAlgebra] | None = None,
    pinned_generators: Sequence[Sequence[int]] | None = None,
    budget: Budget | None = None,
) -> Verdict:
    """Generated filters on finite products against products of factorwise
    generated filters; a necessary condition only, since only small index sets
    are swept.

    The products are those of up to max_product_arity testbed algebras;
    pinned factors replace them, and the testbed is then not read.  Unless
    pinned, the generators are the sets of at most generator_cap elements
    (_generator_sets), one step each.
    """
    budget = as_budget(budget)
    _require(generator_cap, 0, "generator_cap")
    if pinned_factors is not None:
        _require(len(pinned_factors), 1, "the number of pinned factors")
        factor_lists = [tuple(pinned_factors)]
    else:
        _require(max_product_arity, 2, "max_product_arity")
        factor_lists = [
            combo
            for r in range(2, max_product_arity + 1)
            for combo in itertools.combinations_with_replacement(tuple(testbed), r)
        ]
    uncertified: dict[FiniteAlgebra, str] = {}
    for factors in factor_lists:
        prod = direct_product(list(factors), budget=budget)
        algebra = prod.algebra
        uncertified |= _uncertified(logic, (algebra,) + tuple(factors), budget)
        if pinned_generators is not None:
            gens_sweep = [tuple(g) for g in pinned_generators]
        else:
            gens_sweep = list(_generator_sets(algebra.size, generator_cap))
        coords = [prod.to_tuple(e) for e in range(algebra.size)]

        def box(sets: Sequence[frozenset[int]]) -> frozenset[int]:
            """The product elements whose every coordinate lies in its factor's set."""
            return frozenset(
                e for e, c in enumerate(coords) if all(ci in s for ci, s in zip(c, sets))
            )

        base_choices = [(frozenset(),) * len(factors)]
        if not absolute:
            per_factor = [
                [f.members for f in all_filters(fac, logic, budget)] for fac in factors
            ]
            base_choices = list(itertools.product(*per_factor))
        for bases in base_choices:
            seeded = box(bases)
            for xs in gens_sweep:
                budget.spend()
                factor_fgs = [
                    fg(fac, frozenset(coords[x][i] for x in xs) | bases[i], logic, budget).members
                    for i, fac in enumerate(factors)
                ]
                on_product = fg(algebra, frozenset(xs) | seeded, logic, budget).members
                boxed = box(factor_fgs)
                if on_product != boxed:
                    missing = sorted(boxed - on_product) or sorted(on_product - boxed)
                    witness = {"algebra": algebra.name, "factors": [f.name for f in factors]}
                    witness |= _cell(algebra, xs, missing[0])
                    witness["side"] = (
                        "product_of_factor_filters_minus_fg"
                        if boxed - on_product
                        else "fg_minus_product_of_factor_filters"
                    )
                    if not absolute:
                        witness["base_filters"] = [sorted(b) for b in bases]
                    return _resolve("factor-determined", uncertified, witness, [algebra, *factors])
    return _resolve("factor-determined", uncertified)


def test_algebra_check(
    logic: LogicSpec,
    testbed: Testbed,
    test_algebra: FiniteAlgebra,
    p_elements: Sequence[int],
    q_element: int,
    budget: Budget | None = None,
) -> Verdict:
    """Whether homomorphic images of the test elements characterize membership
    in generated filters across the testbed."""
    budget = as_budget(budget)
    n = len(p_elements)
    uncertified = _uncertified(logic, (test_algebra,) + tuple(testbed), budget)
    if q_element not in fg(test_algebra, frozenset(p_elements), logic, budget).members:
        witness = {
            "algebra": test_algebra.name,
            "reason": "q outside the filter generated by the test elements",
            "p": list(p_elements),
            "q": q_element,
        }
        return _resolve("test-algebra", uncertified, witness, [test_algebra])
    for algebra in testbed:
        homs = enumerate_homomorphisms(test_algebra, algebra, budget)
        for xs in itertools.product(range(algebra.size), repeat=n):
            members = fg(algebra, frozenset(xs), logic, budget).members
            for b in sorted(members):
                budget.spend()
                matched = any(
                    all(h[p] == a for p, a in zip(p_elements, xs)) and h[q_element] == b
                    for h in homs
                )
                if not matched:
                    witness = _cell(algebra, xs, b)
                    witness["reason"] = "no homomorphism maps the test elements onto this cell"
                    return _resolve("test-algebra", uncertified, witness, [algebra])
    return _resolve("test-algebra", uncertified)


def smallest_relcong_check(
    logic: LogicSpec,
    algebra: FiniteAlgebra,
    class_spec: ClassSpec,
    arity_cap: int = 3,
    pinned_cells: Sequence[tuple[Sequence[int], int]] | None = None,
    budget: Budget | None = None,
) -> Verdict:
    """For each cell, the relative congruences putting the element into the
    relatively generated filter must have a least member."""
    from .classes import k_congruences
    from .congruences import Congruence

    budget = as_budget(budget)
    _require(arity_cap, 0, "arity_cap")
    relative = k_congruences(algebra, class_spec, budget)
    if pinned_cells is not None:
        cells = [(tuple(xs), (b,)) for xs, b in pinned_cells]
    else:
        cells = [(xs, range(algebra.size)) for xs in _generator_sets(algebra.size, arity_cap)]
    # the relative filters are computed on the algebra, so its certification
    # is the one read
    uncertified = _uncertified(logic, [algebra], budget)
    least: set[int] = set()  # hit masks whose congruences have a least member
    for xs, elements in cells:
        # each element's hits: bit i when relative[i] puts it in the filter
        hits_of = [0] * algebra.size
        for i, theta in enumerate(relative):
            for e in fg_relative(algebra, theta, frozenset(xs), logic, budget).members:
                hits_of[e] |= 1 << i
        for b in elements:
            budget.spend(len(relative))
            hit = hits_of[b]
            if not hit or hit in least:
                continue
            hits = [t for i, t in enumerate(relative) if hit >> i & 1]
            meet = Congruence(tuple(zip(*(t.partition for t in hits))))
            if meet in hits:
                least.add(hit)
                continue
            minimal = [t for t in hits if not any(o != t and o.refines(t) for o in hits)]
            witness = _cell(algebra, xs, b) | {
                "minimal_congruences": [t.to_blocks_json() for t in minimal],
                "meet_blocks": meet.to_blocks_json(),
            }
            return _resolve("smallest-relative-congruence", uncertified, witness, [algebra])
    return _resolve("smallest-relative-congruence", uncertified)


def dually_brouwerian_check(
    logic: LogicSpec,
    testbed: Testbed,
    budget: Budget | None = None,
) -> Verdict:
    """On a finite algebra every filter is compact: for each pair (F, G) the
    filters H with G inside the join of F and H must have a least member, on
    each testbed algebra."""
    budget = as_budget(budget)
    uncertified = _uncertified(logic, testbed, budget)
    for algebra in testbed:
        families = [f.members for f in all_filters(algebra, logic, budget)]
        for fm in families:
            for gm in families:
                budget.spend()
                candidates = [
                    hm for hm in families if gm <= fg(algebra, fm | hm, logic, budget).members
                ]
                least = [h for h in candidates if all(h <= o for o in candidates)]
                if candidates and not least:
                    minimal = [
                        h for h in candidates if not any(o < h for o in candidates)
                    ]
                    witness = {
                        "algebra": algebra.name,
                        "filter_f": sorted(fm),
                        "filter_g": sorted(gm),
                        "minimal_h": [sorted(h) for h in minimal],
                    }
                    return _resolve("dually-brouwerian", uncertified, witness, [algebra])
    return _resolve("dually-brouwerian", uncertified)


def leibniz_probe(
    logic: LogicSpec,
    testbed: Testbed,
    mode: str = "monotone",
    budget: Budget | None = None,
) -> Verdict:
    """Refuter for order properties of the largest compatible congruence over
    the filters of each testbed algebra; a pass is not a proof."""
    from .congruences import leibniz_congruence

    budget = as_budget(budget)
    if mode not in LEIBNIZ_MODES:
        raise InvalidSpec(f"unknown probe mode {mode!r}")
    uncertified = _uncertified(logic, testbed, budget)
    for algebra in testbed:
        families = [f.members for f in all_filters(algebra, logic, budget)]
        omegas = {fm: leibniz_congruence(algebra, fm, budget) for fm in families}
        for fm in families:
            for gm in families:
                budget.spend()
                if mode == "monotone":
                    if fm <= gm and not omegas[fm].refines(omegas[gm]):
                        witness = {
                            "algebra": algebra.name,
                            "filter_f": sorted(fm),
                            "filter_g": sorted(gm),
                            "omega_f": omegas[fm].to_blocks_json(),
                            "omega_g": omegas[gm].to_blocks_json(),
                        }
                        return _resolve("leibniz-monotone", uncertified, witness, [algebra])
                else:
                    if fm < gm and omegas[fm] == omegas[gm]:
                        witness = {
                            "algebra": algebra.name,
                            "filter_f": sorted(fm),
                            "filter_g": sorted(gm),
                            "omega_blocks": omegas[fm].to_blocks_json(),
                        }
                        return _resolve("leibniz-injective", uncertified, witness, [algebra])
    return _resolve(f"leibniz-{mode}", uncertified)


# each searchable property's checker(logic, testbed, budget=..., **checker_kwargs)
SEARCHES = {
    "edcf": check_edcf,
    "absfep": absolute_fep_check,
    "fep": fep_check,
    "leibniz": leibniz_probe,
    "brouwer": dually_brouwerian_check,
    "fdc": factor_determined_check,
}


def search_counterexample(
    logic: LogicSpec,
    property_name: str,
    generators: Sequence[FiniteAlgebra],
    max_product_arity: int = 2,
    include_subalgebras: bool = True,
    checker_kwargs: Mapping | None = None,
    budget: Budget | None = None,
) -> Verdict:
    """Grow a testbed until the chosen checker fails, or give up."""
    budget = as_budget(budget)
    if property_name not in SEARCHES:
        raise InvalidSpec(f"no searchable property {property_name!r}")
    fdc = property_name == "fdc"  # products are formed inside the checker; grow its arity instead
    _require(max_product_arity, 2 if fdc else 1, "max_product_arity")
    if not generators:
        return Verdict(INCONCLUSIVE, "search", notes=("empty generator set",))
    kwargs = dict(checker_kwargs or {})
    for arity in range(2 if fdc else 1, max_product_arity + 1):
        bed = generate_testbed(generators, 1 if fdc else arity, include_subalgebras, budget=budget)
        if fdc:
            kwargs["max_product_arity"] = arity
        verdict = SEARCHES[property_name](logic, bed, budget=budget, **kwargs)
        if verdict.failed:
            return Verdict(
                FAIL, f"search/{property_name}", verdict.witness,
                verdict.notes + (f"found at product arity {arity}",),
            )
    # the highest arity's witness and notes say why its verdict was no fail
    note = f"no counterexample up to product arity {max_product_arity}"
    return Verdict(INCONCLUSIVE, f"search/{property_name}", verdict.witness, verdict.notes + (note,))
