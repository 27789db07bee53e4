"""Shared fixtures and independent oracles.

The oracles here recompute expected values by brute force, independently of
the library's own algorithms: partitions are enumerated as restricted growth
strings, homomorphisms as raw function tables, term forests by bounded
structural enumeration, Leibniz congruences either read off the partition
lattice or from the profiles of the whole unary polynomial clone, candidate
satisfaction one valuation at a time through oracle_eval, the filters of a
rule logic as the subsets closed under rule instances evaluated by oracle_eval,
the clone of term functions one argument tuple at a time, subuniverses by
applying every table to every tuple of members until nothing new appears, a
matrix logic's unrefuted subsets by testing each subset against every clone
element at every valuation, class membership by evaluating each axiom at
every valuation and separating pairs by homomorphisms, the relative
congruences as the congruences whose quotient passes that membership test,
and relative filters, with the minrelcong verdict, as filters of the quotient
pulled back along the projection.  The quotient itself is built here, from
block representatives.
"""

import functools
import itertools
from dataclasses import dataclass

import pytest
from hypothesis import strategies as st

from filtra import builtins as bi
from filtra import logics
from filtra.algebras import (
    FiniteAlgebra,
    _canonical,
    _leaf_table,
    _tuple_indices,
    direct_product,
    enumerate_homomorphisms,
    induced_subalgebra,
)
from filtra.classes import Axiomatic, Quasiequation
from filtra.congruences import Congruence, all_congruences
from filtra.errors import NotACongruence, UnboundVariable
from filtra.logics import all_filters, fg
from filtra.terms import App, Rule, Signature, Var


@pytest.fixture(scope="session")
def wk3():
    return bi.algebra("WK3")


@pytest.fixture(scope="session")
def k3():
    return bi.algebra("K3")


@pytest.fixture(scope="session")
def box5():
    return bi.algebra("box5")


@pytest.fixture(scope="session")
def m3():
    return bi.algebra("M3")


@pytest.fixture(scope="session")
def bool4():
    return bi.algebra("BOOL4")


@pytest.fixture(scope="session")
def wk3_sq(wk3):
    return direct_product([wk3, wk3])


@pytest.fixture(scope="session")
def k3_sq(k3):
    return direct_product([k3, k3])


@pytest.fixture(scope="session")
def pwk():
    return bi.logic("PWK")


@pytest.fixture(scope="session")
def kl():
    return bi.logic("KL")


@pytest.fixture(scope="session")
def lp():
    return bi.logic("LP")


@pytest.fixture(scope="session")
def one_logic():
    return bi.logic("ONE")


@pytest.fixture(scope="session")
def ord_logic():
    return bi.logic("ORD")


@pytest.fixture(scope="session")
def luk():
    return bi.logic("LUK")


@pytest.fixture(scope="session")
def kg():
    return bi.logic("KG")


@pytest.fixture(scope="session")
def id_logic():
    return bi.logic("ID")


@pytest.fixture
def cold_contexts(monkeypatch):
    """No (algebra, logic) context, shared clone or built-in object (a square
    and a testbed among them) built yet, as in a fresh process."""
    monkeypatch.setattr(logics, "_CONTEXTS", {})
    monkeypatch.setattr(logics, "_CLONES", {})
    monkeypatch.setattr(bi, "_BUILT", {})


# ---------------------------------------------------------------------------
# random algebras

RANDOM_SIGNATURE = Signature((("f", 1), ("g", 2)))


@st.composite
def random_algebras(draw):
    """An algebra on at most 4 elements with one unary and one binary table,
    and a permutation of its carrier."""
    n = draw(st.integers(1, 4))
    element = st.integers(0, n - 1)
    tables = {
        "f": draw(st.lists(element, min_size=n, max_size=n)),
        "g": draw(st.lists(element, min_size=n * n, max_size=n * n)),
    }
    perm = draw(st.permutations(range(n)))
    return FiniteAlgebra.make("random", n, RANDOM_SIGNATURE, tables), perm


def _rule_terms(depth):
    leaves = st.sampled_from([Var("x"), Var("y")])
    if depth == 0:
        return leaves
    sub = _rule_terms(depth - 1)
    return st.one_of(
        leaves,
        st.builds(lambda a: App("f", (a,)), sub),
        st.builds(lambda a, b: App("g", (a, b)), sub, sub),
    )


def random_rules():
    """One to three rules in the signature of random_algebras, each with at
    most two premises, terms of depth at most 2 in x and y."""
    rule = st.builds(Rule, st.lists(_rule_terms(2), max_size=2).map(tuple), _rule_terms(2))
    return st.lists(rule, min_size=1, max_size=3)


CLONE_SIGNATURES = (
    Signature((("f", 1), ("g", 2), ("h", 3))),
    Signature((("f", 1), ("c", 0), ("g", 2), ("h", 3))),
)


MATRIX_SIGNATURES = (
    Signature((("f", 1), ("h", 1))),
    Signature((("g", 2),)),
    Signature((("f", 1), ("c", 0), ("g", 2))),
)


@st.composite
def random_clone_algebras(draw, signatures=CLONE_SIGNATURES, count=(1, 2), sizes=(1, 4)):
    """`count` bounds how many algebras are drawn and `sizes` their carriers,
    all sharing one of the signatures (by default unary, binary and ternary
    tables, with or without a constant)."""
    signature = draw(st.sampled_from(signatures))
    algebras = []
    for name in ("A", "B")[: draw(st.integers(*count))]:
        n = draw(st.integers(*sizes))
        tables = {
            sym: draw(st.lists(st.integers(0, n - 1), min_size=n**arity, max_size=n**arity))
            for sym, arity in signature.symbols
        }
        algebras.append(FiniteAlgebra.make(name, n, signature, tables))
    return tuple(algebras)


def relabel(algebra, perm):
    """The isomorphic copy in which element x is called perm[x]."""
    n = algebra.size
    tables = {}
    for sym, arity in algebra.signature.symbols:
        table = [0] * n**arity
        for args in itertools.product(range(n), repeat=arity):
            idx = 0
            for a in args:
                idx = idx * n + perm[a]
            table[idx] = perm[oracle_op(algebra, sym, *args)]
        tables[sym] = table
    return FiniteAlgebra.make("relabelled", n, algebra.signature, tables)


# ---------------------------------------------------------------------------
# oracles


def trivial_algebra(signature: Signature, name: str = "1") -> FiniteAlgebra:
    """The one-element algebra of the signature."""
    tables = {sym: [0] for sym, _ in signature.symbols}
    return FiniteAlgebra.make(name, 1, signature, tables, labels=["*"])


def table_index(size: int, values) -> int:
    """The index of a tuple of elements in a flat table over it, the first
    coordinate varying slowest: an operation's arguments, or a valuation of a
    compiled term's variables."""
    index = 0
    for v in values:
        index = index * size + v
    return index


def oracle_op(algebra: FiniteAlgebra, symbol: str, *args: int) -> int:
    """The operation's table entry at the arguments."""
    return algebra.table(symbol)[table_index(algebra.size, args)]


def oracle_eval(t, algebra: FiniteAlgebra, valuation) -> int:
    """A term's value at one valuation, by structural recursion on the
    tables: a name resolves through the valuation first, then an element
    label counts as a literal."""
    if isinstance(t, Var):
        if t.name in valuation:
            return valuation[t.name]
        if algebra.labels is not None and t.name in algebra.labels:
            return algebra.labels.index(t.name)
        raise UnboundVariable(f"variable {t.name!r} is unbound")
    return oracle_op(algebra, t.symbol, *(oracle_eval(a, algebra, valuation) for a in t.args))


def oracle_member(algebra: FiniteAlgebra, spec) -> bool:
    """Whether the algebra lies in the class: every axiom holds at every
    valuation of its names, element labels included, or every pair of
    distinct elements is separated by a homomorphism into some generator."""
    if isinstance(spec, Axiomatic):

        def holds(eq, v):
            return oracle_eval(eq.lhs, algebra, v) == oracle_eval(eq.rhs, algebra, v)

        for q in [Quasiequation((), eq) for eq in spec.equations] + list(spec.quasiequations):
            names = []
            for eq in q.antecedents + (q.consequent,):
                _term_names(eq.lhs, names)
                _term_names(eq.rhs, names)
            for values in itertools.product(range(algebra.size), repeat=len(names)):
                v = dict(zip(names, values))
                if all(holds(eq, v) for eq in q.antecedents) and not holds(q.consequent, v):
                    return False
        return True
    homs = [h for g in spec.generators for h in enumerate_homomorphisms(algebra, g)]
    return all(any(h[a] != h[b] for h in homs) for a, b in itertools.combinations(range(algebra.size), 2))


def fresh_copy(algebra: FiniteAlgebra) -> FiniteAlgebra:
    """An equal algebra with nothing cached on it."""
    return FiniteAlgebra(*(getattr(algebra, f) for f in algebra._fields))


def all_partitions(n):
    """Every partition of {0..n-1} as a canonical block array (restricted
    growth strings)."""
    if n == 0:
        yield ()
        return
    rgs = [0] * n

    def rec(i, maxval):
        if i == n:
            yield tuple(rgs)
            return
        for v in range(maxval + 2):
            rgs[i] = v
            yield from rec(i + 1, max(maxval, v))

    yield from rec(1, 0)


def quotient(algebra: FiniteAlgebra, partition, name=None) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """The quotient by a congruence given as a block-id array, with the
    projection; blocks are ordered by least member.  Raises NotACongruence
    when the tables are not well defined on representatives."""
    n = algebra.size
    if len(partition) != n:
        raise NotACongruence("partition length differs from carrier size")
    proj = _canonical(partition)
    nblocks = max(proj) + 1
    reps = [proj.index(b) for b in range(nblocks)]

    tables = {}
    for sym, arity in algebra.signature.symbols:
        table = algebra.table(sym)
        tables[sym] = [proj[table[i]] for i in _tuple_indices(n, reps, arity)]
    # well-definedness: every tuple must agree with its representative tuple
    rep_of = [reps[b] for b in proj]
    for sym, arity in algebra.signature.symbols:
        table = algebra.table(sym)
        if [proj[v] for v in table] != [proj[table[i]] for i in _tuple_indices(n, rep_of, arity)]:
            raise NotACongruence(f"operation {sym!r} is not well defined on the blocks")
    labels = None
    if algebra.labels is not None:
        blocks: dict[int, list[str]] = {}
        for e in range(n):
            blocks.setdefault(proj[e], []).append(algebra.labels[e])
        labels = ["[" + "|".join(blocks[b]) + "]" for b in range(nblocks)]
    qname = name or f"{algebra.name}/~"
    return FiniteAlgebra.make(qname, nblocks, algebra.signature, tables, labels), proj


def oracle_fg_relative(algebra: FiniteAlgebra, theta: Congruence, generators, logic) -> frozenset[int]:
    """The filter the quotient by theta generates from the generators' blocks,
    pulled back along the projection."""
    q, proj = quotient(algebra, theta.partition)
    image = fg(q, {proj[g] for g in generators}, logic).members
    return frozenset(a for a in range(algebra.size) if proj[a] in image)


def oracle_is_congruence(algebra: FiniteAlgebra, partition) -> bool:
    """Definition-level check: related tuples map to related values."""
    for sym, arity in algebra.signature.symbols:
        for args1 in itertools.product(range(algebra.size), repeat=arity):
            for args2 in itertools.product(range(algebra.size), repeat=arity):
                if all(partition[a] == partition[b] for a, b in zip(args1, args2)):
                    if partition[oracle_op(algebra, sym, *args1)] != partition[oracle_op(algebra, sym, *args2)]:
                        return False
    return True


def oracle_congruences(algebra: FiniteAlgebra) -> set[Congruence]:
    return {
        Congruence(p)
        for p in all_partitions(algebra.size)
        if oracle_is_congruence(algebra, p)
    }


def oracle_compatible(partition, subset) -> bool:
    """The subset is a union of blocks: no block meets it and its complement."""
    members = set(subset)
    return all(
        (a in members) == (b in members)
        for a, b in itertools.combinations(range(len(partition)), 2)
        if partition[a] == partition[b]
    )


def oracle_largest_compatible(congruences, subset) -> Congruence:
    """Largest member of the lattice whose blocks the subset is a union of."""
    compatible = [t for t in congruences if oracle_compatible(t.partition, subset)]
    top = min(compatible, key=lambda t: t.num_blocks)
    for t in compatible:
        assert all(
            top.same(a, b)
            for a, b in itertools.combinations(range(t.size), 2)
            if t.same(a, b)
        ), "no largest member"
    return top


def oracle_least_containing(congruences, pairs) -> Congruence:
    """Least member of the lattice relating every pair."""
    containing = [t for t in congruences if all(t.same(a, b) for a, b in pairs)]
    top = max(containing, key=lambda t: t.num_blocks)
    for t in containing:
        assert all(
            t.same(a, b)
            for a, b in itertools.combinations(range(t.size), 2)
            if top.same(a, b)
        ), "no least member"
    return top


def oracle_k_congruences(algebra: FiniteAlgebra, spec) -> tuple[Congruence, ...]:
    """The congruences whose quotient is a member of the class, finer first."""
    return tuple(t for t in all_congruences(algebra) if oracle_member(quotient(algebra, t.partition)[0], spec))


def oracle_cg_k(relative, pairs) -> Congruence:
    """The meet of the relative congruences relating every pair."""
    return functools.reduce(Congruence.meet, [t for t in relative if all(t.same(a, b) for a, b in pairs)])


@dataclass(frozen=True)
class UnaryPolynomialClone:
    """Unary maps obtained from the identity by plugging into one argument of
    a basic operation, all other arguments frozen at constants."""

    functions: frozenset[tuple[int, ...]]

    def __iter__(self):
        return iter(sorted(self.functions))


def unary_polynomials(algebra: FiniteAlgebra) -> UnaryPolynomialClone:
    """Closure of the identity under composition with basic translations."""
    n = algebra.size
    identity = tuple(range(n))
    found: set[tuple[int, ...]] = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for sym, arity in algebra.signature.symbols:
            if arity == 0:
                continue
            for pos in range(arity):
                for rest in itertools.product(range(n), repeat=arity - 1):
                    q = tuple(
                        oracle_op(algebra, sym, *(rest[:pos] + (p[x],) + rest[pos:]))
                        for x in range(n)
                    )
                    if q not in found:
                        found.add(q)
                        frontier.append(q)
    return UnaryPolynomialClone(frozenset(found))


def oracle_leibniz_profiles(clone: UnaryPolynomialClone, subset) -> Congruence:
    """Leibniz congruence by polynomial profiles: two elements are related iff
    no unary polynomial of the clone maps exactly one of them into the
    subset."""
    members = frozenset(subset)
    profiles: dict[tuple[bool, ...], list[int]] = {}
    polys = list(clone)
    size = len(polys[0])
    for e in range(size):
        profile = tuple((p[e] in members) for p in polys)
        profiles.setdefault(profile, []).append(e)
    partition = [0] * size
    for i, (_, block) in enumerate(sorted(profiles.items(), key=lambda kv: kv[1][0])):
        for e in block:
            partition[e] = i
    return Congruence(tuple(partition))


def oracle_cg_profiles(clone: UnaryPolynomialClone, pairs) -> Congruence:
    """Congruence generated by the pairs by Mal'cev's lemma: the least
    equivalence relation relating p(a) and p(b) for every unary polynomial p
    of the clone and every pair (a, b), its classes merged one relabelling at
    a time."""
    polys = list(clone)
    blocks = list(range(len(polys[0])))
    for a, b in pairs:
        for p in polys:
            keep, drop = blocks[p[a]], blocks[p[b]]
            blocks = [keep if x == drop else x for x in blocks]
    return Congruence(tuple(blocks))


def brute_homomorphisms(dom: FiniteAlgebra, cod: FiniteAlgebra):
    """All homomorphisms by sweeping every raw map (for tiny carriers)."""
    out = []
    for image in itertools.product(range(cod.size), repeat=dom.size):
        ok = True
        for sym, arity in dom.signature.symbols:
            for args in itertools.product(range(dom.size), repeat=arity):
                if image[oracle_op(dom, sym, *args)] != oracle_op(cod, sym, *(image[a] for a in args)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(image)
    return out


def terms_up_to_depth(signature, variables, depth):
    """All terms over the variables with nesting at most `depth`."""
    current = [Var(v) for v in variables] + [
        App(sym, ()) for sym, arity in signature.symbols if arity == 0
    ]
    seen = list(current)
    for _ in range(depth):
        new = []
        for sym, arity in signature.symbols:
            if arity == 0:
                continue
            for args in itertools.product(seen, repeat=arity):
                new.append(App(sym, args))
        seen = seen + new
        # bound the forest; enough variety for the structural properties
        if len(seen) > 4000:
            seen = seen[:4000]
            break
    return seen


def oracle_satisfies_family(algebra: FiniteAlgebra, family, xs, b, param_count, theta=None) -> bool:
    """Whether some member of the family holds at the cell (xs, b) for some
    parameter tuple, each equation evaluated pointwise; with a congruence,
    its two sides need only be related."""
    same = theta.same if theta is not None else (lambda u, v: u == v)
    base = {f"x{i + 1}": a for i, a in enumerate(xs)}
    base["y"] = b
    for member in family:
        for params in itertools.product(range(algebra.size), repeat=param_count):
            v = dict(base)
            v.update({f"z{j + 1}": c for j, c in enumerate(params)})
            if all(same(oracle_eval(eq.lhs, algebra, v), oracle_eval(eq.rhs, algebra, v)) for eq in member):
                return True
    return False


def _term_names(t, out):
    if isinstance(t, Var):
        if t.name not in out:
            out.append(t.name)
    else:
        for a in t.args:
            _term_names(a, out)
    return out


def oracle_rule_instances(algebra: FiniteAlgebra, rules):
    """(premise values, conclusion value) of every rule at every valuation of
    its variables, each term evaluated by oracle_eval (carriers without labels)."""
    out = []
    for rule in rules:
        names = []
        for t in rule.premises + (rule.conclusion,):
            _term_names(t, names)
        for values in itertools.product(range(algebra.size), repeat=len(names)):
            v = dict(zip(names, values))
            prem = frozenset(oracle_eval(p, algebra, v) for p in rule.premises)
            out.append((prem, oracle_eval(rule.conclusion, algebra, v)))
    return out


def oracle_closed_sets(algebra: FiniteAlgebra, rules) -> list[frozenset[int]]:
    """Every subset closed under every rule instance, ascending by cardinality
    then lexicographically."""
    instances = oracle_rule_instances(algebra, rules)
    return [
        s
        for r in range(algebra.size + 1)
        for s in map(frozenset, itertools.combinations(range(algebra.size), r))
        if all(concl in s for prem, concl in instances if prem <= s)
    ]


def oracle_least_closed(closed_sets, generators) -> frozenset[int]:
    """The least closed superset of the generators, checked to be least."""
    above = [s for s in closed_sets if set(generators) <= s]
    least = frozenset.intersection(*above)
    assert least in above
    return least


def oracle_apply_pointwise(table, size, arg_tabs) -> tuple[int, ...]:
    """An operation table applied to the tables of its arguments one point at
    a time, as a tuple."""
    if len(arg_tabs) == 1:
        return tuple([table[x] for x in arg_tabs[0]])
    if len(arg_tabs) == 2:
        return tuple([table[x * size + y] for x, y in zip(*arg_tabs)])
    out = []
    for point in zip(*arg_tabs):
        idx = 0
        for a in point:
            idx = idx * size + a
        out.append(table[idx])
    return tuple(out)


def as_tuples(tables):
    """Clone tables, one per algebra, each as a tuple whatever its type."""
    return [tuple(map(tuple, tabs)) for tabs in tables]


def oracle_build_clone(algebras, nvars, budget) -> logics._Clone:
    """The clone closed one argument tuple at a time, each applied pointwise
    to the argument tables, under the same element cap (read from the module,
    so monkeypatching applies), frontier rule and spending as
    logics._build_clone: each block of tuples sharing all but the last
    argument spends one step per tuple and lane of 256 positions before any of
    them is applied.  Its tables are tuples."""
    lanes = -(-sum(alg.size**nvars for alg in algebras) // 256)
    seen = set()
    nodes = []
    tables = []

    def add(node, tabs):
        if tabs not in seen:
            seen.add(tabs)
            nodes.append(node)
            tables.append(tabs)

    for i in range(nvars):
        add((None, i), tuple(tuple(_leaf_table(alg, nvars, (None, i))) for alg in algebras))

    def closes():
        frontier_start = 0
        while True:
            prev_count = len(tables)
            for sym, arity in algebras[0].signature.symbols:
                if arity == 0:
                    budget.spend(lanes)
                    add((sym, ()), tuple(tuple(_leaf_table(alg, nvars, (sym, ()))) for alg in algebras))
                    continue
                for prefix in itertools.product(range(prev_count), repeat=arity - 1):
                    lo = 0 if prefix and max(prefix) >= frontier_start else frontier_start
                    budget.spend((prev_count - lo) * lanes)
                    for last in range(lo, prev_count):
                        args = prefix + (last,)
                        add((sym, args), tuple(
                            oracle_apply_pointwise(alg.table(sym), alg.size, [tables[a][ci] for a in args])
                            for ci, alg in enumerate(algebras)
                        ))
                        if len(tables) > logics.DEFAULT_CLONE_ELEMENT_CAP:
                            return False
            if len(tables) == prev_count:
                return True
            frontier_start = prev_count

    complete = closes()
    return logics._Clone(nvars, complete, nodes, tables)


def oracle_subuniverse(algebra: FiniteAlgebra, seed) -> frozenset[int]:
    """The least subset holding the seed and closed under the tables: rounds
    adding the value of every table at every tuple of members, the constants
    among them, until a round adds nothing."""
    current = frozenset(seed)
    while True:
        image = set()
        for sym, arity in algebra.signature.symbols:
            table = algebra.table(sym)
            for args in itertools.product(sorted(current), repeat=arity):
                index = 0
                for a in args:
                    index = index * algebra.size + a
                image.add(table[index])
        if image <= current:
            return current
        current |= image


def oracle_subuniverses(algebra: FiniteAlgebra) -> list[frozenset[int]]:
    """Every subuniverse, the empty one too when there is no constant,
    smallest first, then lexicographically.  Each is reached from the least
    one by adding one element at a time and closing, since the closure of a
    subuniverse's subset plus one more of its elements stays inside it."""
    found = {oracle_subuniverse(algebra, ())}
    frontier = list(found)
    while frontier:
        current = frontier.pop()
        for a in range(algebra.size):
            closed = oracle_subuniverse(algebra, current | {a})
            if closed not in found:
                found.add(closed)
                frontier.append(closed)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def oracle_unrefuted(algebra: FiniteAlgebra, logic, clone) -> list[int]:
    """Every subset, as a bitmask ascending by cardinality then
    lexicographically, that the clone does not refute: at no valuation does a
    clone element entailed, at every matrix point, by the elements landing in
    the subset land outside it."""
    designation = []
    for tabs in clone.tables:
        points = [value in m.designated for m, table in zip(logic.matrices, tabs[1:]) for value in table]
        designation.append(sum(1 << p for p, d in enumerate(points) if d))
    everywhere = (1 << sum(m.algebra.size**clone.nvars for m in logic.matrices)) - 1
    columns = list(zip(*(tabs[0] for tabs in clone.tables)))

    def refuted(subset):
        for values in columns:
            premises = everywhere
            for a, d in zip(values, designation):
                if a in subset:
                    premises &= d
            if any(a not in subset and d & premises == premises for a, d in zip(values, designation)):
                return True
        return False

    return [
        sum(1 << a for a in subset)
        for r in range(algebra.size + 1)
        for subset in map(frozenset, itertools.combinations(range(algebra.size), r))
        if not refuted(subset)
    ]


# ---------------------------------------------------------------------------
# the sweeps of the checkers, over every generator tuple and every cell


def oracle_first_mismatch(logic, algebra, candidate, top, theta=None):
    """(n, generators, element, in_fg) of the first cell in sweep order where
    membership in the generated filter and candidate satisfaction (pointwise,
    modulo theta when given) differ, or None."""
    for n in range(top + 1):
        for xs in itertools.product(range(algebra.size), repeat=n):
            members = fg(algebra, xs, logic).members
            for b in range(algebra.size):
                sat = oracle_satisfies_family(algebra, candidate.family(n), xs, b, candidate.param_count, theta)
                if (b in members) != sat:
                    return n, list(xs), b, b in members
    return None


def oracle_absolute_fep_check(logic, testbed, arity_cap) -> dict:
    """absolute_fep_check's verdict as JSON for a rule logic (whose filters
    are always certified), sweeping every generator tuple in product order."""
    for big in testbed:
        for sub in oracle_subuniverses(big):
            if not 0 < len(sub) < big.size:
                continue
            small, inclusion = induced_subalgebra(big, sub)
            for n in range(arity_cap + 1):
                for xs in itertools.product(range(small.size), repeat=n):
                    inner = fg(small, xs, logic).members
                    outer = fg(big, [inclusion[x] for x in xs], logic).members
                    trace = frozenset(i for i in range(small.size) if inclusion[i] in outer)
                    if inner != trace:
                        generators = [inclusion[x] for x in xs]
                        return {"outcome": "fail", "checker": "absolute-fep", "witness": {
                            "algebra": big.name,
                            "subalgebra": sorted(sub),
                            "subalgebra_labels": [big.label(e) for e in sub],
                            "generators": generators,
                            "generator_labels": [big.label(g) for g in generators],
                            "fg_in_subalgebra": sorted(inclusion[i] for i in inner),
                            "trace_from_extension": sorted(inclusion[i] for i in trace),
                        }}
    return {"outcome": "pass", "checker": "absolute-fep"}


def oracle_factor_determined_check(logic, testbed, absolute, generator_cap) -> dict:
    """factor_determined_check's verdict as JSON for a rule logic over the
    squares and products of two testbed algebras, sweeping every generator
    tuple in product order."""
    for factors in itertools.combinations_with_replacement(tuple(testbed), 2):
        prod = direct_product(list(factors))
        algebra = prod.algebra
        coords = [prod.to_tuple(e) for e in range(algebra.size)]
        base_choices = [None]
        if not absolute:
            base_choices = list(itertools.product(
                *([f.members for f in all_filters(fac, logic)] for fac in factors)
            ))
        for bases in base_choices:
            for n in range(generator_cap + 1):
                for xs in itertools.product(range(algebra.size), repeat=n):
                    seeds = [{coords[x][i] for x in xs} | (bases[i] if bases else set()) for i in range(2)]
                    factor_fgs = [fg(fac, seed, logic).members for fac, seed in zip(factors, seeds)]
                    seed_product = set(xs)
                    if bases is not None:
                        seed_product |= {e for e in range(algebra.size)
                                         if all(coords[e][i] in bases[i] for i in range(2))}
                    on_product = fg(algebra, seed_product, logic).members
                    boxed = frozenset(e for e in range(algebra.size)
                                      if all(coords[e][i] in factor_fgs[i] for i in range(2)))
                    if on_product != boxed:
                        missing = sorted(boxed - on_product) or sorted(on_product - boxed)
                        witness = {
                            "algebra": algebra.name,
                            "factors": [f.name for f in factors],
                            "generators": list(xs),
                            "generator_labels": [algebra.label(x) for x in xs],
                            "element": missing[0],
                            "element_label": algebra.label(missing[0]),
                            "side": "product_of_factor_filters_minus_fg" if boxed - on_product
                            else "fg_minus_product_of_factor_filters",
                        }
                        if bases is not None:
                            witness["base_filters"] = [sorted(b) for b in bases]
                        return {"outcome": "fail", "checker": "factor-determined", "witness": witness}
    return {"outcome": "pass", "checker": "factor-determined"}


def oracle_smallest_relcong_check(logic, algebra, spec, arity_cap) -> dict:
    """smallest_relcong_check's verdict as JSON where the algebra and every
    quotient by a relative congruence certify, reading each cell's filters on
    the quotients and the relative congruences off the membership test."""
    relative = oracle_k_congruences(algebra, spec)
    quotients = [quotient(algebra, t.partition) for t in relative]
    for n in range(arity_cap + 1):
        for xs in itertools.product(range(algebra.size), repeat=n):
            for b in range(algebra.size):
                hits = [
                    t for t, (q, proj) in zip(relative, quotients)
                    if proj[b] in fg(q, {proj[x] for x in xs}, logic).members
                ]
                if not hits:
                    continue
                meet = functools.reduce(Congruence.meet, hits)
                if meet not in hits:
                    minimal = [t for t in hits if not any(o != t and o.refines(t) for o in hits)]
                    return {"outcome": "fail", "checker": "smallest-relative-congruence", "witness": {
                        "algebra": algebra.name,
                        "generators": list(xs),
                        "generator_labels": [algebra.label(x) for x in xs],
                        "element": b,
                        "element_label": algebra.label(b),
                        "minimal_congruences": [t.blocks() for t in minimal],
                        "meet_blocks": meet.blocks(),
                    }}
    return {"outcome": "pass", "checker": "smallest-relative-congruence"}
