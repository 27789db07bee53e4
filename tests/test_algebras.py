import ast
import gc
import itertools
import re
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    all_partitions,
    brute_homomorphisms,
    oracle_eval,
    oracle_is_congruence,
    oracle_op,
    quotient,
    random_algebras,
    relabel,
    terms_up_to_depth,
    trivial_algebra,
)

import filtra
from filtra import algebras
from filtra import builtins as bi
from filtra.algebras import (
    Budget,
    FiniteAlgebra,
    _homomorphisms,
    compile_term,
    direct_product,
    enumerate_homomorphisms,
    enumerate_subuniverses,
    induced_subalgebra,
    subuniverse_generated,
)
from filtra.checks import generate_testbed
from filtra.classes import Axiomatic, theta_k
from filtra.congruences import Congruence
from filtra.errors import (
    ArityMismatch,
    InvalidSpec,
    NotACongruence,
    SizeBudgetExceeded,
    UnboundVariable,
)
from filtra.terms import App, Equation, Signature, Var, parse_equation, parse_term


# --- evaluation ------------------------------------------------------------
# a term's value at one valuation is its entry in the compiled table; labels
# not listed as variables are literals


def test_eval_negation_fixpoint(wk3):
    # the middle element is its own negation
    t = parse_term("(neg half)", wk3.signature)
    assert wk3.label(compile_term(t, wk3, [])[0]) == "half"


def test_eval_variable_case(k3):
    t = parse_term("x1", k3.signature)
    table = compile_term(t, k3, ["x1"])
    for e in range(k3.size):
        assert table[e] == e


def test_eval_join_of_labels(wk3):
    # join in the chain 0 < 1 < half
    t = parse_term("(or 0 1)", wk3.signature)
    assert wk3.label(compile_term(t, wk3, [])[0]) == "1"
    t = parse_term("(or 1 half)", wk3.signature)
    assert wk3.label(compile_term(t, wk3, [])[0]) == "half"


def test_eval_unbound_variable(wk3):
    with pytest.raises(UnboundVariable):
        compile_term(parse_term("zz", wk3.signature), wk3, [])


def test_eval_is_deterministic(wk3):
    t = parse_term("(or x1 (neg x2))", wk3.signature)
    point = 2 * wk3.size + 0  # x1 = 2, x2 = 0
    assert compile_term(t, wk3, ["x1", "x2"])[point] == compile_term(t, wk3, ["x1", "x2"])[point]


def test_op_arity_mismatch(wk3):
    # neg applied to the literals 0 and 1
    with pytest.raises(ArityMismatch):
        compile_term(App("neg", (Var("0"), Var("1"))), wk3, [])


# --- compiled terms ----------------------------------------------------------

TERM_SIGNATURE = Signature((("c", 0), ("f", 1), ("g", 2)))
# three variable names and four label literals; a name that is neither a
# listed variable nor a label of the drawn algebra is unbound, and a listed
# label name is a variable
TERM_NAMES = ("x", "y", "z", "e0", "e1", "e2", "e3")


def random_terms(depth):
    leaves = st.sampled_from(TERM_NAMES).map(Var) | st.just(App("c"))
    if depth == 0:
        return leaves
    sub = random_terms(depth - 1)
    return st.one_of(
        leaves,
        sub.map(lambda a: App("f", (a,))),
        st.tuples(sub, sub).map(lambda ab: App("g", ab)),
    )


@st.composite
def compilations(draw):
    """An algebra on at most 4 labelled elements with one constant, one unary
    and one binary table, a list of at most 3 variables and a term of depth at
    most 4."""
    n = draw(st.integers(1, 4))
    element = st.integers(0, n - 1)
    tables = {
        "c": [draw(element)],
        "f": draw(st.lists(element, min_size=n, max_size=n)),
        "g": draw(st.lists(element, min_size=n * n, max_size=n * n)),
    }
    algebra = FiniteAlgebra.make("random", n, TERM_SIGNATURE, tables, [f"e{i}" for i in range(n)])
    variables = draw(st.lists(st.sampled_from(TERM_NAMES[:4]), unique=True, max_size=3))
    return algebra, variables, draw(random_terms(4))


def _subterms(t):
    out = {t}
    for a in getattr(t, "args", ()):
        out |= _subterms(a)
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(compilations())
def test_compiled_term_matches_pointwise_evaluation(compilation):
    algebra, variables, term = compilation
    budget = Budget()
    try:
        table = compile_term(term, algebra, variables, budget)
    except UnboundVariable as exc:
        with pytest.raises(UnboundVariable, match=re.escape(str(exc))):
            oracle_eval(term, algebra, dict.fromkeys(variables, 0))
        return
    points = list(itertools.product(range(algebra.size), repeat=len(variables)))
    assert tuple(table) == tuple(oracle_eval(term, algebra, dict(zip(variables, p))) for p in points)
    # each distinct subterm is tabulated once, at the width of the table
    assert budget.spent == len(points) * len(_subterms(term))


def _arithmetic_algebra(n, symbols):
    """An algebra on n elements with the listed symbols among f, g and h
    (arities 1, 2 and 3), each a polynomial modulo n, and the constant c = n - 1."""
    formulas = {
        "c": lambda: n - 1,
        "f": lambda x: (7 * x + 3) % n,
        "g": lambda x, y: (3 * x + 5 * y + x * y) % n,
        "h": lambda x, y, z: (x + 2 * y + 4 * z + x * y * z) % n,
    }
    signature = Signature(tuple((sym, formulas[sym].__code__.co_argcount) for sym in symbols))
    tables = {
        sym: [formulas[sym](*args) for args in itertools.product(range(n), repeat=arity)]
        for sym, arity in signature.symbols
    }
    return FiniteAlgebra.make(f"Z{n}", n, signature, tables)


@pytest.mark.parametrize(
    "n, symbols, text, variables",
    [
        (16, "fg", "(g (f x) (g y (f z)))", "xyz"),  # 16^2 = 256: byte lanes throughout
        (17, "fg", "(g (f x) (g y (f z)))", "xyz"),  # 17^2 > 256: g point by point
        (6, "fh", "(h (f x) y (h z x y))", "xyz"),  # 6^3 = 216
        (7, "fh", "(h (f x) y (h z x y))", "xyz"),  # 7^3 > 256
        (300, "fg", "(g (f x) (g x (f x)))", "x"),  # above 256 elements: tuples
        (300, "cfg", "(g (f c) (g x (f x)))", "x"),  # a constant above 255 holds no byte
    ],
)
def test_compiled_tables_on_both_sides_of_a_byte_lane(n, symbols, text, variables):
    algebra = _arithmetic_algebra(n, symbols)
    term = parse_term(text, algebra.signature)
    table = compile_term(term, algebra, list(variables))
    assert type(table) is (bytes if n <= 256 else tuple)
    points = itertools.product(range(n), repeat=len(variables))
    assert tuple(table) == tuple(oracle_eval(term, algebra, dict(zip(variables, p))) for p in points)


def test_compile_term_checks_the_budget_before_allocating():
    mchain4 = bi.algebra("mchain4")
    variables = [f"v{i}" for i in range(16)]
    budget = Budget()
    with pytest.raises(SizeBudgetExceeded):
        # a table of 16^16 entries: only the up-front check keeps this fast
        compile_term(parse_term("(and v0 v15)", mchain4.signature), mchain4, variables, budget)
    assert budget.spent == 0


# --- equations -------------------------------------------------------------
# an algebra satisfies the equations iff its least relative congruence under
# them is the identity


def test_excluded_middle_is_its_own_fixpoint(wk3):
    # x | ~x equals (x | ~x) | ~(x | ~x) across the whole algebra
    eq = parse_equation("(or x (neg x))", "(or (or x (neg x)) (neg (or x (neg x))))", wk3.signature)
    assert theta_k(wk3, Axiomatic((eq,))) == Congruence.identity(wk3.size)


def test_reflexivity_universal(k3):
    assert theta_k(k3, Axiomatic((parse_equation("x", "x", k3.signature),))) == Congruence.identity(k3.size)


def test_negation_not_identity_on_k3(k3):
    eq = parse_equation("(neg x)", "x", k3.signature)
    # oracle: sweep the three valuations directly
    expected = all(
        oracle_eval(eq.lhs, k3, {"x": e}) == oracle_eval(eq.rhs, k3, {"x": e})
        for e in range(3)
    )
    assert expected is False
    assert theta_k(k3, Axiomatic((eq,))) != Congruence.identity(k3.size)


def test_equational_membership_spends_the_budget(k3_sq):
    eq = parse_equation("(and x (or y z))", "(or (and x y) (and x z))", k3_sq.algebra.signature)
    assert theta_k(k3_sq.algebra, Axiomatic((eq,))) == Congruence.identity(k3_sq.algebra.size)
    with pytest.raises(SizeBudgetExceeded):
        theta_k(k3_sq.algebra, Axiomatic((eq,)), Budget(10))


# --- products --------------------------------------------------------------


def test_product_componentwise_negation(wk3):
    prod = direct_product([wk3, wk3])
    assert prod.algebra.size == 9
    e = 2 * 3 + 0  # (half, 0): the first factor varies slowest
    neg = oracle_op(prod.algebra, "neg", e)
    assert prod.to_tuple(neg) == (2, 1)  # (half, 1)


def test_singleton_product_is_the_factor(k3):
    prod = direct_product([k3])
    assert prod.algebra.size == k3.size
    for sym, table in k3.tables:
        assert prod.algebra.table(sym) == table


def test_product_projections_commute_with_evaluation(wk3, k3):
    # projection of the product evaluation equals factorwise evaluation,
    # for a bounded forest of terms
    for base in (wk3, k3):
        prod = direct_product([base, base])
        terms = terms_up_to_depth(base.signature, ["x1", "x2"], 2)[:400]
        pairs = [(0, 1), (2, 0), (1, 2)]
        for t in terms:
            for v1, v2 in pairs:
                joint = oracle_eval(
                    t, prod.algebra,
                    {"x1": v1 * base.size + v1, "x2": v2 * base.size + v2},
                )
                for i in range(2):
                    assert prod.to_tuple(joint)[i] == oracle_eval(t, base, {"x1": v1, "x2": v2})


def test_product_budget():
    big = bi.algebra("mchain4")
    with pytest.raises(SizeBudgetExceeded):
        direct_product([big, big, big], budget=Budget(1000))


# --- subuniverses ----------------------------------------------------------


def test_subuniverse_closed_set_is_fixed(k3):
    assert subuniverse_generated(k3, {0, 2}) == {0, 2}


def test_subuniverse_of_carrier(k3):
    assert subuniverse_generated(k3, range(k3.size)) == frozenset(range(k3.size))


def test_subuniverse_empty_seed(wk3, k3):
    # no constants: the empty set is closed; with constants they appear
    assert subuniverse_generated(wk3, ()) == frozenset()
    assert subuniverse_generated(k3, ()) == {0, 2}


def test_subuniverse_generated_is_a_closure_operator(wk3, k3, bool4):
    for algebra in (wk3, k3, bool4, bi.algebra("box5")):
        elements = list(range(algebra.size))
        subsets = [
            frozenset(c) for r in range(algebra.size + 1) for c in itertools.combinations(elements, r)
        ]
        for x in subsets:
            cx = subuniverse_generated(algebra, x)
            assert x <= cx
            assert subuniverse_generated(algebra, cx) == cx  # idempotent
        for x in subsets[:16]:
            for y in subsets[:16]:
                if x <= y:
                    assert subuniverse_generated(algebra, x) <= subuniverse_generated(algebra, y)


def test_subuniverse_closure_spends_one_step_per_tuple(k3):
    # the constants add 0 and 1, then one pass over and, or, neg on three
    # members applies 9 + 9 + 3 tuples and finds nothing new
    assert subuniverse_generated(k3, {1}, Budget(21)) == {0, 1, 2}
    with pytest.raises(SizeBudgetExceeded):
        subuniverse_generated(k3, {1}, Budget(20))


def test_enumerate_subuniverses_wk3(wk3):
    subs = enumerate_subuniverses(wk3)
    as_sets = [set(s) for s in subs]
    assert {2} in as_sets  # the infectious element alone
    assert {0, 1} in as_sets
    assert {0, 1, 2} in as_sets
    assert len(subs) == 3


def test_subuniverses_of_cubes_answer_within_the_default_budget(k3, wk3):
    assert len(enumerate_subuniverses(direct_product([k3, k3, k3]).algebra)) == 122
    assert len(enumerate_subuniverses(direct_product([wk3, wk3, wk3]).algebra)) == 601


def test_induced_subalgebra_requires_closure(k3):
    with pytest.raises(InvalidSpec):
        induced_subalgebra(k3, {1})  # misses the constants
    sub, incl = induced_subalgebra(k3, {0, 2})
    assert sub.size == 2 and incl == (0, 2)


def test_induced_subalgebra_spends_one_step_per_table_cell(box5):
    budget = Budget()
    sub, incl = induced_subalgebra(box5, {0, 1, 2}, budget)
    # box5 has one constant, one binary and one ternary operation
    assert incl == (0, 1, 2) and budget.spent == 3**0 + 3**2 + 3**3
    with pytest.raises(SizeBudgetExceeded):
        induced_subalgebra(box5, {0, 1, 2}, Budget(3**0 + 3**2 + 3**3 - 1))


# --- quotients -------------------------------------------------------------


def test_quotient_by_identity(k3):
    q, proj = quotient(k3, list(range(k3.size)))
    assert q.size == k3.size
    assert list(proj) == list(range(k3.size))
    for sym, table in k3.tables:
        assert q.table(sym) == table


def test_quotient_by_total(k3):
    q, proj = quotient(k3, [0] * k3.size)
    assert q.size == 1
    assert set(proj) == {0}


def test_quotient_box5_collapses_all_box_values(box5):
    theta = Congruence.from_blocks([[0, 1], [2, 4], [3]], 5)
    q, proj = quotient(box5, theta.partition)
    assert q.size == 3
    block01 = proj[0]
    assert proj[1] == block01
    for x, y in itertools.product(range(3), repeat=2):
        assert oracle_op(q, "box1", x, y) == block01
    for args in itertools.product(range(3), repeat=3):
        assert oracle_op(q, "box2", *args) == block01


def test_quotient_rejects_non_congruence(k3):
    # merging 0 with half only is not compatible with negation
    with pytest.raises(NotACongruence):
        quotient(k3, [0, 0, 1])


def test_quotient_commutes_with_tables(wk3, box5):
    for algebra in (wk3, box5):
        from filtra.congruences import all_congruences

        for theta in all_congruences(algebra):
            q, proj = quotient(algebra, theta.partition)
            for sym, arity in algebra.signature.symbols:
                for args in itertools.product(range(algebra.size), repeat=arity):
                    assert proj[oracle_op(algebra, sym, *args)] == oracle_op(q, sym, *(proj[a] for a in args))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(random_algebras())
def test_quotient_matches_the_congruence_oracle_on_random_algebras(algebra_and_perm):
    algebra, _ = algebra_and_perm
    for partition in all_partitions(algebra.size):
        if not oracle_is_congruence(algebra, partition):
            with pytest.raises(NotACongruence):
                quotient(algebra, partition)
            continue
        q, proj = quotient(algebra, partition)
        assert proj == partition and q.size == max(partition) + 1
        for sym, arity in algebra.signature.symbols:
            for args in itertools.product(range(algebra.size), repeat=arity):
                assert proj[oracle_op(algebra, sym, *args)] == oracle_op(q, sym, *(proj[a] for a in args))


# --- homomorphisms ---------------------------------------------------------


def test_published_collapse_map_is_a_homomorphism(wk3, wk3_sq):
    # half absorbs, otherwise the second coordinate decides
    mapping = tuple(
        2 if 2 in wk3_sq.to_tuple(e) else wk3_sq.to_tuple(e)[1] for e in range(9)
    )
    assert mapping in brute_homomorphisms(wk3_sq.algebra, wk3)
    assert mapping in enumerate_homomorphisms(wk3_sq.algebra, wk3)


def test_identity_is_a_homomorphism(k3):
    assert tuple(range(k3.size)) in enumerate_homomorphisms(k3, k3)


def test_constant_map_fails_on_constants(k3):
    assert (0, 0, 0) not in enumerate_homomorphisms(k3, k3)


def test_enumeration_matches_brute_force(wk3, k3):
    for dom, cod in [(wk3, wk3), (k3, k3), (wk3, bi.algebra("WK3"))]:
        assert enumerate_homomorphisms(dom, cod) == brute_homomorphisms(dom, cod)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(random_algebras(), random_algebras())
def test_homomorphism_search_matches_brute_force(drawn, other):
    algebra, perm = drawn
    twin = relabel(algebra, perm)
    for cod in (algebra, twin, other[0]):
        homs = brute_homomorphisms(algebra, cod)
        assert enumerate_homomorphisms(algebra, cod) == homs
        # the injective search yields the first injective map, a bijection when sizes agree
        injective = [h for h in homs if len(set(h)) == algebra.size]
        assert next(_homomorphisms(algebra, cod, Budget(), injective=True), None) == next(iter(injective), None)
        assert injective or cod is not twin
    assert len(generate_testbed([algebra, twin])) == 1


def test_enumeration_is_lexicographic(wk3):
    homs = enumerate_homomorphisms(wk3, wk3)
    assert homs == sorted(homs)


def test_trivial_algebra_accepts_everything(k3):
    t = trivial_algebra(k3.signature)
    assert t.size == 1
    assert enumerate_homomorphisms(k3, t) == [(0, 0, 0)]


# --- the one budget ----------------------------------------------------------


class _BudgetMakers(ast.NodeVisitor):
    """The functions, as module.function, whose bodies construct a Budget."""

    def __init__(self, module):
        self.scope = [module]
        self.found = set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        func = node.func
        if getattr(func, "id", None) == "Budget" or getattr(func, "attr", None) == "Budget":
            self.found.add(".".join(self.scope))
        self.generic_visit(node)


def test_budgets_are_made_only_at_the_entry_points():
    # every layer spends the budget it is handed: a public call without one
    # gets the default through as_budget, and each command makes its own
    makers = set()
    for path in sorted(Path(filtra.__file__).parent.glob("*.py")):
        visitor = _BudgetMakers(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        makers |= visitor.found
    assert makers == {"algebras.as_budget", "cli.cmd_fg", "cli.cmd_check", "cli.cmd_reproduce"}


class _Reads(ast.NodeVisitor):
    """What one module binds by import and reads.

    imports maps a local name to the (module, function) it was imported as,
    modules a local name to the package module it is bound to; loads holds
    each name read outside the bodies of the functions it names, attributes
    each (name, attribute) read off a plain name.  Package modules are
    filtra.m, or .m from inside the package.
    """

    def __init__(self):
        self.scope = []
        self.imports, self.modules = {}, {}
        self.loads, self.attributes = set(), set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Import(self, node):
        for alias in node.names:
            if alias.asname and alias.name.startswith("filtra."):
                self.modules[alias.asname] = alias.name.removeprefix("filtra.")

    def visit_ImportFrom(self, node):
        module = "filtra." + node.module if node.level and node.module else node.module or "filtra"
        for alias in node.names:
            local = alias.asname or alias.name
            if module == "filtra":
                self.modules[local] = alias.name
            elif module.startswith("filtra."):
                self.imports[local] = (module.removeprefix("filtra."), alias.name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self.scope:
            self.loads.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and isinstance(node.value, ast.Name):
            self.attributes.add((node.value.id, node.attr))
        self.generic_visit(node)


# documented functions that answer a question nothing else answers and whose
# inputs no command reads
LIBRARY_ENTRY_POINTS = {"checks.test_algebra_check", "logics.is_filter_certain"}


def test_every_public_function_has_a_caller():
    # a caller is the function's own module, outside its body, or a module of
    # the package or the benchmark that imports it from its module, or reads
    # it off a name bound to its module; no string or document counts.  A
    # module-level _-prefixed function needs a caller inside the package.
    root = Path(__file__).resolve().parent.parent
    defined, called, called_in_package = set(), set(), set()
    for path in sorted(Path(filtra.__file__).parent.glob("*.py")) + sorted((root / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        reads = _Reads()
        reads.visit(tree)
        found = {reads.imports[name] for name in reads.loads if name in reads.imports}
        found |= {(reads.modules[name], attr) for name, attr in reads.attributes if name in reads.modules}
        if path.parent.name == "filtra":
            own = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            defined |= {(path.stem, name) for name in own}
            found |= {(path.stem, name) for name in own & reads.loads}
            called_in_package |= found
        called |= found
    uncalled = {f"{module}.{name}" for module, name in defined - called if not name.startswith("_")}
    assert uncalled == LIBRARY_ENTRY_POINTS
    unread = {f"{module}.{name}" for module, name in defined - called_in_package if name.startswith("_")}
    assert unread == set()


def _budget_position(function, method):
    """Where a call passes the budget parameter positionally: its index
    among the arguments a call writes, None when it is keyword-only, -1 when
    the function takes no budget."""
    names = [a.arg for a in function.args.posonlyargs + function.args.args][int(method):]
    if "budget" in names:
        return names.index("budget")
    return None if any(a.arg == "budget" for a in function.args.kwonlyargs) else -1


def _plain_corpus_lookup(target, call):
    """bi.algebra on a name of the corpus, which builds nothing: a literal
    without '^' (a square is built on the budget)."""
    if target != ("builtins", "algebra") or len(call.args) != 1:
        return False
    arg = call.args[0]
    if isinstance(arg, ast.JoinedStr):
        return all(not isinstance(part, ast.Constant) or "^" not in part.value for part in arg.values)
    return isinstance(arg, ast.Constant) and "^" not in arg.value


def _calls_leaving_out_the_budget(trees):
    """(module, call) for each call in the modules' syntax trees of a
    function or method that takes a budget, made without one.

    A plain name resolves to its import or to its module's own function;
    name.attr to the function of a module bound to name; any other call, a
    method's or a closure's such as ctx.step or next_closure's close, to the
    methods and nested functions of the package by name."""
    top, by_name = {}, {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                top[module, node.name] = _budget_position(node, False)
                for inner in ast.walk(node):
                    if isinstance(inner, ast.FunctionDef) and inner is not node:
                        by_name.setdefault(inner.name, _budget_position(inner, False))
            elif isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        by_name.setdefault(method.name, _budget_position(method, True))
    found = []
    for module, tree in trees.items():
        reads = _Reads()
        reads.visit(tree)
        for call in ast.walk(tree):
            func = getattr(call, "func", None)
            if isinstance(func, ast.Name):
                target = reads.imports.get(func.id, (module, func.id))
                position = top[target] if target in top else by_name.get(func.id, -1)
            elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in reads.modules:
                target = (reads.modules[func.value.id], func.attr)
                position = top.get(target, -1)
            elif isinstance(func, ast.Attribute):
                target, position = None, by_name.get(func.attr, -1)
            else:
                continue
            keywords = {k.arg for k in call.keywords}
            if (
                position == -1
                or keywords & {"budget", None}
                or any(isinstance(a, ast.Starred) for a in call.args)
                or position is not None and len(call.args) > position
                or _plain_corpus_lookup(target, call)
            ):
                continue
            found.append((module, ast.unparse(call)))
    return found


def _package_trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(Path(filtra.__file__).parent.glob("*.py"))}


def test_every_call_that_takes_a_budget_is_handed_one():
    # a layer that drops its caller's budget spends a default one of its own,
    # which the caller's limit no longer bounds
    assert _calls_leaving_out_the_budget(_package_trees()) == []


@pytest.mark.parametrize(
    ("module", "source"),
    [
        ("logics", "self.step(stages[-1], budget)"),
        ("logics", "fg(algebra, _elements(saturated), logic, budget)"),
        ("algebras", "close(below | bit, budget)"),
        ("cli", "bi.algebra(name, budget)"),
    ],
)
def test_the_budget_guard_finds_a_dropped_budget(module, source):
    trees = _package_trees()
    (call,) = [node for node in ast.walk(trees[module]) if isinstance(node, ast.Call) and ast.unparse(node) == source]
    call.args.pop()
    assert _calls_leaving_out_the_budget(trees) == [(module, ast.unparse(call))]


def _algebras_built_past_make(trees):
    """(module, call) for each call in the modules' syntax trees that builds a
    FiniteAlgebra without FiniteAlgebra.make: FiniteAlgebra(...) anywhere, or
    cls(...) in the class's own methods other than make."""
    found = []
    for module, tree in trees.items():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and ast.unparse(call.func).split(".")[-1] == "FiniteAlgebra":
                found.append((module, ast.unparse(call)))
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and cls.name == "FiniteAlgebra"):
                continue
            for method in cls.body:
                if isinstance(method, ast.FunctionDef) and method.name != "make":
                    calls = [c for c in ast.walk(method) if isinstance(c, ast.Call)]
                    found += [(module, ast.unparse(c)) for c in calls if ast.unparse(c.func) == "cls"]
    return found


def test_every_algebra_of_the_package_is_built_by_make():
    # make returns the live algebra of equal value, and the filter layer finds
    # its contexts by identity: an algebra built past make would be a second
    # object of one value
    assert _algebras_built_past_make(_package_trees()) == []


@pytest.mark.parametrize(
    ("source", "found"),
    [
        ("def copy(a):\n    return FiniteAlgebra(*a)", "FiniteAlgebra(*a)"),
        ("def copy(a):\n    return algebras.FiniteAlgebra(*a)", "algebras.FiniteAlgebra(*a)"),
        ("class FiniteAlgebra:\n    @classmethod\n    def again(cls, *a):\n        return cls(*a)", "cls(*a)"),
    ],
)
def test_the_make_guard_finds_an_algebra_built_past_make(source, found):
    trees = _package_trees()
    trees["checks"].body += ast.parse(source).body
    assert _algebras_built_past_make(trees) == [("checks", found)]


def test_equal_algebras_are_one_object_while_one_is_alive(k3):
    assert direct_product([k3, k3]).algebra is direct_product([k3, k3]).algebra
    subuniverse = enumerate_subuniverses(k3)[0]  # {0, 2}, a proper one
    sub, _ = induced_subalgebra(k3, subuniverse)
    assert induced_subalgebra(k3, subuniverse)[0] is sub
    assert FiniteAlgebra.make(k3.name, k3.size, k3.signature, dict(k3.tables), k3.labels) is k3
    # another name is another value, and so another object
    twin = FiniteAlgebra.make("K3-twin", k3.size, k3.signature, dict(k3.tables), k3.labels)
    assert twin != k3 and twin is not k3


def test_an_algebra_nobody_holds_is_freed():
    signature = Signature((("s", 1),))
    cycle = FiniteAlgebra.make("cycle-freed", 4, signature, {"s": [1, 2, 3, 0]})
    ref = weakref.ref(cycle)
    del cycle
    gc.collect()
    assert ref() is None
    assert all(algebra.name != "cycle-freed" for algebra in algebras._ALGEBRAS.values())
