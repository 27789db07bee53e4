"""Logical filters, congruences, and equational-definability checks on finite
algebras."""

from .algebras import (
    Budget,
    FiniteAlgebra,
    Matrix,
    Product,
    direct_product,
    enumerate_homomorphisms,
    enumerate_subuniverses,
    eval_term,
    induced_subalgebra,
    quotient,
    subuniverse_generated,
    trivial_algebra,
)
from .candidates import EDCFCandidate
from .classes import (
    Axiomatic,
    ClassSpec,
    GeneratedQuasivariety,
    Quasiequation,
    cg_k,
    k_congruences,
    member,
    theta_k,
)
from .checks import (
    Testbed,
    Verdict,
    absolute_fep_check,
    check_edcf,
    compare_candidates,
    dually_brouwerian_check,
    factor_determined_check,
    fep_check,
    generate_testbed,
    leibniz_probe,
    search_counterexample,
    smallest_relcong_check,
    test_algebra_check,
)
from .congruences import (
    Congruence,
    all_congruences,
    cg_generated,
    leibniz_congruence,
)
from .errors import (
    ArityMismatch,
    FiltraError,
    InvalidSpec,
    NotACongruence,
    SizeBudgetExceeded,
    TermSyntaxError,
    UnboundVariable,
    UnknownExample,
    UnknownName,
)
from .logics import (
    Filter,
    LogicSpec,
    MatrixDetermined,
    RulePresented,
    all_filters,
    fg,
    fg_certified,
    fg_relative,
    fg_trace,
    filters_certified,
    is_filter,
    is_filter_certain,
    make_filter,
    rule_valid_in_matrix,
)
from .terms import App, Equation, Rule, Signature, Term, Var, format_term, parse_term

__version__ = "0.1.0"
