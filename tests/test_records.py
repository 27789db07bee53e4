"""filtra's value types are plain record classes: importing the CLI loads
neither `dataclasses` nor `inspect`, nor a module its command does not run,
and each record behaves as the frozen dataclass with the same fields would,
which this module builds as a twin."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import filtra
from filtra import builtins as bi
from filtra.algebras import FiniteAlgebra, Matrix, Product
from filtra.candidates import EDCFCandidate
from filtra.checks import Verdict
from filtra.classes import Axiomatic, GeneratedQuasivariety, Quasiequation
from filtra.congruences import Congruence
from filtra.errors import InvalidSpec, TermSyntaxError
from filtra.logics import Filter, MatrixDetermined, RulePresented
from filtra.terms import App, Equation, Rule, Signature, Var, parse_equation


def _fresh(code: str) -> list[str]:
    """The lines a fresh interpreter prints; -S keeps site customisations
    from importing anything first."""
    env = dict(os.environ, PYTHONPATH=str(Path(filtra.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    assert _fresh("import sys, filtra.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))") == ["[]"]


LOADED = "print(sorted(m for m in sys.modules if m.startswith('filtra.')))"


def test_a_module_loads_only_what_it_imports():
    # the package root re-exports nothing, so it loads no module of its own
    assert _fresh(f"import sys, filtra; {LOADED}; import filtra.algebras; {LOADED}") == [
        "[]", "['filtra.algebras', 'filtra.errors', 'filtra.terms']",
    ]


def test_the_cli_and_the_corpus_names_load_only_the_corpus_modules():
    # reading names builds nothing; checks, logics and serialization wait for a command
    names = "; ".join(f"bi.{kind}_names()" for kind in ("algebra", "logic", "class", "candidate", "testbed"))
    assert _fresh(f"import sys, filtra.cli, filtra.builtins as bi; {names}; {LOADED}") == [
        "['filtra.algebras', 'filtra.builtins', 'filtra.candidates', 'filtra.cli', 'filtra.errors', 'filtra.terms']",
    ]


def test_fg_loads_no_checker():
    code = (
        "import sys, filtra.cli\n"
        "code = filtra.cli.main(['fg', '--algebra', 'WK3', '--logic', 'PWK', '--gen', ''])\n"
        "print(code, sorted({'filtra.checks', 'filtra.classes', 'filtra.congruences'} & set(sys.modules)))"
    )
    assert _fresh(code)[-1] == "0 []"


def _samples():
    """(class, fields, defaults, two samples of field values) for every record,
    as the fields and defaults of its former dataclass declaration."""
    k3, wk3 = bi.algebra("K3"), bi.algebra("WK3")
    kl, pwk = bi.logic("KL"), bi.logic("PWK")
    sig = wk3.signature
    x, y = Var("x1"), Var("y")
    eq = parse_equation("(or x1 y)", "y", sig)
    rule = pwk.rules[0]
    qe = Quasiequation((eq,), parse_equation("x1", "y", sig))

    def fields_of(a):
        return a.name, a.size, a.signature, a.tables, a.labels

    theta = ((parse_equation("x1", "y", sig),),)
    return [
        (Signature, ("symbols",), {}, (sig.symbols,), ((("c", 0),),)),
        (Var, ("name",), {}, ("x1",), ("y",)),
        (App, ("symbol", "args"), {"args": ()}, ("or", (x, y)), ("neg", (x,))),
        (Equation, ("lhs", "rhs"), {}, (x, App("neg", (y,))), (y, x)),
        (Rule, ("premises", "conclusion"), {}, (rule.premises, rule.conclusion), ((x,), y)),
        (FiniteAlgebra, ("name", "size", "signature", "tables", "labels"), {"labels": None},
         fields_of(wk3), fields_of(k3)),
        (Matrix, ("algebra", "designated"), {}, (wk3, frozenset({1})), (k3, frozenset({1, 2}))),
        (Product, ("algebra", "factor_sizes"), {}, (wk3, (3,)), (k3, (3,))),
        (RulePresented, ("rules", "name"), {"name": ""}, (pwk.rules, "PWK"), ((rule,), "one")),
        (MatrixDetermined, ("matrices", "variable_bound", "name"), {"variable_bound": None, "name": ""},
         (kl.matrices, None, "KL"), (kl.matrices, 2, "KL2")),
        (Filter, ("algebra", "members"), {}, (wk3, frozenset({1, 2})), (wk3, frozenset({1}))),
        (Congruence, ("partition",), {}, ((0, 0, 1),), ((0, 1, 2),)),
        (Quasiequation, ("antecedents", "consequent"), {}, (qe.antecedents, qe.consequent), ((), eq)),
        (Axiomatic, ("equations", "quasiequations", "name"), {"equations": (), "quasiequations": (), "name": ""},
         ((eq,), (qe,), "ax"), ((), (), "")),
        (GeneratedQuasivariety, ("generators", "name"), {"name": ""}, ((wk3,), "q"), ((k3,), "")),
        (Verdict, ("outcome", "checker", "witness", "notes"), {"witness": None, "notes": ()},
         ("pass", "edcf", None, ("a note",)), ("fail", "fep", {"algebra": "WK3"}, ())),
        (EDCFCandidate, ("name", "n_max", "families", "param_count"), {"param_count": 0},
         ("c", 0, ((),), 0), ("d", 1, ((), theta), 2)),
    ]


def _twin(cls, fields, defaults):
    spec = [(f, object, dataclasses.field(default=defaults[f])) if f in defaults else (f, object) for f in fields]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:  # a dict witness makes a Verdict unhashable, as it did its dataclass
        return type(exc)


SAMPLES = _samples()


@pytest.mark.parametrize("cls, fields, defaults, first, second", SAMPLES, ids=[s[0].__name__ for s in SAMPLES])
def test_records_behave_as_their_frozen_dataclass_twins(cls, fields, defaults, first, second):
    twin = _twin(cls, fields, defaults)
    for values, others in ((first, second), (second, first)):
        obj, ref = cls(*values), twin(*values)
        assert tuple(getattr(obj, f) for f in fields) == values
        assert (obj == cls(*values)) is (ref == twin(*values)) is True
        assert (obj != cls(*values)) is (ref != twin(*values)) is False
        assert (obj == cls(*others)) is (ref == twin(*others)) is False
        assert obj.__eq__(ref) is NotImplemented and ref.__eq__(obj) is NotImplemented
        assert obj.__eq__(Var("x1") if cls is not Var else App("x1")) is NotImplemented
        assert obj != ref
        assert _hash_or_error(obj) == _hash_or_error(ref)
        assert repr(obj) == repr(ref)
        assert cls(**dict(zip(fields, values))) == obj
        required = [v for f, v in zip(fields, values) if f not in defaults]
        assert [getattr(cls(*required), f) for f in fields] == [getattr(twin(*required), f) for f in fields]
        # one argument too many, an unknown keyword, a field given twice, a required field left out
        misuses = [(values + (None,), {}), (values, {"unrelated": None}), (values, {fields[0]: values[0]})]
        misuses += [(required[:-1], {})] if required else []
        for args, kwargs in misuses:
            for build in (cls, twin):
                with pytest.raises(TypeError):
                    build(*args, **kwargs)
        for f in fields + ("unrelated",):
            with pytest.raises(AttributeError):
                setattr(obj, f, values[0])
            with pytest.raises(AttributeError):
                delattr(obj, f)
        assert tuple(getattr(obj, f) for f in fields) == values


def test_congruence_keeps_its_partition_canonical():
    c = Congruence(partition=(5, 5, 2, 5))
    canonical = _twin(Congruence, ("partition",), {})((0, 0, 1, 0))
    assert c.partition == (0, 0, 1, 0) and c == Congruence((1, 1, 0, 1))
    assert hash(c) == hash(canonical) and repr(c) == repr(canonical)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda k3, wk3: Signature((("f", 1), ("f", 2))), TermSyntaxError, "duplicate symbol names"),
        (lambda k3, wk3: Signature(symbols=(("f", -1),)), TermSyntaxError, "negative arity for f"),
        (lambda k3, wk3: Matrix(wk3, frozenset({3})), InvalidSpec, "designated elements outside"),
        (lambda k3, wk3: MatrixDetermined(()), InvalidSpec, "at least one matrix"),
        (lambda k3, wk3: MatrixDetermined((Matrix(k3, frozenset({2})), Matrix(wk3, frozenset({1})))),
         InvalidSpec, "share a signature"),
        (lambda k3, wk3: MatrixDetermined((Matrix(k3, frozenset({2})),), variable_bound=0),
         InvalidSpec, "variable_bound must be positive"),
        (lambda k3, wk3: GeneratedQuasivariety(()), InvalidSpec, "at least one generator"),
        (lambda k3, wk3: GeneratedQuasivariety((k3, wk3)), InvalidSpec, "generators must share a signature"),
        (lambda k3, wk3: EDCFCandidate("c", 1, ((),)), InvalidSpec, "1 families for n_max 1"),
        (lambda k3, wk3: EDCFCandidate("c", 0, (((parse_equation("x1", "y", wk3.signature),),),)),
         InvalidSpec, r"x1 outside x1\.\.x0"),
        (lambda k3, wk3: EDCFCandidate("c", 0, (((parse_equation("z1", "y", wk3.signature),),),)),
         InvalidSpec, r"z1 outside z1\.\.z0"),
    ],
)
def test_records_validate_their_fields(build, error, message):
    with pytest.raises(error, match=message):
        build(bi.algebra("K3"), bi.algebra("WK3"))
