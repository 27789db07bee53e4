"""Signatures, terms, equations, and rules.

Terms are written as S-expressions: ``(or x1 (neg x1))``.  Arity-0 symbols
(constants) appear as bare atoms.  Any other bare atom is kept as a variable;
whether it later resolves to a bound variable or to an element label of a
concrete algebra is decided at evaluation time.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter

from .errors import ArityMismatch, TermSyntaxError, UnknownName


class _Record:
    """A value whose fields are named in the class's `_fields`: equal to a
    record of the same class with equal fields, hashed and shown by them, and
    frozen once built.  `_assign`, compiled once per class from `_fields` and
    `_defaults` as `dataclasses` compiles a frozen dataclass's __init__, sets
    the fields.  It is the __init__ of a class that defines none; one that
    checks or normalises its arguments ends with self._assign(...)."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        # the field tuple, as a dataclass compares and hashes it; attrgetter
        # returns a lone field bare
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))
        params = ", ".join(f"{f}=_defaults[{f!r}]" if f in cls._defaults else f for f in cls._fields)
        sets = "".join(f"\n    _set(self, {f!r}, {f})" for f in cls._fields)
        namespace = {"_set": object.__setattr__, "_defaults": cls._defaults}
        exec(f"def __init__(self, {params}):{sets}", namespace)
        cls._assign = namespace["__init__"]
        cls._assign.__qualname__ = f"{cls.__qualname__}.__init__"
        if "__init__" not in cls.__dict__:
            cls.__init__ = cls._assign

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _hash_fields_once(self) -> int:
    """__hash__ of a record that serves as a cache key: its fields, operation
    tables or subterms among them, are hashed on the first call only."""
    h = self.__dict__.get("_hash")
    if h is None:
        h = self.__dict__["_hash"] = hash(self._values(self))
    return h


class Signature(_Record):
    """A finite list of operation symbols with fixed arities."""

    _fields = ("symbols",)

    def __init__(self, symbols: tuple[tuple[str, int], ...]):
        names = [name for name, _ in symbols]
        if len(names) != len(set(names)):
            raise TermSyntaxError("duplicate symbol names in signature")
        for name, arity in symbols:
            if arity < 0:
                raise TermSyntaxError(f"negative arity for {name}")
        self._assign(symbols)

    @cached_property
    def _arities(self) -> dict[str, int]:
        return dict(self.symbols)

    def arity(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise UnknownName(f"symbol {name!r} not in signature") from None

    def __contains__(self, name: str) -> bool:
        return name in self._arities

    @property
    def constants(self) -> tuple[str, ...]:
        return tuple(name for name, arity in self.symbols if arity == 0)


class Var(_Record):
    __slots__ = _fields = ("name",)


class App(_Record):
    _fields = ("symbol", "args")
    _defaults = {"args": ()}

    __hash__ = _hash_fields_once  # memo keys at every node: hash each subterm once


Term = Var | App


class Equation(_Record):
    __slots__ = _fields = ("lhs", "rhs")

    def __str__(self):
        return f"{format_term(self.lhs)} = {format_term(self.rhs)}"


class Rule(_Record):
    __slots__ = _fields = ("premises", "conclusion")

    def __str__(self):
        prem = ", ".join(format_term(p) for p in self.premises)
        return f"{prem} |- {format_term(self.conclusion)}"


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _read(tokens: list[str], pos: int, sig: Signature):
    if pos >= len(tokens):
        raise TermSyntaxError("unexpected end of term")
    tok = tokens[pos]
    if tok == ")":
        raise TermSyntaxError("unexpected ')'")
    if tok == "(":
        if pos + 1 >= len(tokens):
            raise TermSyntaxError("unexpected end of term after '('")
        head = tokens[pos + 1]
        if head in ("(", ")"):
            raise TermSyntaxError("operator position must hold a symbol")
        if head not in sig:
            raise TermSyntaxError(f"unknown operation symbol {head!r}")
        args = []
        pos += 2
        while tokens[pos] != ")" if pos < len(tokens) else False:
            arg, pos = _read(tokens, pos, sig)
            args.append(arg)
        if pos >= len(tokens):
            raise TermSyntaxError("missing ')'")
        arity = sig.arity(head)
        if len(args) != arity:
            raise ArityMismatch(f"{head} expects {arity} arguments, got {len(args)}")
        return App(head, tuple(args)), pos + 1
    # bare atom: a constant if the signature says so, else a variable
    if tok in sig:
        if sig.arity(tok) != 0:
            raise ArityMismatch(f"symbol {tok!r} has arity {sig.arity(tok)}, write it applied")
        return App(tok, ()), pos + 1
    return Var(tok), pos + 1


def parse_term(text: str, sig: Signature) -> Term:
    tokens = _tokenize(text)
    if not tokens:
        raise TermSyntaxError("empty term")
    term, pos = _read(tokens, 0, sig)
    if pos != len(tokens):
        raise TermSyntaxError(f"trailing input after term: {' '.join(tokens[pos:])}")
    return term


def parse_equation(lhs: str, rhs: str, sig: Signature) -> Equation:
    return Equation(parse_term(lhs, sig), parse_term(rhs, sig))


def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.symbol
    return "(" + " ".join([t.symbol] + [format_term(a) for a in t.args]) + ")"


def variables(*terms: Term) -> tuple[str, ...]:
    """Variable names in first-occurrence order."""
    out: list[str] = []

    def walk(u: Term):
        if isinstance(u, Var):
            if u.name not in out:
                out.append(u.name)
        else:
            for a in u.args:
                walk(a)

    for t in terms:
        walk(t)
    return tuple(out)
