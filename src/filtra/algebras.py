"""Finite algebras over an indexed carrier, with the structural constructions.

Carriers are always {0, ..., n-1}; element labels are display-only.  Operation
tables are stored flat in row-major order (first argument varies slowest), so
the value of f(a1, ..., ak) sits at index a1*n^(k-1) + ... + ak.

Terms are compiled by compile_term into the table of their term function
over every valuation at once; a term's value at one valuation is that table's
entry.  Compiled tables live for one call and are never cached; each node's
table spends its width from the caller's budget.  On carriers of at most 256
elements a compiled table is a byte lane: a bytes object holding one value per
byte, so operations apply to whole tables through bytes.translate and big
integer arithmetic; above 256 elements it is a tuple.  That choice is made
here alone, by _codec, which every module holding tables reads.
"""

from __future__ import annotations

import collections
import itertools
import operator
import weakref
from functools import cached_property
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .errors import (
    ArityMismatch,
    InvalidSpec,
    SizeBudgetExceeded,
    UnboundVariable,
    UnknownName,
)
from .terms import Signature, Term, Var, _hash_fields_once, _Record

DEFAULT_BUDGET = 10_000_000


class Budget:
    """A mutable step counter that fails loudly instead of hanging."""

    def __init__(self, limit: int = DEFAULT_BUDGET):
        self.limit = limit
        self.spent = 0

    def spend(self, n: int = 1) -> None:
        self.spent += n
        if self.spent > self.limit:
            raise SizeBudgetExceeded(
                f"computation exceeded {self.limit} elementary steps"
            )

    def check(self, estimate: int) -> None:
        if self.spent + estimate > self.limit:
            raise SizeBudgetExceeded(
                f"estimated {estimate} steps would exceed budget {self.limit}"
            )


def as_budget(budget: Budget | None) -> Budget:
    return Budget() if budget is None else budget


def _mask(elements: Iterable[int]) -> int:
    """A subset of the carrier as a bitmask: element e is bit e."""
    mask = 0
    for e in elements:
        mask |= 1 << e
    return mask


def _elements(mask: int) -> list[int]:
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def _by_size(mask: int) -> tuple[int, list[int]]:
    """Sort key: ascending by cardinality, then lexicographically."""
    return mask.bit_count(), _elements(mask)


def next_closure(size: int, close: Callable[[int, Budget], int], budget: Budget) -> Iterator[int]:
    """The closed sets of a closure operator on {0, ..., size-1}, as bitmasks.

    NextClosure (Ganter 1984): the closed sets in lectic order, where the
    smaller element weighs more, each found from its predecessor A as the
    first closure of (A below i) + i that adds nothing below i.  At most size
    closures per closed set, each spending one step besides what the closure
    spends of the same budget; a caller that stops iterating stops the search.
    """
    full = (1 << size) - 1
    budget.spend()
    closed = close(0, budget)
    yield closed
    while closed != full:
        for i in reversed(range(size)):
            bit = 1 << i
            if closed & bit:
                continue
            below = closed & (bit - 1)
            budget.spend()
            candidate = close(below | bit, budget)
            if candidate & (bit - 1) == below:
                closed = candidate
                break
        yield closed


def _meet_closure(top, generators: Collection, meet: Callable, cost: int, budget: Budget) -> set:
    """The closure of {top}, the empty meet, under meeting with each
    generator; every member found meets every generator at cost steps each."""
    found = {top}
    frontier = [top]
    while frontier:
        current = frontier.pop()
        budget.spend(cost * len(generators))
        for met in {meet(current, g) for g in generators} - found:
            found.add(met)
            frontier.append(met)
    return found


# the live algebra of each value, keyed by its field tuple, which does not
# hold it: an entry goes with the last reference to its algebra
_ALGEBRAS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class FiniteAlgebra(_Record):
    """A total algebra on {0, ..., size-1} with one table per symbol."""

    _fields = ("name", "size", "signature", "tables", "labels")
    _defaults = {"labels": None}

    __hash__ = _hash_fields_once

    @classmethod
    def make(
        cls,
        name: str,
        size: int,
        signature: Signature,
        tables: Mapping[str, Sequence[int]],
        labels: Sequence[str] | None = None,
    ) -> "FiniteAlgebra":
        """The algebra of these fields, checked and normalised.  While an
        algebra of equal value is alive it is returned itself, so that equal
        algebras are one object and their caches are found by identity."""
        if size <= 0:
            raise InvalidSpec(f"algebra {name!r} must have a positive carrier")
        if labels is not None and len(labels) != size:
            raise InvalidSpec(f"algebra {name!r}: {len(labels)} labels for {size} elements")
        normalized = []
        for sym, arity in signature.symbols:
            if sym not in tables:
                raise InvalidSpec(f"algebra {name!r}: no table for symbol {sym!r}")
            table = tuple(tables[sym])
            if len(table) != size**arity:
                raise InvalidSpec(
                    f"algebra {name!r}: table for {sym!r} has {len(table)} entries, "
                    f"expected {size**arity}"
                )
            if any(not (0 <= v < size) for v in table):
                raise InvalidSpec(f"algebra {name!r}: table entry out of range for {sym!r}")
            normalized.append((sym, table))
        extra = set(tables) - {sym for sym, _ in signature.symbols}
        if extra:
            raise InvalidSpec(f"algebra {name!r}: tables for unknown symbols {sorted(extra)}")
        built = cls(name, size, signature, tuple(normalized), tuple(labels) if labels else None)
        return _ALGEBRAS.setdefault(built._values(built), built)

    @cached_property
    def _tmap(self) -> dict[str, tuple[int, ...]]:
        return dict(self.tables)

    @cached_property
    def _byte_tables(self) -> dict[str, bytes]:
        """The tables with at most 256 entries (size**arity <= 256) on a
        carrier held in byte lanes, each as a 256-byte translation table."""
        return {s: _BYTES.row(t) for s, t in self.tables if len(t) <= 256 and _codec(self.size) is _BYTES}

    @cached_property
    def _basic_translations(self) -> tuple[Table, ...]:
        """The basic translations x -> f(c.., x, ..c), without repeats, as
        byte lanes or tuples over the carrier (_codec), in the order
        first met.

        Constant maps and the identity are left out: they send a pair to one
        element or to itself, so they neither merge nor split blocks.  Priced
        per call by congruences._translations, which reads them.
        """
        n = self.size
        lane = _codec(n).table
        found: dict[Table, None] = {}
        for sym, arity in self.signature.symbols:
            table = self._tmap[sym]
            for pos in range(arity):
                stride = n ** (arity - 1 - pos)
                for base in range(len(table)):
                    if (base // stride) % n == 0:
                        found[lane(table[base : base + n * stride : stride])] = None
        found.pop(lane(range(n)), None)
        return tuple(t for t in found if t.count(t[0]) < n)

    def table(self, symbol: str) -> tuple[int, ...]:
        try:
            return self._tmap[symbol]
        except KeyError:
            raise UnknownName(f"no operation {symbol!r} on algebra {self.name!r}") from None

    def label(self, element: int) -> str:
        if self.labels is not None:
            return self.labels[element]
        return str(element)

    def element_index(self, token: str) -> int:
        """Resolve an element given as a label or as a decimal index."""
        if self.labels is not None and token in self.labels:
            return self.labels.index(token)
        try:
            idx = int(token)
        except ValueError:
            raise UnknownName(f"{token!r} is not an element of {self.name!r}") from None
        if not (0 <= idx < self.size):
            raise UnknownName(f"index {idx} out of range for {self.name!r}")
        return idx

    def describe(self, elements: Iterable[int]) -> str:
        return "{" + ", ".join(self.label(e) for e in sorted(elements)) + "}"


class Matrix(_Record):
    """An algebra together with a set of designated elements."""

    __slots__ = _fields = ("algebra", "designated")

    def __init__(self, algebra: FiniteAlgebra, designated: frozenset[int]):
        if any(not (0 <= d < algebra.size) for d in designated):
            raise InvalidSpec("designated elements outside the carrier")
        self._assign(algebra, designated)


def _free_variables(names: Iterable[str], algebra: FiniteAlgebra) -> tuple[str, ...]:
    labels = set(algebra.labels or ())
    return tuple(v for v in names if v not in labels)


Table = bytes | tuple[int, ...]


# how tables are held: table(values) makes one, gather(column, row(values))
# maps each entry e of a column to values[e], join(tables) lays them end to end
_Codec = collections.namedtuple("_Codec", "table row gather join")
_BYTES = _Codec(bytes, lambda values: bytes(values).ljust(256, b"\0"), bytes.translate, b"".join)
_TUPLES = _Codec(
    tuple, tuple, lambda column, row: tuple(map(row.__getitem__, column)),
    lambda parts: tuple(itertools.chain.from_iterable(parts)),
)


def _codec(size: int) -> _Codec:
    """Tables are byte lanes on carriers of at most 256 elements, with a
    256-byte translation table as a row; tuples above."""
    return _BYTES if size <= 256 else _TUPLES


def _apply_pointwise(algebra: FiniteAlgebra, symbol: str, args: Sequence[Table]) -> Table:
    """Apply an operation pointwise to the tables of its arguments.

    When the operation's whole table fits a byte lane (size**arity <= 256),
    the arguments are combined by Horner's rule as big integers, one byte per
    valuation: multiplying by the size and adding the next argument keeps each
    byte below size**arity, so no byte carries into the next, and each byte
    ends up holding the flat table index of its point, which one translate
    turns into the value.  Otherwise each point's index is computed in turn.
    """
    translation = algebra._byte_tables.get(symbol)
    if translation is not None:
        index = 0
        for arg in args:
            index = index * algebra.size + int.from_bytes(arg, "little")
        return index.to_bytes(len(args[0]), "little").translate(translation)
    index = list(args[0])
    for arg in args[1:]:
        index = [i * algebra.size + a for i, a in zip(index, arg)]
    return _codec(algebra.size).table(map(algebra.table(symbol).__getitem__, index))


# translates byte 0 to 1 and every other byte to 0
_IS_ZERO = b"\1" + bytes(255)


def _lanes(table: bytes) -> int:
    """A byte table as a big integer, byte i in bits 8i to 8i+7."""
    return int.from_bytes(table, "little")


def _agreement(lhs: Table, rhs: Table, partition: Sequence[int] | None = None) -> int:
    """Lanes holding 1 where the two tables agree, or with a partition (a
    block-id array) where their values share a block, and 0 elsewhere; byte
    lanes agree where their XOR, read back as bytes, is zero."""
    if partition is not None:
        codec = _codec(len(partition))
        block = codec.row(partition)
        lhs, rhs = codec.gather(lhs, block), codec.gather(rhs, block)
    if isinstance(lhs, tuple):  # a carrier above 256 elements
        return _lanes(bytes(map(operator.eq, lhs, rhs)))
    differ = _lanes(lhs) ^ _lanes(rhs)
    return _lanes(differ.to_bytes(len(lhs), "little").translate(_IS_ZERO))


def _constant_table(algebra: FiniteAlgebra, value: int, width: int) -> Table:
    return _codec(algebra.size).table((value,)) * width


def _leaf_table(algebra: FiniteAlgebra, nvars: int, node: tuple) -> Table:
    """Table of a variable node (None, i) or a constant node (symbol, ())."""
    sym, arg = node
    if sym is None:
        run = algebra.size ** (nvars - arg - 1)  # consecutive valuations sharing its value
        column = _codec(algebra.size).join([_constant_table(algebra, v, run) for v in range(algebra.size)])
        return column * algebra.size**arg
    return _constant_table(algebra, algebra.table(sym)[0], algebra.size**nvars)


def compile_term(
    t: Term, algebra: FiniteAlgebra, variables: Sequence[str], budget: Budget | None = None
) -> Table:
    """The table of the term function of t over the variables.

    Entry i is the value of t at the i-th valuation in lexicographic order
    (the first variable varies slowest); the table is bytes on carriers of at
    most 256 elements, else a tuple.  A name resolves to a listed variable
    first, then to an element label, read as a literal.  Each distinct subterm is
    tabulated once and spends the table width from the budget.
    """
    budget = as_budget(budget)
    budget.check(algebra.size ** len(variables))
    return _tabulate(t, algebra, {v: i for i, v in enumerate(variables)}, budget, {})


def _tabulate(
    t: Term, algebra: FiniteAlgebra, position: Mapping[str, int], budget: Budget, tables: dict
) -> Table:
    """compile_term's recursion; tables holds the subterms tabulated so far."""
    done = tables.get(t)
    if done is not None:
        return done
    nvars = len(position)
    width = algebra.size**nvars
    if isinstance(t, Var):
        if t.name not in position and t.name not in (algebra.labels or ()):
            raise UnboundVariable(f"variable {t.name!r} is unbound")
        budget.spend(width)
        if t.name in position:
            tables[t] = _leaf_table(algebra, nvars, (None, position[t.name]))
        else:
            tables[t] = _constant_table(algebra, algebra.labels.index(t.name), width)
        return tables[t]
    args = [_tabulate(a, algebra, position, budget, tables) for a in t.args]
    table = algebra.table(t.symbol)
    arity = algebra.signature.arity(t.symbol)
    if len(args) != arity:
        raise ArityMismatch(f"{t.symbol} expects {arity} arguments, got {len(args)}")
    budget.spend(width)
    if args:
        tables[t] = _apply_pointwise(algebra, t.symbol, args)
    else:
        tables[t] = _constant_table(algebra, table[0], width)
    return tables[t]


class Product(_Record):
    """A direct product together with its index codec."""

    __slots__ = _fields = ("algebra", "factor_sizes")

    def to_tuple(self, element: int) -> tuple[int, ...]:
        out = []
        for size in reversed(self.factor_sizes):
            out.append(element % size)
            element //= size
        return tuple(reversed(out))


def direct_product(algebras: Sequence[FiniteAlgebra], budget: Budget | None = None) -> Product:
    """Componentwise product of one or more factors."""
    budget = as_budget(budget)
    sig = algebras[0].signature
    for a in algebras[1:]:
        if a.signature != sig:
            raise InvalidSpec("product factors must share a signature")
    sizes = tuple(a.size for a in algebras)
    total = 1
    for s in sizes:
        total *= s
    table_cells = sum(total**arity for _, arity in sig.symbols)
    budget.check(table_cells)

    prod_name = "x".join(a.name for a in algebras)
    points = list(itertools.product(*(range(s) for s in sizes)))
    labels = None
    if all(a.labels is not None for a in algebras):
        labels = ["(" + ",".join(a.labels[c] for a, c in zip(algebras, p)) + ")" for p in points]

    tables = {}
    for sym, arity in sig.symbols:
        budget.spend(total**arity)
        entries = [0] * total**arity
        # mixed-radix encoding of the value coordinates, first factor slowest
        for alg, coords in zip(algebras, zip(*points)):
            table = alg.table(sym)
            indices = _tuple_indices(alg.size, coords, arity)
            entries = [e * alg.size + table[i] for e, i in zip(entries, indices)]
        tables[sym] = entries
    algebra = FiniteAlgebra.make(prod_name, total, sig, tables, labels)
    return Product(algebra, sizes)


def _tuple_indices(size: int, coords: Sequence[int], arity: int) -> list[int]:
    """Flat table indices of every arity-tuple over coords, lexicographically."""
    indices = [0]
    for _ in range(arity):
        indices = [i * size + c for i in indices for c in coords]
    return indices


def subuniverse_generated(
    algebra: FiniteAlgebra, subset: Iterable[int], budget: Budget | None = None
) -> frozenset[int]:
    """Least subset containing the seed and all constants, closed under the tables.

    With no constants and an empty seed the result is empty.
    """
    budget = as_budget(budget)
    current = set(subset)
    for c in algebra.signature.constants:
        current.add(algebra.table(c)[0])
    changed = True
    while changed:
        changed = False
        members = sorted(current)
        for sym, arity in algebra.signature.symbols:
            if arity == 0:
                continue
            budget.spend(len(members) ** arity)
            table = algebra.table(sym)
            image = {table[i] for i in _tuple_indices(algebra.size, members, arity)}
            if not image <= current:
                current |= image
                changed = True
    return frozenset(current)


def is_subuniverse(algebra: FiniteAlgebra, subset: frozenset[int]) -> bool:
    members = sorted(subset)
    return all(
        algebra.table(sym)[i] in subset
        for sym, arity in algebra.signature.symbols
        for i in _tuple_indices(algebra.size, members, arity)
    )


def enumerate_subuniverses(
    algebra: FiniteAlgebra, budget: Budget | None = None
) -> list[frozenset[int]]:
    """All non-empty subuniverses containing the constants, smallest first.

    They are the closed sets of subuniverse_generated, enumerated by
    next_closure: at most |A| closures per subuniverse, each spending one
    step besides what subuniverse_generated spends.
    """
    budget = as_budget(budget)

    def close(mask: int, budget: Budget) -> int:
        return _mask(subuniverse_generated(algebra, _elements(mask), budget))

    found = sorted((m for m in next_closure(algebra.size, close, budget) if m), key=_by_size)
    return [frozenset(_elements(m)) for m in found]


def induced_subalgebra(
    algebra: FiniteAlgebra, subuniverse: Iterable[int], budget: Budget | None = None
) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Restrict the tables to a subuniverse, one step per table cell written.

    Returns the subalgebra on a re-indexed carrier together with the inclusion
    map (sub index -> parent element), sorted ascending.
    """
    budget = as_budget(budget)
    members = tuple(sorted(set(subuniverse)))
    if not members:
        raise InvalidSpec("a subalgebra needs a non-empty carrier")
    if not is_subuniverse(algebra, frozenset(members)):
        raise InvalidSpec(f"{algebra.describe(members)} is not a subuniverse of {algebra.name!r}")
    back = {e: i for i, e in enumerate(members)}
    tables = {}
    for sym, arity in algebra.signature.symbols:
        budget.spend(len(members) ** arity)
        table = algebra.table(sym)
        tables[sym] = [back[table[i]] for i in _tuple_indices(algebra.size, members, arity)]
    labels = None
    if algebra.labels is not None:
        labels = [algebra.labels[e] for e in members]
    sub_name = f"{algebra.name}|{{{','.join(str(m) for m in members)}}}"
    return FiniteAlgebra.make(sub_name, len(members), algebra.signature, tables, labels), members


def _canonical(partition: Sequence[int]) -> tuple[int, ...]:
    relabel: dict[int, int] = {}
    out = []
    for b in partition:
        if b not in relabel:
            relabel[b] = len(relabel)
        out.append(relabel[b])
    return tuple(out)


def _homomorphisms(
    dom: FiniteAlgebra, cod: FiniteAlgebra, budget: Budget, injective: bool = False
) -> Iterator[tuple[int, ...]]:
    """Homomorphisms dom -> cod in lexicographic order, each yielded once found.

    Depth-first search assigning the images of 0, 1, ... in turn; a partial
    map is pruned as soon as some operation instance it fully decides reads a
    different value off cod's table.  Each candidate image spends one step;
    with injective, an image already in use is skipped before it spends.
    """
    if dom.signature != cod.signature:
        raise InvalidSpec(f"{dom.name} and {cod.name} have different signatures: homomorphisms need a shared one")
    n, m = dom.size, cod.size
    # for each element e, the op instances fully decided once 0..e are assigned
    instances_at: list[list[tuple[tuple[int, ...], tuple[int, ...], int]]] = [[] for _ in range(n)]
    for sym, arity in dom.signature.symbols:
        for args, value in zip(itertools.product(range(n), repeat=arity), dom.table(sym)):
            instances_at[max(args + (value,))].append((cod.table(sym), args, value))
    image = [0] * n
    used = [False] * m

    def consistent(e: int) -> bool:
        for table, args, value in instances_at[e]:
            idx = 0
            for a in args:
                idx = idx * m + image[a]
            if table[idx] != image[value]:
                return False
        return True

    def search(e: int) -> Iterator[tuple[int, ...]]:
        if e == n:
            yield tuple(image)
            return
        for v in range(m):
            if injective and used[v]:
                continue
            budget.spend()
            image[e] = v
            if consistent(e):
                used[v] = True
                yield from search(e + 1)
                used[v] = False

    return search(0)


def enumerate_homomorphisms(
    dom: FiniteAlgebra, cod: FiniteAlgebra, budget: Budget | None = None
) -> list[tuple[int, ...]]:
    """All homomorphisms dom -> cod in lexicographic order (see _homomorphisms)."""
    return list(_homomorphisms(dom, cod, as_budget(budget)))
