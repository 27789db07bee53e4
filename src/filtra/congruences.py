"""Congruences of finite algebras: generation, enumeration, and the Leibniz
congruence of a designated subset.

A congruence is stored canonically as a block-id array whose ids appear in
first-occurrence order, so equality of partitions is equality of tuples and
blocks listed by id are automatically sorted by least member.  Generation
and joins work on least-member arrays instead, whose entry e is the least
element of e's block: canonical too, and a union-find forest of depth one.

Generation, the lattice and the Leibniz refinement read the algebra's basic
translations.  They are tabulated once per algebra and kept on it as byte
lanes (tuples above 256 elements), but priced on every call at the steps of
tabulating them, so a call spends the same steps on a fresh algebra as on a
warm one.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .algebras import Budget, FiniteAlgebra, Table, _canonical, _table_type, as_budget
from .errors import NotACongruence
from .terms import _Record


class Congruence(_Record):
    __slots__ = _fields = ("partition",)

    def __init__(self, partition: tuple[int, ...]):
        object.__setattr__(self, "partition", _canonical(partition))

    @classmethod
    def identity(cls, size: int) -> "Congruence":
        return cls(tuple(range(size)))

    @classmethod
    def total(cls, size: int) -> "Congruence":
        return cls((0,) * size)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], size: int) -> "Congruence":
        partition = [-1] * size
        for i, block in enumerate(blocks):
            for e in block:
                if partition[e] != -1:
                    raise NotACongruence(f"element {e} listed in two blocks")
                partition[e] = i
        if any(b == -1 for b in partition):
            raise NotACongruence("blocks do not cover the carrier")
        return cls(tuple(partition))

    @property
    def size(self) -> int:
        return len(self.partition)

    @property
    def num_blocks(self) -> int:
        return max(self.partition) + 1 if self.partition else 0

    def same(self, a: int, b: int) -> bool:
        return self.partition[a] == self.partition[b]

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for e, b in enumerate(self.partition):
            out[b].append(e)
        return out

    def pairs(self) -> list[tuple[int, int]]:
        """A generating set of pairs: consecutive members of each block."""
        out = []
        for block in self.blocks():
            for a, b in zip(block, block[1:]):
                out.append((a, b))
        return out

    def meet(self, other: "Congruence") -> "Congruence":
        return Congruence(tuple(zip(self.partition, other.partition)))

    def join(self, other: "Congruence") -> "Congruence":
        """Join as equivalence relations (the transitive closure of the
        union); the join of two congruences of an algebra is again one."""
        return Congruence(_merged(range(self.size), self.pairs() + other.pairs()))

    def refines(self, other: "Congruence") -> bool:
        """True if every block of self sits inside a block of other."""
        seen: dict[int, int] = {}
        for e in range(self.size):
            mine, theirs = self.partition[e], other.partition[e]
            if mine in seen:
                if seen[mine] != theirs:
                    return False
            else:
                seen[mine] = theirs
        return True

    def __le__(self, other: "Congruence") -> bool:
        return self.refines(other)

    def to_blocks_json(self) -> list[list[int]]:
        return self.blocks()


def _union(forest: list[int], a: int, b: int) -> bool:
    """Merge the blocks of a and b in a forest whose parents precede their
    children; the smaller root wins, so every root is its block's least."""
    while forest[a] != a:
        a = forest[a]
    while forest[b] != b:
        b = forest[b]
    if a == b:
        return False
    if b < a:
        a, b = b, a
    forest[b] = a
    return True


def _merged(least: Sequence[int], pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The least-member array of the join of a partition with the pairs:
    unite along them, then flatten the forest in one ascending pass."""
    forest = list(least)
    for a, b in pairs:
        _union(forest, a, b)
    for e, parent in enumerate(forest):
        forest[e] = forest[parent]
    return tuple(forest)


def _translations(algebra: FiniteAlgebra, budget: Budget) -> tuple[Table, ...]:
    """The algebra's basic translations (FiniteAlgebra._basic_translations),
    priced on every call at the arity * n^(arity-1) steps of tabulating them.

    An equivalence relation is a congruence iff every basic translation
    preserves it (Mal'cev), so this table is all that generating congruences
    and refining to the Leibniz congruence need.
    """
    n = algebra.size
    budget.spend(sum(arity * n ** (arity - 1) for _, arity in algebra.signature.symbols if arity))
    return algebra._basic_translations


def _generated(
    translations: Sequence[Table], n: int, pairs: Iterable[tuple[int, int]], budget: Budget
) -> tuple[int, ...]:
    """The least-member array of the congruence generated by the pairs."""
    forest = list(range(n))
    worklist = [p for p in pairs if _union(forest, *p)]
    while worklist:
        a, b = worklist.pop()
        budget.spend(len(translations))
        for t in translations:
            if _union(forest, t[a], t[b]):
                worklist.append((t[a], t[b]))
    return _merged(forest, ())


def cg_generated(
    algebra: FiniteAlgebra,
    pairs: Iterable[tuple[int, int]],
    budget: Budget | int | None = None,
) -> Congruence:
    """Least congruence containing the pairs.

    Union-find seeded with the pairs; whenever two elements a, b merge, the
    images t(a), t(b) under every basic translation t are merged as well, to
    fixpoint.  The translations are tabulated once per algebra and priced
    per call.
    """
    budget = as_budget(budget)
    return Congruence(_generated(_translations(algebra, budget), algebra.size, pairs, budget))


def all_congruences(algebra: FiniteAlgebra, budget: Budget | int | None = None) -> tuple[Congruence, ...]:
    """The whole congruence lattice: principal congruences closed under joins.

    Every congruence is the join of the principal congruences below it, so
    closing {identity} and the principal congruences under joins with a
    single principal congruence reaches all of them: O(L * P) joins for L
    congruences and P principal ones (Freese 2008).  A join needs no
    operation, since the join of two congruences as equivalence relations is
    one: theta v Cg(a, b) unites theta's least-member array along the pairs
    (e, least(e)) of Cg(a, b) alone.  The principal congruences share one
    table of basic translations.  Only the budget bounds the enumeration.
    Finer congruences come first.
    """
    budget = as_budget(budget)
    n = algebra.size
    translations = _translations(algebra, budget)
    # each principal congruence with one pair generating it, then with the
    # pairs (e, least(e)) of the elements e that are not their block's least
    principals: dict[tuple[int, ...], tuple[int, int]] = {}
    for a in range(n):
        for b in range(a + 1, n):
            principals.setdefault(_generated(translations, n, [(a, b)], budget), (a, b))
    joins = [(a, b, [p for p in enumerate(least) if p[0] != p[1]]) for least, (a, b) in principals.items()]
    found = set(principals) | {tuple(range(n))}
    frontier = list(found)
    while frontier:
        theta = frontier.pop()
        for a, b, pairs in joins:
            if theta[a] == theta[b]:  # Cg(a, b) is already below theta
                continue
            budget.spend(n)
            joined = _merged(theta, pairs)
            if joined not in found:
                found.add(joined)
                frontier.append(joined)
    # deterministic order: finer first, then lexicographic on the block array
    lattice = [Congruence(least) for least in found]
    return tuple(sorted(lattice, key=lambda t: (-t.num_blocks, t.partition)))


def leibniz_congruence(
    algebra: FiniteAlgebra, subset: Iterable[int], budget: Budget | int | None = None
) -> Congruence:
    """Largest congruence compatible with the subset.

    Partition refinement (Moore; Paige & Tarjan 1987): start from the
    partition {F, A minus F} and, each round, split every block by the blocks
    that the basic translations send its members to, until the number of
    blocks stops growing.  The stable partition is preserved by every basic
    translation, hence a congruence (Mal'cev), and it is compatible with F.
    Every congruence compatible with F refines each round's partition, so the
    result is the largest one.

    On byte lanes a round is one translate: the identity and the translations
    joined end to end, mapped through the block array, hold the blocks that
    element e goes to at e, e + n, e + 2n, ..., so the slice [e::n] is its key.
    """
    budget = as_budget(budget)
    n = algebra.size
    members = frozenset(subset)
    translations = _translations(algebra, budget)
    lanes = bytes(range(n)) + b"".join(translations) if _table_type(n) is bytes else None
    blocks = _canonical([e in members for e in range(n)])
    while True:
        budget.spend(n * (len(translations) + 1))
        if lanes is None:
            columns = [blocks] + [[blocks[x] for x in t] for t in translations]
            refined = _canonical(list(zip(*columns)))
        else:
            joined = lanes.translate(bytes(blocks).ljust(256, b"\0"))
            refined = _canonical([joined[e::n] for e in range(n)])
        if max(refined) == max(blocks):
            return Congruence(blocks)
        blocks = refined
