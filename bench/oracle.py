"""Answers the fg-warm stream is checked against, computed without filtra's
filter code.

Rule logics: every valuation instance of every rule is evaluated directly on
the operation tables, and closures are taken by iterating those instances.
Matrix logics: the filter family stored with the benchmark, in which the
generated filter is the least member containing the generators.
"""

from __future__ import annotations

import itertools


def _term_value(term, tables, size, labels, valuation):
    if hasattr(term, "symbol"):
        idx = 0
        for arg in term.args:
            idx = idx * size + _term_value(arg, tables, size, labels, valuation)
        return tables[term.symbol][idx]
    if term.name in valuation:
        return valuation[term.name]
    return labels.index(term.name)


def _variables(term, labels, out):
    if hasattr(term, "symbol"):
        for arg in term.args:
            _variables(arg, labels, out)
    elif term.name not in labels and term.name not in out:
        out.append(term.name)


class RuleOracle:
    """Closure under all valuation instances of a finite rule set."""

    def __init__(self, algebra, rules):
        tables = dict(algebra.tables)
        labels = list(algebra.labels or ())
        self.size = algebra.size
        self.instances = []
        for rule in rules:
            names: list[str] = []
            for t in tuple(rule.premises) + (rule.conclusion,):
                _variables(t, labels, names)
            for values in itertools.product(range(self.size), repeat=len(names)):
                v = dict(zip(names, values))
                prem = frozenset(_term_value(p, tables, self.size, labels, v) for p in rule.premises)
                self.instances.append((prem, _term_value(rule.conclusion, tables, self.size, labels, v)))
        self.family = self._closed_sets()

    def closure(self, generators) -> frozenset[int]:
        current = set(generators)
        grew = True
        while grew:
            grew = False
            for prem, concl in self.instances:
                if concl not in current and prem <= current:
                    current.add(concl)
                    grew = True
        return frozenset(current)

    def _closed_sets(self) -> frozenset[frozenset[int]]:
        # every closed set is reached from the least one by adding one
        # element at a time and closing, since each step stays inside it
        start = self.closure(())
        found = {start}
        frontier = [start]
        while frontier:
            f = frontier.pop()
            for e in range(self.size):
                if e not in f:
                    g = self.closure(f | {e})
                    if g not in found:
                        found.add(g)
                        frontier.append(g)
        return frozenset(found)

    def fg(self, generators) -> frozenset[int]:
        return self.closure(generators)

    def is_filter(self, members) -> bool:
        return frozenset(members) in self.family


class StoredOracle:
    """A stored filter family: fg is its least member containing the generators."""

    def __init__(self, family):
        self.family = frozenset(frozenset(f) for f in family)

    def fg(self, generators) -> frozenset[int]:
        gens = frozenset(generators)
        containing = [f for f in self.family if gens <= f]
        least = frozenset.intersection(*containing)
        if least not in self.family:
            raise ValueError("stored family has no least member over the generators")
        return least

    def is_filter(self, members) -> bool:
        return frozenset(members) in self.family
