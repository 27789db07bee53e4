"""Per-layer tracing from outside the program.

Every public function of every ``filtra`` module is replaced, in every module
namespace that binds it, by a wrapper that times the call.  The modules bind
each other's functions with ``from .x import f``, so wrapping only the
defining module would miss most calls.

A span is one outermost call of a function (or of a group of functions, such
as ``algebras.eval``): recursive and nested calls of the same span name run
inside the outer span and are neither counted nor timed again.  A span's self
time is its duration minus the time covered by the spans it encloses.

Aggregates are kept in memory and read once, by ``Tracer.report``, when the
process is done.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time

# functions reported under one span name instead of their own
GROUPS = {
    ("filtra.algebras", "eval_term"): "algebras.eval",
    ("filtra.algebras", "holds_equation"): "algebras.eval",
    ("filtra.algebras", "holds_universally"): "algebras.eval",
}

# layer of each module: serialization is part of the corpus load
LAYER_OF_MODULE = {"serialization": "builtins"}

# logics functions that take an (algebra, logic) pair
PAIR_FUNCTIONS = (
    "all_filters", "filters_certified", "fg", "fg_certified", "fg_relative",
    "fg_trace", "has_theorem", "is_filter", "is_filter_certain", "make_filter",
)


def _modules():
    import filtra

    names = sorted(m.name for m in pkgutil.iter_modules(filtra.__path__))
    return filtra, [importlib.import_module(f"filtra.{n}") for n in names]


def _traced_functions(modules):
    """(module short name, function name, function) for each public function."""
    out = []
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, value in vars(mod).items():
            if name.startswith("_") or inspect.isclass(value) or not callable(value):
                continue
            if getattr(value, "__module__", None) != mod.__name__:
                continue
            out.append((short, name, value))
    return out


class _Pairs:
    """Value-keyed indices of (algebra, logic) pairs, memoized by identity so
    that the tracer hashes an operation table once per object."""

    def __init__(self):
        self._by_id: dict[int, tuple[object, int]] = {}
        self._by_value: dict[object, int] = {}
        self.seen: dict[tuple[int, int], tuple[object, object]] = {}

    def index(self, obj) -> int:
        hit = self._by_id.get(id(obj))
        if hit is not None and hit[0] is obj:
            return hit[1]
        idx = self._by_value.setdefault(obj, len(self._by_value))
        self._by_id[id(obj)] = (obj, idx)
        return idx


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # span -> [calls, self_s, layer]
        self._stack: list[list[float]] = []  # child time of each open span
        self._installed: list[tuple[object, str, object]] = []
        self.pairs = _Pairs()
        self.cold_s = 0.0
        self._cold_open = False
        self.fg_keys: set = set()
        self.fg_repeats = 0
        self._depths: dict[str, list[int]] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        package, modules = _modules()
        wrappers = {}
        for short, name, fn in _traced_functions(modules):
            span = GROUPS.get((f"filtra.{short}", name), f"{short}.{name}")
            layer = LAYER_OF_MODULE.get(short, short)
            wrappers[id(fn)] = (fn, self._wrap(span, layer, short, name, fn))
        for mod in [package] + modules:
            for name, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._installed.append((mod, name, value))
                    setattr(mod, name, hit[1])

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._installed):
            setattr(mod, name, value)
        self._installed.clear()

    def _wrap(self, span, layer, short, name, fn):
        stat = self.stats.setdefault(span, [0, 0.0, layer])
        stack = self._stack
        clock = time.perf_counter
        depth = self._depths.setdefault(span, [0])  # shared by a group's functions
        pair_of = self._pair_reader(fn) if short == "logics" and name in PAIR_FUNCTIONS else None
        is_fg = short == "logics" and name == "fg"

        def wrapper(*args, **kwargs):
            if depth[0]:
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
            if is_fg:
                args, kwargs = self._note_fg(args, kwargs)
            cold = pair_of is not None and self._first_call(pair_of(args, kwargs))
            if cold:
                self._cold_open = True
            depth[0] = 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[0] = 0
                stat[0] += 1
                stat[1] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if cold:
                    self.cold_s += dt
                    self._cold_open = False

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _pair_reader(fn):
        params = list(inspect.signature(fn).parameters)
        ia, il = params.index("algebra"), params.index("logic")

        def read(args, kwargs):
            algebra = args[ia] if len(args) > ia else kwargs["algebra"]
            logic = args[il] if len(args) > il else kwargs["logic"]
            return algebra, logic

        return read

    # -- counters ---------------------------------------------------------

    def _first_call(self, pair) -> bool:
        """Record the pair; True when it is new and no cold span is open."""
        key = (self.pairs.index(pair[0]), self.pairs.index(pair[1]))
        if key in self.pairs.seen:
            return False
        self.pairs.seen[key] = pair
        return not self._cold_open

    def _note_fg(self, args, kwargs):
        args = list(args)
        if len(args) > 1:
            gens = args[1] = frozenset(args[1])
        else:
            gens = kwargs["generators"] = frozenset(kwargs["generators"])
        algebra = args[0] if args else kwargs["algebra"]
        logic = args[2] if len(args) > 2 else kwargs["logic"]
        key = (self.pairs.index(algebra), gens, self.pairs.index(logic))
        if key in self.fg_keys:
            self.fg_repeats += 1
        else:
            self.fg_keys.add(key)
        return tuple(args), kwargs

    # -- report -----------------------------------------------------------

    def report(self) -> dict:
        """Aggregates of this process; call after uninstall."""
        from filtra.logics import fg_certified

        certified = sum(1 for a, lg in self.pairs.seen.values() if fg_certified(a, lg))
        layers: dict[str, float] = {}
        for calls, self_s, layer in self.stats.values():
            layers[layer] = layers.get(layer, 0.0) + self_s
        return {
            "spans": {k: [v[0], v[1]] for k, v in self.stats.items() if v[0]},
            "layers": layers,
            "cold_s": self.cold_s,
            "pairs": len(self.pairs.seen),
            "certified_pairs": certified,
            "fg_calls": self.stats.get("logics.fg", [0])[0],
            "fg_repeats": self.fg_repeats,
        }
