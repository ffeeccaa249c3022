"""Per-layer tracing installed from outside the package.

Every public function and method of each hopfkit module is replaced by a
wrapper, at every name the package binds it under: the defining module, each
module that imported it, the package namespace and module-level dicts such as
solver registries.  Span wrappers record id, parent, request, name, start and
end; spans live in memory and are written out when the run ends.  A span's
self time is its duration minus the time its child spans cover.

``rationals`` gets counting wrappers only: a span per scalar operation would
cost more than the operation itself.
"""

from __future__ import annotations

import enum
import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

PACKAGE = "hopfkit"
LAYERS = (
    "polynomials",
    "forms",
    "elimination",
    "multipliers",
    "sections",
    "classify",
    "geometry",
    "cli",
)

# Operators that are entry points even though their names are private.
OPERATORS = {
    "__init__", "__str__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
}
ARITHMETIC = OPERATORS - {"__init__", "__str__"} | {"conjugate"}
DIVISION = {"__truediv__", "__rtruediv__"}


def _term_count(obj, terms) -> int:
    """Nonzero terms of a polynomial or form, without sorting when the count is at hand."""
    stored = getattr(obj, "_terms", None)
    return len(stored) if isinstance(stored, dict) else len(terms(obj))


class Tracer:
    """Spans and counters of one traced pass.

    A span is seven integers in ``spans``: id, parent id (0 at the top),
    request, name index, start, end and self time, in nanoseconds.  Spans
    are appended as they close, so a span's children are complete by then
    and its self time is known at once.
    """

    FIELDS = ("id", "parent", "request", "name", "start_ns", "end_ns", "self_ns")

    def __init__(self):
        self.spans = array("q")
        self.names: list[str] = []  # "layer:qualified name", by name index
        self.counts: Counter = Counter()
        self.request = 0
        self._stack: list[int] = []
        self._covered: dict[int, int] = {}  # open span id -> time covered by its closed children
        self._next_id = 0
        self._undo: list = []

    # ------------------------------------------------------------ wrappers

    def _span(self, layer, name, fn, before=None, after=None):
        spans, stack, covered = self.spans, self._stack, self._covered
        index = len(self.names)
        self.names.append(f"{layer}:{name}")

        def open_span():
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1] if stack else 0
            stack.append(sid)
            return sid, parent, perf_counter_ns()

        def close_span(sid, parent, start):
            end = perf_counter_ns()
            if stack[-1] == sid:
                stack.pop()
            else:  # an abandoned generator closed late
                stack.remove(sid)
            duration = end - start
            if parent:
                covered[parent] = covered.get(parent, 0) + duration
            own = max(0, duration - covered.pop(sid, 0))
            spans.extend((sid, parent, self.request, index, start, end, own))

        if inspect.isgeneratorfunction(fn):
            # the package consumes its generators at once, so a span from the
            # first item to exhaustion times the enumeration itself
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                sid, parent, start = open_span()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    close_span(sid, parent, start)

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            sid, parent, start = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(sid, parent, start)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, keys, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for key in keys:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ counters

    def _counters(self, layer, name, originals):
        """Work counters (before, after) for the entry points that carry one."""
        counts = self.counts

        def add(key, amount):
            counts[key] += amount

        if layer == "polynomials" and name in ("Polynomial.__mul__", "Polynomial.__rmul__"):
            terms = originals["Polynomial.terms"]

            def before(args):
                a, b = args[0], args[1]
                if type(b) is type(a):
                    add("polynomials.mul_term_pairs", _term_count(a, terms) * _term_count(b, terms))

            return before, None
        if layer == "forms" and name == "wedge":
            terms = originals["DifferentialForm.terms"]
            form = originals["DifferentialForm"]

            def before(args):
                a, b = args[0], args[1]
                if isinstance(a, form) and isinstance(b, form):
                    add("forms.wedge_term_pairs", _term_count(a, terms) * _term_count(b, terms))

            return before, None
        if layer == "elimination" and name == "matrix_rank":

            def before(args):
                rows = args[0]
                if isinstance(rows, (list, tuple)) and rows:
                    add("elimination.matrix_cells", len(rows) * len(rows[0]))

            return before, None
        if layer == "elimination" and name == "uni_remainder":
            return (lambda args: add("elimination.gcd_remainders", 1)), None
        if layer == "classify" and name == "nonsingularity_check":

            def after(result):
                add("classify.checks", 1)
                add("classify.decided", result.verdict.value != "unknown")

            return None, after
        if layer == "sections" and name.startswith("solve_"):
            return None, lambda result: add("sections.basis_entries", len(result))
        if layer == "cli" and name in ("render_json", "render_text"):
            return None, lambda text: add("cli.render_bytes", len(text.encode("utf-8")))
        return None, None

    # ------------------------------------------------------------ install

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        replaced: dict[int, object] = {}  # id(original function) -> wrapper
        for layer in LAYERS + ("rationals",):
            module = sys.modules[f"{PACKAGE}.{layer}"]
            defined = {
                name: obj
                for name, obj in vars(module).items()
                if getattr(obj, "__module__", None) == module.__name__
            }
            originals = dict(defined)
            for cname, cls in list(defined.items()):
                if isinstance(cls, type):
                    originals.update(
                        (f"{cname}.{a}", v) for a, v in vars(cls).items() if inspect.isfunction(v)
                    )
            for name, obj in defined.items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and layer != "rationals":
                    before, after = self._counters(layer, name, originals)
                    replaced[id(obj)] = self._span(layer, name, obj, before, after)
                elif isinstance(obj, type) and not issubclass(obj, (enum.Enum, BaseException)):
                    self._wrap_class(layer, obj, originals)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == PACKAGE or module_name.startswith(PACKAGE + ".")):
                continue
            for name, value in list(vars(module).items()):
                if id(value) in replaced:
                    self._set(module, name, replaced[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replaced:
                            self._undo.append((value, key, item))
                            value[key] = replaced[id(item)]

    def _wrap_class(self, layer, cls, originals) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            qualname = f"{cls.__name__}.{attr}"
            if layer == "rationals":
                if attr in ARITHMETIC and inspect.isfunction(value):
                    keys = ["rationals.ops"] + (["rationals.div_ops"] if attr in DIVISION else [])
                    self._set(cls, attr, self._counted(keys, value))
                elif attr == "parse" and isinstance(value, classmethod):
                    self._set(cls, attr, classmethod(self._counted(["rationals.parse_calls"], value.__func__)))
                continue
            if inspect.isfunction(value):
                before, after = self._counters(layer, qualname, originals)
                self._set(cls, attr, self._span(layer, qualname, value, before, after))
            elif isinstance(value, (classmethod, staticmethod)):
                self._set(cls, attr, type(value)(self._span(layer, qualname, value.__func__)))
            elif isinstance(value, property) and value.fget is not None:
                self._set(cls, attr, property(self._span(layer, qualname, value.fget), value.fset, value.fdel))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)

    # ------------------------------------------------------------ results

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Per layer: (span count, self time in seconds)."""
        calls = Counter()
        own_ns = Counter()
        for i in range(0, len(self.spans), len(self.FIELDS)):
            layer = self.names[self.spans[i + 3]].split(":", 1)[0]
            calls[layer] += 1
            own_ns[layer] += self.spans[i + 6]
        return {layer: (calls[layer], own_ns[layer] / 1e9) for layer in LAYERS}

    @property
    def span_count(self) -> int:
        return len(self.spans) // len(self.FIELDS)

    def write(self, path) -> None:
        """Write the spans as gzip-compressed tab-separated text, start times from 0."""
        path.parent.mkdir(parents=True, exist_ok=True)
        width = len(self.FIELDS)
        origin = min(self.spans[4::width], default=0)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("\t".join(self.FIELDS) + "\n")
            for i in range(0, len(self.spans), width):
                sid, parent, request, name, start, end, own = self.spans[i:i + width]
                handle.write(f"{sid}\t{parent}\t{request}\t{self.names[name]}\t{start - origin}\t{end - origin}\t{own}\n")
