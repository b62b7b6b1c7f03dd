"""Layer tracing installed from outside the package.

Each traced function is replaced, in every ``grothpoly`` module that holds
it, by a wrapper that records a span (name, parent span, start, duration)
while the tracer is active.  Methods are replaced on their class.  Spans
stay in memory and are written out once, at the end.

Per span name the tracer keeps:
  calls   every span, nested ones included;
  s       inclusive time of outermost spans only (a span with no ancestor
          of the same name), so recursion is not counted twice;
  self_s  each span's duration minus its direct children's durations.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# identities suite -> the check functions run_suite calls for it
IDENTITY_SUITES = {
    "rll": ("check_rll",),
    "eigenvector": ("check_eigenvector",),
    "unitarity": ("check_unitary",),
    "inversion": ("check_inversion_G", "check_inversion_dual"),
    "commutation": ("check_commutation",),
    "cauchy": (
        "check_cauchy_1", "check_cauchy_2", "check_skew_cauchy",
        "check_gen_cauchy", "check_dual_sum_rule", "check_G_at_z",
    ),
}

CONSTRUCTORS = ("groth_poly", "groth_poly_dual_route", "dual_groth_poly", "j_poly")


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        # one entry per span
        self.parent = array("q")
        self.name = array("H")
        self.start = array("d")
        self.dur = array("d")
        # per name
        self.calls: list[int] = []
        self.outer_s: list[float] = []
        self.self_s: list[float] = []
        self.open: list[int] = []
        # stack frames: [span id, name id, start, children's time]
        self.stack: list[list] = []
        self.t0 = perf_counter()
        self.term_products = 0
        self.try_div_calls = 0
        self.try_div_hits = 0
        self.constructor_calls = 0
        self.constructor_repeats = 0
        self._seen_args: set = set()

    def name_id(self, name: str) -> int:
        nid = self.index.get(name)
        if nid is None:
            nid = self.index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.outer_s.append(0.0)
            self.self_s.append(0.0)
            self.open.append(0)
        return nid

    def enter(self, nid: int) -> list:
        sid = len(self.start)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.name.append(nid)
        self.dur.append(0.0)
        self.open[nid] += 1
        frame = [sid, nid, 0.0, 0.0]
        self.stack.append(frame)
        now = perf_counter()
        self.start.append(now - self.t0)
        frame[2] = now
        return frame

    def leave(self, frame: list) -> None:
        now = perf_counter()
        sid, nid, t0, child = frame
        self.stack.pop()
        d = now - t0
        self.dur[sid] = d
        self.calls[nid] += 1
        self.self_s[nid] += d - child
        self.open[nid] -= 1
        if self.open[nid] == 0:
            self.outer_s[nid] += d
        if self.stack:
            self.stack[-1][3] += d

    def span(self, name: str, fn, note=None, after=None):
        """Wrapper recording one span per call of fn while active; note sees
        the arguments before the call, after sees the result."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if note is not None:
                note(args, kwargs)
            frame = self.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(frame)
            if after is not None:
                after(result)
            return result

        return traced

    def stats(self) -> dict:
        return {
            "calls": dict(zip(self.names, self.calls)),
            "s": dict(zip(self.names, self.outer_s)),
            "self_s": dict(zip(self.names, self.self_s)),
            "term_products": self.term_products,
            "try_div_calls": self.try_div_calls,
            "try_div_hits": self.try_div_hits,
            "constructor_calls": self.constructor_calls,
            "constructor_repeats": self.constructor_repeats,
        }

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: id, parent id, name, start, duration."""
        with open(path, "w") as f:
            f.write("id\tparent\tname\tstart_s\tdur_s\n")
            names = self.names
            for sid in range(len(self.start)):
                f.write(
                    f"{sid}\t{self.parent[sid]}\t{names[self.name[sid]]}\t"
                    f"{self.start[sid]:.9f}\t{self.dur[sid]:.9f}\n"
                )

    # -- notes kept at the call boundary ---------------------------------
    def _note_mul(self, args, kwargs):
        a, b = args
        if hasattr(b, "terms") and isinstance(b.terms, dict):
            self.term_products += len(a.terms) * len(b.terms)

    def _after_try_div(self, result):
        self.try_div_calls += 1
        self.try_div_hits += result is not None

    def _note_constructor(self, name):
        def note(args, kwargs):
            key = (name, repr(args), repr(sorted(kwargs.items())))
            self.constructor_calls += 1
            if key in self._seen_args:
                self.constructor_repeats += 1
            else:
                self._seen_args.add(key)

        return note


def replace_everywhere(orig, wrapper) -> int:
    """Rebind every grothpoly module attribute that is orig to wrapper."""
    n = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "grothpoly" or modname.startswith("grothpoly.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)
                n += 1
    return n


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    import grothpoly.cli  # noqa: F401  (loads every module below)
    from grothpoly import algebra, factored, identities, models, partitions, transfer
    from grothpoly.algebra import MultiPoly, RationalFunction, TruncatedSeries
    from grothpoly.factored import FactorRegistry, FFrac

    def function(module, attr, name, note=None, after=None):
        orig = getattr(module, attr)
        if replace_everywhere(orig, tracer.span(name, orig, note, after)) == 0:
            raise RuntimeError(f"{module.__name__}.{attr} not found")

    def method(cls, attrs, name, note=None):
        orig = cls.__dict__[attrs[0]]
        wrapper = tracer.span(name, orig, note)
        for attr in attrs:
            if cls.__dict__.get(attr) is orig:
                setattr(cls, attr, wrapper)

    function(grothpoly.cli, "main", "cli.main")

    function(algebra, "rf_to_json", "algebra.rf_to_json")
    function(algebra, "poly_gcd", "algebra.poly_gcd")
    function(algebra, "poly_divexact", "algebra.poly_divexact")
    function(algebra, "poly_try_div", "algebra.poly_try_div", after=tracer._after_try_div)
    function(algebra, "series_from_rf", "algebra.series_from_rf")
    method(RationalFunction, ("substitute",), "algebra.RationalFunction.substitute")
    method(MultiPoly, ("__mul__", "__rmul__"), "algebra.MultiPoly.mul", tracer._note_mul)
    method(MultiPoly, ("__add__", "__radd__"), "algebra.MultiPoly.add")
    method(TruncatedSeries, ("__mul__",), "algebra.TruncatedSeries.mul")
    _install_normalize(tracer, RationalFunction)

    method(FactorRegistry, ("__init__",), "factored.FactorRegistry.init")
    method(FactorRegistry, ("from_rf",), "factored.FactorRegistry.from_rf")
    method(FFrac, ("__add__",), "factored.FFrac.add")
    method(FFrac, ("__mul__",), "factored.FFrac.mul")
    method(FFrac, ("to_rf",), "factored.FFrac.to_rf")

    function(models, "vertex_weight", "models.vertex_weight")
    function(models, "rmatrix_entry", "models.rmatrix_entry")

    for name in CONSTRUCTORS:
        function(transfer, name, f"transfer.{name}", tracer._note_constructor(name))
    function(transfer, "transfer_element", "transfer.transfer_element")
    function(transfer, "row_configuration_weight", "transfer.row_configuration_weight")

    for attr in ("horizontal_strip_subs", "vertical_strip_subs", "subpartitions"):
        function(partitions, attr, "partitions.steps")
    # a generator does its work while iterated: time the whole enumeration
    enum = partitions.enumerate_partitions
    steps = tracer.span("partitions.steps", lambda *a, **k: list(enum(*a, **k)))
    replace_everywhere(enum, functools.wraps(enum)(lambda *a, **k: iter(steps(*a, **k))))

    for suite, attrs in IDENTITY_SUITES.items():
        for attr in attrs:
            function(identities, attr, f"identities.{suite}")


def _install_normalize(tracer: Tracer, cls) -> None:
    """Span only the constructions that reduce a non-constant denominator."""
    orig = cls.__init__
    nid = tracer.name_id("algebra.RationalFunction.normalize")

    @functools.wraps(orig)
    def init(self, num, den=None, *, _norm=True):
        if not (tracer.active and _norm and den is not None
                and not den.is_constant() and not num.is_zero()):
            return orig(self, num, den, _norm=_norm)
        frame = tracer.enter(nid)
        try:
            orig(self, num, den, _norm=_norm)
        finally:
            tracer.leave(frame)

    cls.__init__ = init
