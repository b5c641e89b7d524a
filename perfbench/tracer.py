"""Spans around calls into the public functions of each ``rht`` layer.

The tracer wraps functions from outside the library: a module-level function
is replaced where it is defined and in every ``rht`` module that imported it
by name; a method is replaced on the class that defines it.  Each call
records a span ``[name, start, end, parent, outer]`` in memory, plus the
counts the per-layer metrics need.  ``start`` and ``end`` bracket the call of
the library function alone; ``outer`` is the whole time spent in the wrapper,
its own bookkeeping included.  ``dump`` writes the spans out once the
operation ends, with a summary per span name of calls and self time.  A
span's self time is its duration minus the ``outer`` time of its child
spans, so the tracer's bookkeeping counts neither towards the function nor
towards its caller; the summary reports it apart as ``trace.bookkeeping_s``.
Functions in ``COUNTED`` are called up to 10^5 times per operation and are
measured by their call count only, without a span, to keep the tracing
overhead small; the counter's cost (one frame and a dict update per call)
stays in the caller's self time.
"""

import importlib
import json
import sys
import time
import weakref
from contextlib import contextmanager

# (module under rht, function or Class.method); the span name is
# "<module>.<qualname>".
TARGETS = (
    ("linalg", "row_echelon"),
    ("linalg", "kernel_basis"),
    ("linalg", "solve"),
    ("linalg", "EchelonSpan.add"),
    ("gca", "Cdga.cohomology"),
    ("gca", "Cdga.d_matrix"),
    ("gca", "Cdga.class_coordinates"),
    ("gca", "FreeGCA.degree_basis"),
    ("gca", "FreeGCA.degree_basis_position"),
    ("gca", "FreeGCA.apply_derivation"),
    ("gca", "FreeGCA.multiply"),
    ("gca", "FreeGCA.poly_str"),
    ("quotient", "QuotientRing.rank"),
    ("quotient", "QuotientRing.multiplication_matrix"),
    ("quotient", "QuotientRing.reduce"),
    ("quotient", "ModelCohomology.poly_class"),
    ("formality", "regular_sequence_check"),
    ("formality", "RhoMorphism.is_quasi_iso"),
    ("formality", "free_cohomology_check"),
    ("formality", "bigraded_model"),
    ("formality", "barred_bigraded_model"),
    ("formality", "lemma36_scan"),
    ("dgl", "free_lie"),
    ("dgl", "Dgl.validate"),
    ("dgl", "Dgl.bracket_lin"),
    ("dgl", "tensor_map_model"),
    ("cefunctor", "ce_cochains"),
    ("mapmodel", "reduce_to_odd_sphere"),
    ("mapmodel", "suspension_model"),
    ("mapmodel", "check_hypotheses"),
    ("certificates", "serialize_verdict"),
    ("certificates", "parse_certificate"),
    ("workspace", "parse_text"),
    ("workspace", "print_algebra"),
    ("cli", "main"),
)

COUNTED = ("linalg.solve", "gca.Cdga.class_coordinates",
           "gca.FreeGCA.degree_basis_position", "gca.FreeGCA.multiply",
           "quotient.QuotientRing.reduce", "quotient.ModelCohomology.poly_class",
           "dgl.Dgl.bracket_lin")

# Counts that record a size rather than an amount of work: an operation
# reports the largest value seen, not the sum.
SIZE_COUNTS = ("formality.bigraded_generators", "formality.barred_generators",
               "dgl.lie_basis_size", "cefunctor.ce_cochains.generators",
               "certificates.cert_bytes")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.missing = []
        self._stack = []
        self._basis_seen = {}
        self._hooks = {
            "linalg.row_echelon": self._row_echelon,
            "linalg.EchelonSpan.add": self._span_add,
            "gca.Cdga.d_matrix": self._d_matrix,
            "gca.FreeGCA.degree_basis": self._degree_basis,
            "formality.bigraded_model": self._size(
                "formality.bigraded_generators", lambda r: len(r.cdga.names)),
            "formality.barred_bigraded_model": self._size(
                "formality.barred_generators", lambda r: len(r.cdga.names)),
            "dgl.free_lie": self._size("dgl.lie_basis_size",
                                       lambda r: len(r.names)),
            "cefunctor.ce_cochains": self._size(
                "cefunctor.ce_cochains.generators",
                lambda r: len(r.cdga.names)),
            "certificates.serialize_verdict": self._size(
                "certificates.cert_bytes", lambda r: len(r.encode("utf-8"))),
        }

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        stack = self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            stack.pop()
            span[4] = span[2] - span[1]

    def _wrap(self, name, fn):
        hook = self._hooks.get(name)
        calls = name + ".calls"
        clock = time.perf_counter

        def counted(*args, **kwargs):
            self.counts[calls] = self.counts.get(calls, 0) + 1
            return fn(*args, **kwargs)

        def traced(*args, **kwargs):
            entered = clock()
            stack = self._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                span[4] = span[2] - entered
            if hook is not None:
                hook(args, kwargs, result)
                span[4] = clock() - entered
            return result

        wrapper = counted if name in COUNTED else traced
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- counts taken at the layer boundaries --------------------------------

    def _row_echelon(self, args, kwargs, result):
        rows = args[0] if args else kwargs["rowlists"]
        self.add("linalg.row_echelon.cells",
                 len(rows) * (len(rows[0]) if rows else 0))

    def _span_add(self, args, kwargs, result):
        self.add("linalg.EchelonSpan.add.useful", 1 if result else 0)

    def _d_matrix(self, args, kwargs, result):
        self.add("gca.Cdga.d_matrix.nnz", len(result.entries))

    def _degree_basis(self, args, kwargs, result):
        algebra = args[0]
        n = args[1] if len(args) > 1 else kwargs["n"]
        ref, seen = self._basis_seen.get(id(algebra), (None, None))
        if ref is None or ref() is not algebra:
            ref, seen = weakref.ref(algebra), set()
            self._basis_seen[id(algebra)] = (ref, seen)
        if n in seen:
            self.add("gca.FreeGCA.degree_basis.repeats", 1)
        seen.add(n)

    def _size(self, key, measure):
        def hook(args, kwargs, result):
            self.counts[key] = max(self.counts.get(key, 0), measure(result))
        return hook

    # -- installation and output ---------------------------------------------

    def install(self):
        """Wrap every target; targets the library no longer has are listed
        in ``missing`` and simply not traced."""
        for module, _ in TARGETS:
            importlib.import_module("rht." + module)
        modules = [m for n, m in sys.modules.items()
                   if n == "rht" or n.startswith("rht.")]
        for module, qualname in TARGETS:
            name = "%s.%s" % (module, qualname)
            mod = sys.modules["rht." + module]
            owner, attr = mod, qualname
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(mod, cls_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            traced = self._wrap(name, original)
            setattr(owner, attr, traced)
            if owner is mod:
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, traced)

    def summary(self):
        """The counts plus "<span>.calls" and "<span>.self_s" per span name,
        and the tracer's own time as "trace.bookkeeping_s"."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, outer in self.spans:
            if parent >= 0:
                covered[parent] += outer
        out = dict(self.counts)
        bookkeeping = 0.0
        for i, (name, start, end, parent, outer) in enumerate(self.spans):
            key = name + ".calls"
            out[key] = out.get(key, 0) + 1
            key = name + ".self_s"
            out[key] = out.get(key, 0.0) + (end - start) - covered[i]
            bookkeeping += outer - (end - start)
        out["trace.bookkeeping_s"] = bookkeeping
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": self.summary(), "missing": self.missing,
                       "spans": self.spans}, fh)
