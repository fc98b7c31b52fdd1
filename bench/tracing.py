"""Tracing of lieworkbench from outside the program.

The benchmark measures the program without changing it:
:meth:`Tracer.install` replaces the functions and methods listed in
``TARGETS`` with timing wrappers and re-binds every ``from .x import f``
copy of a replaced function in the other lieworkbench modules, so a call
made through any name is seen.

Two kinds of wrapper are used.

* **Spans** mark coarse boundaries (a job, a check, a suite criterion, a
  twist phase, an ``rref``, ``h2_dim``, ``solve_coboundary``).  Each call is
  kept in memory as ``(id, parent id, name, start, end)``.  A span's self
  time is its duration minus that of its child spans.
* **Leaves** are hot calls (``Poly`` and ``RatFunc`` operators, PBW
  rewriting, ``TensorUEA`` products, brackets, the ``d2`` residual).  They
  are only aggregated -- a call count and a self time, which is the
  duration minus that of nested traced calls -- so memory stays bounded.

A span's self time still holds the leaf calls made inside it, so the
metrics of nested layers overlap.  For the layer-share report the tracer
also keeps two partitions of the traced time, which never count an
instant twice:

* each layer's *exclusive* time, during which the innermost running
  traced call belongs to that layer;
* each metric's *owned* time: its exclusive time plus that of the
  ``scalars`` calls it makes directly, the coefficient arithmetic every
  other layer computes with.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

SPAN, LEAF, COUNT = "span", "leaf", "count"

# Traced entry points: (module, attribute path, metric name, kind).  A
# metric may be fed by several entry points (both operand orders of an
# operator, both twist constructors).  The first part of a metric name is its
# layer.
TARGETS = (
    ("scalars", "Poly.__mul__", "scalars.poly_mul", LEAF),
    ("scalars", "Poly.__rmul__", "scalars.poly_mul", LEAF),
    ("scalars", "Poly.__add__", "scalars.poly_add", LEAF),
    ("scalars", "Poly.__radd__", "scalars.poly_add", LEAF),
    ("scalars", "Poly.truncate", "scalars.poly_truncate", LEAF),
    ("scalars", "RatFunc.__init__", "scalars.ratfunc_new", COUNT),
    *(("scalars", f"RatFunc.{op}", "scalars.ratfunc_arith", LEAF)
      for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__")),
    ("enveloping", "TensorUEA.__mul__", "enveloping.tensor_mul", LEAF),
    ("enveloping", "TensorUEA.__init__", "enveloping.tensor_new", LEAF),
    ("enveloping", "UEAElement.__mul__", "enveloping.uea_mul", LEAF),
    ("enveloping", "UEA.normalize_word", "enveloping.normalize_word", COUNT),
    ("enveloping", "build_jordanian_twist", "enveloping.build_twist", SPAN),
    ("enveloping", "build_extended_twist", "enveloping.build_twist", SPAN),
    ("enveloping", "twist_cocycle_check", "enveloping.cocycle_check", SPAN),
    ("enveloping", "universal_R", "enveloping.universal_R", SPAN),
    ("enveloping", "qybe_check", "enveloping.qybe_check", SPAN),
    ("enveloping", "classical_limit", "enveloping.classical_limit", SPAN),
    ("linsolve", "rref", "linsolve.rref", SPAN),
    ("linsolve", "rank_at_point", "linsolve.rank_at_point", SPAN),
    ("linsolve", "verify_rank_generically", "linsolve.generic_check", SPAN),
    ("linsolve", "solve_linear", "linsolve.solve_linear", SPAN),
    ("cohomology", "d1", "cohomology.d1", LEAF),
    ("cohomology", "d2_residual", "cohomology.d2_residual", LEAF),
    ("cohomology", "cocycle2_witness", "cohomology.cocycle_scan", SPAN),
    ("cohomology", "mixed_jacobiator", "cohomology.mixed_jacobiator", LEAF),
    ("cohomology", "compatible_pair", "cohomology.compatible_pair", SPAN),
    ("cohomology", "solve_coboundary", "cohomology.solve_coboundary", SPAN),
    ("cohomology", "h2_dim", "cohomology.h2_dim", SPAN),
    ("liealg", "LieSuperAlgebra.verify_jacobi", "liealg.verify_jacobi", SPAN),
    ("liealg", "LieSuperAlgebra.bracket", "liealg.bracket", LEAF),
    ("liealg", "LieSuperAlgebra.bracket_basis", "liealg.bracket_basis", LEAF),
    ("bialgebra", "schouten", "bialgebra.schouten", LEAF),
    ("bialgebra", "ad_action", "bialgebra.ad_action", LEAF),
    ("dsl", "parse", "dsl.parse", SPAN),
    ("runner", "load", "runner.load", SPAN),
    *(("runner", f"_run_{kind}", f"runner.check.{kind}", SPAN)
      for kind in ("jacobi", "cybe", "mcybe", "cocycle", "compatible",
                   "coboundary", "decompose", "twist")),
    ("catalog", "catalog_get", "catalog.build", LEAF),
    *(("catalog", name, "catalog.build", LEAF)
      for name in ("make_sl", "make_gl", "make_borel", "make_rborel",
                   "make_rdj", "make_rjordan", "make_rfull",
                   "make_double_pieces", "make_osp12", "make_dual_standard",
                   "make_dual_jordanian", "mu_prime_transcription")),
    *(("suite", name, f"suite.criterion.{number:02d}", SPAN)
      for number, name in enumerate((
          "criterion_catalog_jacobi", "criterion_jordanian_cybe",
          "criterion_standard_r", "criterion_decompose_limit",
          "criterion_adjoint_twist", "criterion_double",
          "criterion_mutual_cocycles", "criterion_coboundary",
          "criterion_mu_prime", "criterion_twists",
          "criterion_negative_controls"), start=1)),
)

LAYERS = ("scalars", "enveloping", "linsolve", "cohomology", "liealg",
          "bialgebra", "dsl", "runner", "catalog", "suite")


def _is_parametric(entry) -> bool:
    num = getattr(entry, "num", entry)
    den = getattr(entry, "den", None)
    return not num.is_constant() or (den is not None
                                     and not den.is_constant())


class Tracer:
    """Counters, timers, spans and exclusive layer times for one process."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.exclusive_s: dict[str, float] = defaultdict(float)
        self.owned_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        # One frame per open traced call: [time of child spans, time of
        # all traced children, metric that owns the call's time].
        self._stack: list[list] = []
        self._open_spans: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def span(self, metric: str, fn, *args, **kwargs):
        """Call fn inside a span named metric."""
        layer = metric.split(".")[0]
        stack, open_spans = self._stack, self._open_spans
        span_id = len(self.spans)
        parent = open_spans[-1] if open_spans else None
        self.spans.append(None)  # reserve the id; filled in on exit
        open_spans.append(span_id)
        frame = [0.0, 0.0, metric]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            open_spans.pop()
            duration = end - start
            if stack:
                stack[-1][0] += duration
                stack[-1][1] += duration
            self.calls[metric] += 1
            self.self_s[metric] += duration - frame[0]
            self.exclusive_s[layer] += duration - frame[1]
            self.owned_s[metric] += duration - frame[1]
            self.spans[span_id] = (span_id, parent, metric, start, end)

    def _leaf(self, metric: str, fn):
        layer = metric.split(".")[0]
        calls, self_s, exclusive_s = self.calls, self.self_s, self.exclusive_s
        owned_s, stack = self.owned_s, self._stack
        clock = time.perf_counter
        arithmetic = layer == "scalars"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            owner = stack[-1][2] if arithmetic and stack else metric
            frame = [0.0, 0.0, owner]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                calls[metric] += 1
                self_s[metric] += duration - frame[1]
                exclusive_s[layer] += duration - frame[1]
                owned_s[owner] += duration - frame[1]
        return wrapper

    def _count(self, metric: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span_wrapper(self, metric: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(metric, fn, *args, **kwargs)
        return wrapper

    # -- metric-specific wrappers ---------------------------------------------

    def _wrap(self, metric: str, kind: str, fn):
        extra = self.extra
        if metric == "enveloping.tensor_mul":
            timed = self._leaf(metric, fn)

            def tensor_mul(left, right):
                result = timed(left, right)
                if type(right) is type(left):
                    extra["enveloping.tensor_mul.pairs"] += (
                        len(left.terms) * len(right.terms))
                    extra["enveloping.tensor_mul.out_terms"] += len(result.terms)
                return result
            return functools.wraps(fn)(tensor_mul)
        if metric == "enveloping.normalize_word":
            counted = self._count(metric, fn)

            def normalize_word(uea, word):
                if word not in uea._normal:
                    extra["enveloping.normalize_word.misses"] += 1
                return counted(uea, word)
            return functools.wraps(fn)(normalize_word)
        if metric == "linsolve.rref":
            def rref(matrix):
                parametric = False
                nnz = 0
                for row in matrix:
                    for entry in row:
                        if entry:
                            nnz += 1
                            if not parametric and _is_parametric(entry):
                                parametric = True
                cells = sum(len(row) for row in matrix)
                name = "linsolve.rref.param" if parametric else "linsolve.rref.const"
                result = self.span(name, fn, matrix)
                extra["linsolve.rref.cells"] += cells
                extra["linsolve.rref.nnz"] += nnz
                extra["linsolve.rref.rank"] += result.rank
                return result
            return functools.wraps(fn)(rref)
        if metric == "liealg.verify_jacobi":
            spanned = self._span_wrapper(metric, fn)

            def verify_jacobi(algebra):
                report = spanned(algebra)
                extra["liealg.jacobi_triples"] += report.triples_checked
                return report
            return functools.wraps(fn)(verify_jacobi)
        if kind == SPAN:
            return self._span_wrapper(metric, fn)
        if kind == LEAF:
            return self._leaf(metric, fn)
        return self._count(metric, fn)

    # -- installation -----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every entry point in TARGETS and re-bind imported copies."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == package.__name__
                       or name.startswith(package.__name__ + "."))
                   and m is not None]
        replaced: dict[int, tuple] = {}
        for module_name, path, metric, kind in TARGETS:
            owner = sys.modules[f"{package.__name__}.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(metric, kind, original)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))
            if not outer:
                replaced[id(original)] = (original, wrapper)
        for module in modules:
            for name, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])
                    self._installed.append((module, name, value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals so far, as plain data."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "extra": dict(self.extra),
            "exclusive_s": dict(self.exclusive_s),
            "owned_s": dict(self.owned_s),
        }

    def check_spans(self) -> None:
        """Every span closed, and every parent opened before its child."""
        for span in self.spans:
            if span is None:
                raise RuntimeError("a span was never closed")
            span_id, parent, _, start, end = span
            if parent is not None:
                p = self.spans[parent]
                if not (p[3] <= start and end <= p[4]):
                    raise RuntimeError(f"span {span_id} escapes its parent")
