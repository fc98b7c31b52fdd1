"""Evaluation of workbench definition files and check execution.

Loading happens in two phases.  Declarations (params, algebras, tensors,
cochains) are evaluated in order, and each check is bound to the values it
names and to the run options (its truncation order, the parameters it may
invert), so unknown identifiers and out-of-range options are rejected at
load time with a source position, before any check runs.  Check execution
then runs the bound checks in declaration order; each check is pure,
reports ``pass``/``fail`` with detail lines, and an operation that refuses
its input (for example a Schouten bracket of an odd tensor) is reported as
``unsupported`` rather than crashing the run.

Name resolution inside expressions prefers generators over parameters,
and declarations in the file shadow the built-in catalog: every name a
declaration or check uses is looked up by ``Environment.resolve``, file
first, then the catalog entry of the expected kind.  A tensor written
without an explicit ``on ALG`` clause draws its generators from the
algebras declared in the file (requiring the names to be unambiguous among
them); with the clause, the named algebra — catalog algebras included —
provides the generators.

A check binds its operands by one rule.  An absent ``on`` clause takes the
carrier of the first tensor: the algebra it was declared on, else the one
algebra (of the file, then of the catalog) whose basis is the tensor's;
several or none is a load error.  Every operand with a basis must lie over
the basis of the check's last algebra operand.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable

from . import dsl
from .bialgebra import (
    check_cybe,
    check_invariant,
    decompose_check,
    proportionality_constant,
    schouten,
    sym_part,
)
from .catalog import (
    catalog_entries,
    catalog_entry,
    catalog_get,
    catalog_names,
    make_rjordan,
)
from .cohomology import (
    Cochain1,
    CoboundaryOutcome,
    cocycle2_witness,
    compare_cochain2,
    d1,
    solve_coboundary,
)
from .enveloping import (
    TensorUEA,
    build_extended_twist,
    build_jordanian_twist,
    classical_limit,
    qybe_check,
    twist_cocycle_check,
    twist_counit_ok,
    universal_R,
)
from .liealg import (Element, GradedBasis, LieSuperAlgebra, Tensor, args_label,
                     otimes, wedge)
from .record import Record
from .scalars import Poly, UnsupportedInputError, param, scalar_str

__all__ = [
    "LoadError",
    "RunOptions",
    "CheckResult",
    "Environment",
    "load",
    "run_checks",
    "run_source",
    "render_text",
    "render_structured",
    "exit_code",
]

DEFAULT_ORDER = 3
# The jordanian twist check costs about 5x more per two orders: 1.2 s at
# order 10, 6 s at order 12 (one core of a shared 2-CPU box, Python 3.11).
MAX_ORDER = 12
# The largest N of an extended sl(N) twist check at truncation order 1, 2,
# ...; no later order is supported.  Each entry was set as the largest N
# whose full check stayed under about 20 s and 140 MB peak RSS.  A full
# check now takes (one core of a shared 2-CPU box, Python 3.11): at the
# bound 7.1 s / 292 MB (sl(34), order 1), 8.4 s / 329 MB (sl(34), order 2),
# 1.6 s / 109 MB (sl(10), order 3), 2.0 s / 100 MB (sl(5), order 4) and
# 3.2 s / 104 MB (sl(3), order 6); one step past it, 7.7 s / 383 MB
# (sl(35), order 1), 9.2 s / 398 MB (sl(35), order 2), 2.2 s / 134 MB
# (sl(11), order 3), 4.0 s / 208 MB (sl(6), order 4), 4.6 s / 187 MB
# (sl(4), order 5) and 16 s / 340 MB (sl(3), order 7).  At orders 1 and 2
# most of both costs is building the bracket table of sl(34) or sl(35).
EXTENDED_MAX_N = (34, 34, 10, 5, 3, 3)


class LoadError(ValueError):
    """Declaration or resolution error with a source line."""

    def __init__(self, message: str, line: int = 0):
        prefix = f"line {line}: " if line else ""
        super().__init__(f"{prefix}{message}")
        self.line = line


def check_order(order: int, line: int = 0) -> int:
    """The twist truncation order if it lies in 1..MAX_ORDER; else LoadError."""
    if not 1 <= order <= MAX_ORDER:
        raise LoadError(f"truncation order {order} is out of range: it must "
                        f"be between 1 and {MAX_ORDER}", line)
    return order


class RunOptions(Record):
    order: int = DEFAULT_ORDER          # default twist truncation order
    assume_nonzero: tuple[str, ...] = ()  # parameters granted inversion


class CheckResult(Record):
    label: str
    status: str  # "pass" | "fail" | "unsupported"
    details: tuple[str, ...]
    elapsed: float = 0.0
    _uncompared = ("elapsed",)


# A loaded check: its label, and the call giving its status and detail lines.
Check = tuple[str, Callable[[], tuple[str, list[str]]]]


# -- environment -------------------------------------------------------------------


class Environment:
    """Named values declared by a file, with catalog fallback."""

    def __init__(self):
        self.params: dict[str, Poly] = {}
        self.algebras: dict[str, LieSuperAlgebra] = {}
        self.tensors: dict[str, Tensor] = {}
        self.tensor_carrier: dict[str, str | None] = {}
        self.cochains: dict[str, Cochain1] = {}

    def resolve(self, kind: str, name: str, line: int = 0):
        """The ``kind`` ("algebra", "tensor", "1-cochain" or "2-cochain")
        named ``name``: the file's declaration first, then the catalog entry
        of that kind.  A 2-cochain is named by a bracket table: the algebra
        itself, whose bracket is a parity-0 2-cochain as it stands."""
        declared, catalog_kind, advice = {
            "algebra": (self.algebras, "algebra", ""),
            "tensor": (self.tensors, "tensor", ""),
            "1-cochain": (self.cochains, "cochain", ""),
            "2-cochain": (self.algebras, "algebra",
                          " (name an algebra to use its bracket table)"),
        }[kind]
        if name in declared:
            return declared[name]
        if name in catalog_names() and catalog_entry(name).kind == catalog_kind:
            return catalog_get(name)
        raise LoadError(f"unknown {kind} {name!r}{advice}", line)

    def carrier_for(self, name: str, tensor: Tensor,
                    line: int = 0) -> LieSuperAlgebra:
        """The algebra whose basis carries the tensor ``name``: its declared
        carrier, else the one algebra of the file, or failing that of the
        catalog, with its basis.  A catalog algebra whose name the file
        declares is not a candidate."""
        declared = (self.tensor_carrier[name] if name in self.tensors
                    else catalog_entry(name).algebra)
        if declared is not None:
            A = self.resolve("algebra", declared, line)
            if A.basis == tensor.basis:
                return A
        catalog = ((entry.name, catalog_get(entry.name))
                   for entry in catalog_entries() if entry.kind == "algebra"
                   and entry.name not in self.algebras)
        for tier in (self.algebras.items(), catalog):
            carriers = {n: A for n, A in tier if A.basis == tensor.basis}
            if len(carriers) > 1:
                raise LoadError(f"algebras {', '.join(carriers)} all carry "
                                "this tensor (add an 'on ALGEBRA' clause)",
                                line)
            if carriers:
                (A,) = carriers.values()
                return A
        raise LoadError("no known algebra carries this tensor "
                        "(add an 'on ALGEBRA' clause)", line)


# -- expression evaluation ------------------------------------------------------------


def _is_zero_scalar(value) -> bool:
    return isinstance(value, Poly) and not value


def _eval_add(left, right, op: str, line: int):
    if _is_zero_scalar(left):
        return right if op == "+" else -right
    if _is_zero_scalar(right):
        return left
    sides = (_kind_name(left), _kind_name(right))
    if type(left) is type(right):
        try:
            return left + right if op == "+" else left - right
        except ValueError:  # two sums over different bases
            sides = tuple(f"{kind} over basis ({', '.join(value.basis.names)})"
                          for kind, value in zip(sides, (left, right)))
    raise LoadError(f"cannot {'add' if op == '+' else 'subtract'} "
                    f"{sides[0]} and {sides[1]}", line)


def _kind_name(value) -> str:
    if isinstance(value, Poly):
        return "a scalar"
    if isinstance(value, Element):
        return "an algebra element"
    return "a tensor"


def _eval_mul(left, right, line: int):
    if isinstance(left, Poly) and isinstance(right, Poly):
        return left * right
    if isinstance(left, Poly):
        return right.scaled(left)
    if isinstance(right, Poly):
        return left.scaled(right)
    raise LoadError("cannot multiply two algebra values; use ^ or (x)", line)


def _eval_pairing(op: str, left, right, line: int):
    if not isinstance(left, Element) or not isinstance(right, Element):
        raise LoadError(f"both sides of {op} must be algebra elements", line)
    try:
        return wedge(left, right) if op == "^" else otimes(left, right)
    except ValueError as exc:
        raise LoadError(str(exc), line) from None


def eval_expr(expr: dsl.Expr, lookup, line: int):
    """Evaluate to a Poly, Element, or Tensor; ``lookup`` resolves names."""
    if isinstance(expr, dsl.Num):
        return Poly.const(expr.value)
    if isinstance(expr, dsl.Name):
        return lookup(expr.ident)
    if isinstance(expr, dsl.Neg):
        return -eval_expr(expr.operand, lookup, line)
    if isinstance(expr, dsl.BinOp):
        left = eval_expr(expr.left, lookup, line)
        right = eval_expr(expr.right, lookup, line)
        if expr.op in ("+", "-"):
            return _eval_add(left, right, expr.op, line)
        if expr.op == "*":
            return _eval_mul(left, right, line)
        return _eval_pairing(expr.op, left, right, line)
    raise TypeError(f"cannot evaluate {expr!r}")  # pragma: no cover


# -- loading -----------------------------------------------------------------------


def _scope_lookup(env: Environment, generators: dict[str, Element],
                  line: int, allow_tensors: bool):
    """Name resolution: generators, then parameters, then tensors."""

    def lookup(ident: str):
        if ident in generators:
            return generators[ident]
        if ident in env.params:
            return env.params[ident]
        if allow_tensors:
            try:
                return env.resolve("tensor", ident)
            except LoadError:
                pass
        raise LoadError(f"unknown identifier {ident!r}", line)

    return lookup


def _file_generators(env: Environment, line: int) -> dict[str, Element]:
    """Generators of all file-declared algebras; ambiguous names rejected."""
    owners: dict[str, str] = {}
    out: dict[str, Element] = {}
    for alg_name, A in env.algebras.items():
        for gen_name in A.basis.names:
            if gen_name in owners:
                raise LoadError(
                    f"generator {gen_name!r} is declared by both "
                    f"{owners[gen_name]!r} and {alg_name!r}; "
                    "add an 'on ALGEBRA' clause", line)
            owners[gen_name] = alg_name
            out[gen_name] = A.gen(gen_name)
    return out


def _declare_param(env: Environment, stmt: dsl.ParamDecl):
    for name in stmt.names:
        if name in env.params:
            raise LoadError(f"parameter {name!r} re-declared", stmt.line)
        env.params[name] = param(name)


def _declare_entries(env: Environment, generators: dict[str, Element],
                     entries, what: str) -> dict:
    """The coefficients of (key, label, expression, line) ``entries``: a
    key (a tuple of generator names) is declared once even when its value
    is 0, each value is an element or 0, and zero values are left out."""
    values = {}
    for key, label, expr, line in entries:
        for name in key:
            if name not in generators:
                raise LoadError(f"unknown identifier {name!r}", line)
        if key in values:
            raise LoadError(f"{label} re-declared", line)
        lookup = _scope_lookup(env, generators, line, allow_tensors=False)
        values[key] = value = eval_expr(expr, lookup, line)
        if not isinstance(value, Element) and not _is_zero_scalar(value):
            raise LoadError(f"a {what} value must be an algebra element", line)
    return {key: value.coeffs for key, value in values.items()
            if isinstance(value, Element)}


def _declare_algebra(env: Environment, stmt: dsl.AlgebraDecl):
    if stmt.name in env.algebras:
        raise LoadError(f"algebra {stmt.name!r} re-declared", stmt.line)
    names = [name for name, _ in stmt.basis]
    if len(set(names)) != len(names):
        raise LoadError("duplicate generator in basis", stmt.line)
    basis = GradedBasis(names, [1 if p == "odd" else 0 for _, p in stmt.basis])
    generators = {name: Element.basis_vector(basis, name) for name in names}
    table = _declare_entries(env, generators, (
        ((br.left, br.right), f"bracket [{br.left},{br.right}]", br.rhs,
         br.line) for br in stmt.brackets), "bracket")
    try:
        env.algebras[stmt.name] = LieSuperAlgebra(stmt.name, basis, table)
    except ValueError as exc:
        raise LoadError(str(exc), stmt.line) from None


def _declare_tensor(env: Environment, stmt: dsl.TensorDecl):
    if stmt.name in env.tensors:
        raise LoadError(f"tensor {stmt.name!r} re-declared", stmt.line)
    if stmt.algebra is not None:
        A = env.resolve("algebra", stmt.algebra, stmt.line)
        generators = {name: A.gen(name) for name in A.basis.names}
    else:
        generators = _file_generators(env, stmt.line)
    lookup = _scope_lookup(env, generators, stmt.line, allow_tensors=True)
    value = eval_expr(stmt.expr, lookup, stmt.line)
    if not isinstance(value, Tensor) or value.rank != 2:
        raise LoadError("a tensor definition must produce a rank-2 tensor",
                        stmt.line)
    env.tensors[stmt.name] = value
    env.tensor_carrier[stmt.name] = stmt.algebra


def _declare_cochain(env: Environment, stmt: dsl.CochainDecl):
    if stmt.name in env.cochains:
        raise LoadError(f"cochain {stmt.name!r} re-declared", stmt.line)
    A = env.resolve("algebra", stmt.algebra, stmt.line)
    generators = {name: A.gen(name) for name in A.basis.names}
    values = _declare_entries(env, generators, (
        ((source,), f"cochain entry {source!r}", expr, stmt.line)
        for source, expr in stmt.entries), "cochain")
    try:
        env.cochains[stmt.name] = Cochain1(
            A.basis, {source: value for (source,), value in values.items()},
            parity=1 if stmt.parity == "odd" else 0)
    except ValueError as exc:
        raise LoadError(str(exc), stmt.line) from None


def _bind(env: Environment, stmt: dsl.CheckDecl, options: RunOptions):
    """Resolve each name a check uses through ``Environment.resolve``, as the
    kind of its slot in ``dsl.CHECK_FORMS``, bind the operands by the rule
    the module describes, then do the load-time work of the check's kind:
    its options, its equation, the twist bounds.  Return the call that runs
    the check on the values so bound."""
    kind, line = stmt.kind, stmt.line
    slots = [s for s in dsl.CHECK_FORMS[kind] if not isinstance(s, str)]
    named = [i for i, s in enumerate(slots) if s.kind not in ("int", "word")]
    names, values = list(stmt.args), list(stmt.args)
    for i in named:
        if names[i] is not None:
            values[i] = env.resolve(slots[i].kind, names[i], line)
        elif slots[i].clause == "on":
            t = next(j for j in named if slots[j].kind == "tensor")
            values[i] = env.carrier_for(names[t], values[t], line)
            names[i] = values[i].name
    base = max((i for i in named if slots[i].kind == "algebra"), default=None)
    for i in named:
        if base is not None and values[i] is not None \
                and values[i].basis != values[base].basis:
            raise LoadError(f"{slots[i].kind} {names[i]!r} is not over the "
                            f"basis of {names[base]!r}", line)
    if kind == "coboundary":
        values += [names[2], options.assume_nonzero]
    if kind == "decompose":
        values = [f"{names[0]} = {names[1]} + {names[2]}", *values[:3]]
    if kind == "twist":
        (twist_kind, N), order = values
        if twist_kind == "extended" and N < 3:
            raise LoadError("the extended twist needs N >= 3", line)
        order = check_order(options.order if order is None else order, line)
        if twist_kind == "extended" and (
                order > len(EXTENDED_MAX_N) or N > EXTENDED_MAX_N[order - 1]):
            bounds = ", ".join(map(str, EXTENDED_MAX_N))
            raise LoadError(
                f"the extended twist over sl({N}) at truncation order {order} "
                f"is out of range: N may be at most {bounds} at orders 1 to "
                f"{len(EXTENDED_MAX_N)}", line)
        values = [twist_kind, N, order]
    run = _RUNS[kind]
    return lambda: run(*values)


def load(file: dsl.WorkbenchFile,
         options: RunOptions | None = None) -> tuple[Environment, list[Check]]:
    """Evaluate declarations and bind each check to the values it names and
    the options it runs with, as a (label, run) pair; LoadError on failure."""
    options = options or RunOptions()
    for name in options.assume_nonzero:
        try:
            param(name)
        except ValueError as exc:
            raise LoadError(str(exc)) from None
    env = Environment()
    checks: list[Check] = []
    for stmt in file.statements:
        if isinstance(stmt, dsl.ParamDecl):
            _declare_param(env, stmt)
        elif isinstance(stmt, dsl.AlgebraDecl):
            _declare_algebra(env, stmt)
        elif isinstance(stmt, dsl.TensorDecl):
            _declare_tensor(env, stmt)
        elif isinstance(stmt, dsl.CochainDecl):
            _declare_cochain(env, stmt)
        elif isinstance(stmt, dsl.CheckDecl):
            checks.append((dsl.render_check(stmt), _bind(env, stmt, options)))
        else:  # pragma: no cover
            raise LoadError(f"cannot load {stmt!r}")
    return env, checks


# -- check execution ------------------------------------------------------------------


def _tensor_witness(t: Tensor, what: str) -> list[str]:
    items = sorted(t.coeffs.items())
    key, coeff = items[0]
    return [f"{what} has {len(items)} nonzero coordinate(s)",
            f"first at {args_label(key)}: {scalar_str(coeff)}"]


def _residual_text(residual) -> str:
    """An enveloping residual as report text: 0, or its least term."""
    if not residual:
        return "0"
    key, coeff = residual.leading_term()
    return f"leading term {scalar_str(coeff)} at ({', '.join(key)})"


def _run_jacobi(A: LieSuperAlgebra):
    report = A.verify_jacobi()
    if report.ok:
        return "pass", [f"graded Jacobi holds on all "
                        f"{report.triples_checked} canonical triples"]
    return "fail", [f"witness triple {args_label(report.witness)}",
                    f"residual {report.residual}"]


def _run_cybe(tensor: Tensor, A: LieSuperAlgebra):
    bracket = schouten(A, tensor)
    if not bracket:
        return "pass", [f"Schouten bracket vanishes over {A.name}"]
    return "fail", _tensor_witness(bracket, "Schouten bracket")


def _run_mcybe(tensor: Tensor, A: LieSuperAlgebra):
    sym_ok = check_invariant(A, sym_part(tensor))
    schouten_ok = check_invariant(A, schouten(A, tensor))
    details = [f"symmetric part ad-invariant over {A.name}: {sym_ok}",
               f"Schouten bracket ad-invariant: {schouten_ok}"]
    return ("pass" if sym_ok and schouten_ok else "fail"), details


def _run_cocycle(phi: LieSuperAlgebra, A: LieSuperAlgebra):
    witness = cocycle2_witness(A, phi)
    if witness is None:
        return "pass", [f"closed under the differential of {A.name}"]
    triple, residual = witness
    return "fail", [f"witness triple {args_label(triple)}",
                    f"residual {Element(A.basis, residual)}"]


def _run_compatible(first: LieSuperAlgebra, second: LieSuperAlgebra):
    # The mixed jacobiator is the d2 residual of the second bracket over the
    # first, so one cocycle scan decides and finds the first failing triple.
    witness = cocycle2_witness(first, second)
    if witness is None:
        return "pass", ["mixed jacobiator vanishes identically"]
    triple, residual = witness
    return "fail", [f"witness triple {args_label(triple)}",
                    f"mixed jacobiator {Element(first.basis, residual)}"]


def _run_coboundary(phi: LieSuperAlgebra, A: LieSuperAlgebra,
                    psi: Cochain1 | None, compare: str | None,
                    assume_nonzero: tuple[str, ...]):
    outcome = solve_coboundary(A, phi, assume_nonzero=assume_nonzero)
    return _coboundary_verdict(outcome, phi, A, psi, compare)


def _coboundary_verdict(outcome: CoboundaryOutcome, phi: LieSuperAlgebra,
                        A: LieSuperAlgebra, psi: Cochain1 | None,
                        compare: str | None):
    """(status, detail lines) of the coboundary check of phi over A on the
    solver's ``outcome``, with the d1 image of a ``compare`` table psi."""
    details = [f"solver status: {outcome.status}",
               f"rank {outcome.rank}, augmented rank {outcome.rank_augmented}"]
    if outcome.assumptions:
        details.append("nonzero assumptions: "
                       + ", ".join(outcome.assumptions))
    if outcome.status == "solved":
        details.append("solution:")
        details.extend(f"  {line}" for line in outcome.psi.table_lines())
    elif outcome.status == "obstructed":
        details.append(outcome.obstruction)
    elif outcome.status == "not-cocycle":
        witness = args_label(outcome.witness)
        details.append(f"input is not closed; witness triple {witness}")
    if psi is not None:
        comparison = compare_cochain2(d1(A, psi), phi)
        details.append(f"declared table {compare!r}: d1 image "
                       + ("matches" if comparison.equal
                          else f"differs at {comparison.mismatches}"))
        details.extend(
            f"  {line}"
            for line in comparison.table("d1 of declared", "target").splitlines())
    return ("pass" if outcome.found else "fail"), details


def _run_decompose(equation: str, whole: Tensor, first: Tensor,
                   second: Tensor):
    if decompose_check(whole, first, second):
        return "pass", [f"{equation} identically in all parameters"]
    difference = whole - (first + second)
    return "fail", _tensor_witness(difference, "difference")


def _run_twist(twist_kind: str, N: int | None, order: int):
    if twist_kind == "jordanian":
        return _twist_verdict(build_jordanian_twist(order),
                              catalog_get("r.borel"), "h^x")[:2]
    return _twist_verdict(build_extended_twist(N, order), make_rjordan(N),
                          f"the jordanian r-matrix on sl({N})")[:2]


def _twist_verdict(F: TensorUEA, reference: Tensor, reference_name: str):
    """(status, detail lines, R) of the twist check on a built twist F: its
    cocycle residual, counit, R = F_21 F^{-1} with its quantum Yang-Baxter
    residual, and its classical limit: a nonzero multiple of ``reference``."""
    details = [f"truncation order {F.uea.order.degree}"]
    residual = twist_cocycle_check(F)
    details.append(f"2-cocycle residual: {_residual_text(residual)}")
    counit_ok = twist_counit_ok(F)
    details.append(f"counit normalisation: {counit_ok}")
    R = universal_R(F)
    qybe_residual = qybe_check(R)
    details.append("quantum Yang-Baxter residual: "
                   + _residual_text(qybe_residual))
    limit = classical_limit(R)
    details.append(f"classical limit: {limit}")
    constant = proportionality_constant(limit, reference)
    if constant is None:
        details.append(f"not proportional to {reference_name}")
    elif not constant:
        details.append(f"not a nonzero multiple of {reference_name}")
    else:
        details.append(f"= ({scalar_str(constant)}) * ({reference_name})")
        details.append("classical Yang-Baxter for the limit: "
                       f"{check_cybe(F.uea.algebra, limit)}")
    ok = not residual and counit_ok and not qybe_residual and bool(constant)
    return ("pass" if ok else "fail"), details, R


# The run of each check kind, given the values ``_bind`` binds.  Each calls
# its ``_run_<kind>`` by its module name when the check runs, so that a
# later rebinding of it is seen.
_RUNS = {
    "jacobi": lambda *values: _run_jacobi(*values),
    "cybe": lambda *values: _run_cybe(*values),
    "mcybe": lambda *values: _run_mcybe(*values),
    "cocycle": lambda *values: _run_cocycle(*values),
    "compatible": lambda *values: _run_compatible(*values),
    "coboundary": lambda *values: _run_coboundary(*values),
    "decompose": lambda *values: _run_decompose(*values),
    "twist": lambda *values: _run_twist(*values),
}


def run_checks(checks: list[Check]) -> list[CheckResult]:
    """Run loaded checks in order, timing each."""
    results: list[CheckResult] = []
    for label, run in checks:
        started = time.perf_counter()
        try:
            status, details = run()
        except UnsupportedInputError as exc:
            status, details = "unsupported", [str(exc)]
        elapsed = time.perf_counter() - started
        results.append(CheckResult(label, status, tuple(details), elapsed))
    return results


def run_source(source: str, options: RunOptions | None = None) -> list[CheckResult]:
    """Parse, load, and execute a DSL document."""
    _, checks = load(dsl.parse(source), options)
    return run_checks(checks)


# -- reports -----------------------------------------------------------------------


def exit_code(results: list[CheckResult]) -> int:
    return 0 if all(r.status == "pass" for r in results) else 1


def _tally(results: list[CheckResult]) -> dict[str, int]:
    return {status: sum(r.status == status for r in results)
            for status in ("pass", "fail", "unsupported")}


def render_text(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        lines.append(f"[{r.status}] {r.label}  ({r.elapsed:.3f}s)")
        lines.extend(f"    {detail}" for detail in r.details)
    tally = _tally(results)
    lines.append(f"{tally['pass']} passed, {tally['fail']} failed, "
                 f"{tally['unsupported']} unsupported")
    return "\n".join(lines) + "\n"


def render_structured(results: list[CheckResult]) -> str:
    """A bit-stable JSON report (wall times are deliberately excluded)."""
    tree = {
        "checks": [
            {"label": r.label, "status": r.status, "details": list(r.details)}
            for r in results
        ],
        "summary": _tally(results),
    }
    return json.dumps(tree, indent=2, sort_keys=True) + "\n"


def catalog_list() -> str:
    """One line per catalog entry: name, kind, description."""
    width = max(len(name) for name in catalog_names())
    lines = []
    for entry in catalog_entries():
        lines.append(f"{entry.name:<{width}}  {entry.kind:<8}"
                     f"  {entry.provenance}")
    return "\n".join(lines) + "\n"

