"""End-to-end verdict suite over the built-in catalog.

Eleven numbered criteria exercise the whole stack — bracket tables,
classical r-matrices, cobrackets and duals, cohomology, the coboundary
solver, the transcribed first-order dual bracket, the twist engine, and a
set of negative controls.  Every computation is exact; a criterion either
holds identically in all parameters or fails with a concrete witness.

A criterion that restates a check kind of ``workbench run`` (Jacobi, CYBE,
mCYBE, cocycle, compatibility, coboundary, decomposition, twist) runs that
kind's check from ``runner._RUNS`` and prints its status and detail lines
as ``workbench run`` does; it passes iff every such check gives its
expected status, and one that does not is marked with the status expected.
The extended sl(3) twist and the non-twist 1(x)1 + xi*x(x)x built here
are judged by ``runner._twist_verdict``, and criterion 8's solver outcomes
by ``runner._coboundary_verdict``.  Only criterion 4's h -> 0 limit,
criteria 5, 6 and 9, and criterion 10's factored-R comparison compute
their lines directly.

Criterion 3 records the expectation that the standard r-matrices satisfy
the modified classical Yang-Baxter equation while failing the unmodified
one.  That expectation is true of the skew standard r-matrix r_a, but this
criterion evaluates the full quasitriangular tensor ``make_rdj(N)`` =
r_a + h*t, with t the Casimir.  Its Schouten bracket vanishes identically,
so its ``cybe`` check prints ``pass (expected fail)``, the criterion is
reported red, and the battery exits with status 1.  The acceptance test of
the same number checks the expectation on r_a instead, where it holds.
"""

from __future__ import annotations

from . import runner
from .bialgebra import (
    adjoint_twist_r,
    cobracket_from_r,
    dual_algebra,
    limit_r,
    proportionality_constant,
)
from .catalog import (
    catalog_get,
    make_double_pieces,
    make_rdj,
    make_rfull,
    make_rjordan,
    mu_prime_transcription,
    pair_name,
)
from .cohomology import Cochain2, solve_coboundary
from .enveloping import (
    TensorUEA,
    UEA,
    _deformation_order,
    build_extended_twist,
    factored_r_matrix,
    tensor_product,
)
from .liealg import GradedBasis, LieSuperAlgebra, pencil
from .record import Record
from .scalars import param, scalar_str

__all__ = [
    "CriterionResult",
    "run_suite",
    "render_suite",
    "suite_exit_code",
]


class CriterionResult(Record):
    number: int
    title: str
    ok: bool
    lines: tuple[str, ...]


def _result(number: int, title: str, ok, lines) -> CriterionResult:
    return CriterionResult(number, title, bool(ok), tuple(str(l) for l in lines))


def _row(label: str, status: str, details, expected: str):
    """Whether a check gave the expected status, and its lines: ``label:
    status``, marked with the expected status when it differs, then the
    check's detail lines."""
    held = status == expected
    return held, [f"{label}: {status}"
                  + ("" if held else f" (expected {expected})"),
                  *(f"  {detail}" for detail in details)]


def _checks(rows) -> tuple[bool, list[str]]:
    """Run each (label, kind, values, expected status) row through the
    runner's check of that kind and print it by ``_row``; the rows hold iff
    every status is the expected one."""
    ok, lines = True, []
    for label, kind, values, expected in rows:
        held, row = _row(label, *runner._RUNS[kind](*values), expected)
        ok = ok and held
        lines += row
    return ok, lines


CATALOG_ALGEBRAS = (
    "sl2", "sl3", "sl4", "gl3", "borel", "osp12",
    "double.g1", "double.g2", "double.g1dual", "double.g2dual",
    "double.pencil",
)


def criterion_catalog_jacobi() -> CriterionResult:
    return _result(1, "catalog bracket tables satisfy the graded Jacobi "
                   "identity", *_checks(
                       (f"jacobi {name}", "jacobi", [catalog_get(name)], "pass")
                       for name in CATALOG_ALGEBRAS))


def criterion_jordanian_cybe() -> CriterionResult:
    return _result(2, "jordanian r-matrices satisfy the classical "
                   "Yang-Baxter equation", *_checks(
                       (f"cybe jordanian r-matrix on sl{N}", "cybe",
                        [make_rjordan(N), catalog_get(f"sl{N}")], "pass")
                       for N in (2, 3, 4)))


def criterion_standard_r() -> CriterionResult:
    rows = []
    for N in (2, 3):
        values = [make_rdj(N), catalog_get(f"sl{N}")]
        rows += [(f"mcybe standard r-matrix on sl{N}", "mcybe", values, "pass"),
                 (f"cybe standard r-matrix on sl{N}", "cybe", values, "fail")]
    return _result(3, "standard r-matrices: modified equation holds and "
                   "the unmodified one fails", *_checks(rows))


def criterion_decompose_limit() -> CriterionResult:
    rows, limits = [], {}
    for N in (2, 3, 4):
        full, jordan = make_rfull(N), make_rjordan(N)
        rows.append((f"decompose combined r-matrix on sl{N}", "decompose",
                     ["combined = standard + jordanian", full, make_rdj(N),
                      jordan], "pass"))
        limits[N] = limit_r(full, "h") == jordan
    ok, lines = _checks(rows)
    lines += [f"h -> 0 limit of the combined r-matrix on sl{N} equals "
              f"jordanian: {limit}" for N, limit in limits.items()]
    return _result(4, "combined r-matrix decomposes exactly and its h -> 0 "
                   "limit is jordanian", ok and all(limits.values()), lines)


def criterion_adjoint_twist() -> CriterionResult:
    lines = []
    ok = True
    xi = param("xi")
    graded = _deformation_order(1).graded
    for N in (2, 3):
        A = catalog_get(f"sl{N}")
        r = make_rdj(N)
        z = A.gen(pair_name("E", 1, N, N))
        twisted = adjoint_twist_r(A, r, z, xi)
        first_order = (twisted - r).graded_part(graded, 1)
        constant = proportionality_constant(first_order, make_rjordan(N))
        if not constant:
            ok = False
            lines.append(f"sl({N}): first-order difference is NOT a "
                         "nonzero multiple of the jordanian r-matrix")
        else:
            lines.append(f"sl({N}): conjugated minus standard is first-order "
                         f"({scalar_str(constant)}) * jordanian")
    return _result(5, "conjugating the standard r-matrix by exp(xi ad) of "
                   "the highest root vector is first-order jordanian",
                   ok, lines)


def criterion_double() -> CriterionResult:
    g1, g2, g1dual, g2dual, r_double = make_double_pieces()
    a1, a2 = param("alpha1"), param("alpha2")
    combined = catalog_get("double.pencil")
    delta = cobracket_from_r(combined, r_double)
    split = (cobracket_from_r(g1, r_double).scaled(a1)
             + cobracket_from_r(g2, r_double).scaled(a2))
    factorizes = delta == split
    dual = dual_algebra(delta)
    expected = pencil(g1dual, g2dual, a1, a2)
    dual_matches = dual == expected
    lines = [
        f"cobracket of the pencil = alpha1 * (first piece) + alpha2 * "
        f"(second piece): {factorizes}",
        f"dual algebra of the pencil equals the pencil of dual brackets: "
        f"{dual_matches}",
    ]
    return _result(6, "the double's cobracket factorizes linearly and "
                   "dualizes onto the dual pencil",
                   factorizes and dual_matches, lines)


def criterion_mutual_cocycles() -> CriterionResult:
    rows = []
    for first, second in (("dual.standard.sl2", "dual.jordan.sl2"),
                          ("mu1star", "mu2star")):
        A, B = catalog_get(first), catalog_get(second)
        rows += [(f"compatible {first} {second}", "compatible", [A, B], "pass"),
                 (f"cocycle {first} over {second}", "cocycle", [A, B], "pass")]
    return _result(7, "dual bracket pairs are compatible and are "
                   "2-cocycles of each other", *_checks(rows))


def criterion_coboundary() -> CriterionResult:
    ok, lines = True, []
    for phi, A, psi, expected in (
            ("mu2star", "mu1star", "psi", "pass"),
            ("dual.standard.sl2", "dual.jordan.sl2", None, "fail")):
        values = [catalog_get(phi), catalog_get(A), psi and catalog_get(psi)]
        outcome = solve_coboundary(values[1], values[0])
        held, row = _row(
            f"coboundary {phi} over {A}" + (f" compare {psi}" if psi else ""),
            *runner._coboundary_verdict(outcome, *values, psi), expected)
        # The sl(2) row holds only as a certified obstruction.
        ok = ok and held and outcome.status in ("solved", "obstructed")
        lines += row
    return _result(8, "coboundary solver finds the osp(1|2) connecting "
                   "cochain and certifies the sl(2) obstruction", ok, lines)


def criterion_mu_prime() -> CriterionResult:
    first = mu_prime_transcription(3)
    second = mu_prime_transcription(3)
    deterministic = first.render_lines() == second.render_lines()
    lines = list(first.render_lines())
    lines.append(f"report deterministic across rebuilds: {deterministic}")
    return _result(9, "transcribed first-order dual bracket report is "
                   "complete and deterministic", deterministic, lines)


def criterion_twists(order: int = runner.DEFAULT_ORDER) -> CriterionResult:
    ok, lines = _checks((f"twist jordanian order {degree}", "twist",
                         ["jordanian", None, degree], "pass")
                        for degree in range(1, order + 1))
    status, details, R = runner._twist_verdict(
        build_extended_twist(3, 2), catalog_get("r.jordan"),
        "the jordanian r-matrix on sl(3)")
    held, row = _row("twist extended 3 order 2", status, details, "pass")
    factored = factored_r_matrix(3, 2) == R
    lines += row + [f"slot-factored R-matrix product equals the twisted "
                    f"universal R at order 2: {factored}"]
    return _result(10, "twists pass cocycle, counit, and quantum "
                   "Yang-Baxter checks with the expected classical limits",
                   ok and held and factored, lines)


def criterion_negative_controls() -> CriterionResult:
    basis = GradedBasis(("H1", "E12", "E21"))
    corrupted = LieSuperAlgebra("corrupted.sl2", basis, {
        ("H1", "E12"): {"E12": 2},
        ("H1", "E21"): {"E21": -2},
        ("E12", "E21"): {"E12": 1},  # deliberately wrong: should be H1
    })
    sl2 = catalog_get("sl2")
    bad_cochain = Cochain2(sl2.basis, {("E12", "E21"): {"E12": 1}})
    ok, lines = _checks([
        ("jacobi corrupted.sl2", "jacobi", [corrupted], "fail"),
        ("cocycle corrupted 2-cochain over sl2", "cocycle",
         [bad_cochain, sl2], "fail"),
    ])

    uea = UEA(catalog_get("borel"), _deformation_order(2))
    x = uea.gen("x")
    non_twist = (TensorUEA.unit(uea, 2)
                 + tensor_product(x, x).scaled(param("xi")))
    held, row = _row("twist non-twist 1(x)1 + xi*x(x)x", *runner._twist_verdict(
        non_twist, catalog_get("r.borel"), "h^x")[:2], "fail")
    return _result(11, "negative controls fail with concrete witnesses",
                   ok and held, lines + row)


def run_suite(order: int = runner.DEFAULT_ORDER) -> list[CriterionResult]:
    """All eleven criteria; ``order`` bounds the jordanian twist degree."""
    return [
        criterion_catalog_jacobi(),
        criterion_jordanian_cybe(),
        criterion_standard_r(),
        criterion_decompose_limit(),
        criterion_adjoint_twist(),
        criterion_double(),
        criterion_mutual_cocycles(),
        criterion_coboundary(),
        criterion_mu_prime(),
        criterion_twists(order),
        criterion_negative_controls(),
    ]


def render_suite(results: list[CriterionResult]) -> str:
    lines = []
    for r in results:
        lines.append(f"[{'PASS' if r.ok else 'FAIL'}] {r.number:2d}. {r.title}")
        lines.extend(f"      {detail}" for detail in r.lines)
    passing = sum(r.ok for r in results)
    lines.append(f"{passing}/{len(results)} criteria pass")
    return "\n".join(lines) + "\n"


def suite_exit_code(results: list[CriterionResult]) -> int:
    return 0 if all(r.ok for r in results) else 1
