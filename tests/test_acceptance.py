"""Acceptance battery: one test per published criterion, exact tolerances.

Every check here is exact (integer/rational arithmetic; zero tolerance).
Each test prints a one-line verdict so a verbose run reads as a checklist.
The third criterion is split in two.  The modified-equation half runs on
`make_rdj(N)`, the full quasitriangular standard r-matrix r = r_a + s, whose
symmetric part s is h times the Casimir.  The unmodified-equation half runs
on the skew part r_a, the tensor the published claim is about: it defines
the same cobracket as r, yet its Schouten bracket is the nonzero -[[s, s]].
The full tensor r solves the unmodified equation (the invariant s cancels
the defect of r_a), so it cannot be the one that fails it.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from fractions import Fraction

from lieworkbench.bialgebra import (
    adjoint_twist_r,
    check_cybe,
    check_invariant,
    check_mcybe,
    cobracket_from_r,
    proportionality_constant,
    schouten,
    sym_part,
)
from lieworkbench import catalog, cohomology, enveloping, runner, suite
from lieworkbench.catalog import make_rdj, make_rjordan, make_sl
from lieworkbench.scalars import param

H = param("h")
XI = param("xi")


def _verdict(number: int, title: str, ok: bool, budget: float, start: float):
    elapsed = time.perf_counter() - start
    print(f"criterion {number:02d} [{'PASS' if ok else 'FAIL'}] "
          f"{title} ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"
    assert ok


def test_criterion_01_catalog_soundness():
    start = time.perf_counter()
    result = suite.criterion_catalog_jacobi()
    _verdict(1, "catalog algebras satisfy graded Jacobi identically",
             result.ok, 10.0, start)


def test_criterion_02_jordanian_r_matrices_satisfy_cybe():
    start = time.perf_counter()
    result = suite.criterion_jordanian_cybe()
    _verdict(2, "jordanian tensors solve the unmodified equation (N=2,3,4)",
             result.ok, 10.0, start)


def test_criterion_03_standard_r_satisfies_the_modified_equation():
    start = time.perf_counter()
    ok = True
    for N in (2, 3):
        A = make_sl(N)
        r = make_rdj(N)
        ok = ok and check_mcybe(A, r) and check_invariant(A, sym_part(r))
    _verdict(3, "standard tensors solve the modified equation (N=2,3)",
             ok, 30.0, start)


def test_criterion_03_standard_r_fails_the_unmodified_equation():
    # The published claim is about the skew standard r-matrix r_a = r - s,
    # where s = (r + flip r) / 2 is h times the Casimir.  make_rdj builds
    # the quasitriangular r = r_a + s, which solves the unmodified equation,
    # so the claim is checked on r_a: it has no symmetric part, gives the
    # same cobracket as r on every generator, solves the modified equation,
    # and fails the unmodified one by exactly [[r_a, r_a]] = -[[s, s]].
    start = time.perf_counter()
    ok = True
    for N in (2, 3):
        A = make_sl(N)
        r = make_rdj(N)
        s = sym_part(r).scaled(Fraction(1, 2))
        r_a = r - s
        same_bialgebra = (not sym_part(r_a)
                          and cobracket_from_r(A, r_a) == cobracket_from_r(A, r))
        ok = (ok and same_bialgebra and not check_cybe(A, r_a)
              and check_mcybe(A, r_a)
              and schouten(A, r_a) == -schouten(A, s))
    _verdict(3, "skew standard tensors fail the unmodified equation (N=2,3)",
             ok, 30.0, start)


def test_criterion_04_decomposition_and_limit():
    start = time.perf_counter()
    result = suite.criterion_decompose_limit()
    _verdict(4, "combined tensor splits exactly and limits to the "
             "jordanian part (N=2,3,4)", result.ok, 5.0, start)


def test_criterion_05_adjoint_twist_mechanism():
    start = time.perf_counter()
    result = suite.criterion_adjoint_twist()
    ok = result.ok
    for N in (2, 3):
        A = make_sl(N)
        r = make_rdj(N)
        twisted = adjoint_twist_r(A, r, A.gen(f"E1{N}"), XI)
        first = (twisted - r).graded_part(frozenset({"xi"}), 1)
        ok = ok and proportionality_constant(first, make_rjordan(N)) == H * -1
    _verdict(5, "adjoint twisting adds the jordanian tensor at first order "
             "(constant -h)", ok, 10.0, start)


def test_criterion_06_quantum_double_case():
    start = time.perf_counter()
    result = suite.criterion_double()
    _verdict(6, "double r-matrix cobracket splits as a1*d1 + a2*d2 and "
             "dualizes to the dual pencil", result.ok, 5.0, start)


def test_criterion_07_mutual_cocycles_and_compatibility():
    start = time.perf_counter()
    result = suite.criterion_mutual_cocycles()
    _verdict(7, "paired brackets are 2-cocycles of each other and "
             "compatible", result.ok, 10.0, start)


def test_criterion_08_coboundary_and_nontriviality():
    start = time.perf_counter()
    result = suite.criterion_coboundary()
    _verdict(8, "orthosymplectic class is a coboundary; sl(2) dual class "
             "is obstructed with a certificate", result.ok, 30.0, start)


def test_criterion_09_first_order_table_transcription():
    start = time.perf_counter()
    result = suite.criterion_mu_prime()
    _verdict(9, "literal transcription report is produced, deterministic, "
             "and states Jacobi/compatibility status", result.ok, 10.0, start)


def test_criterion_10_twist_engine():
    start = time.perf_counter()
    result = suite.criterion_twists(order=3)
    _verdict(10, "jordanian and extended twists pass cocycle/counit/QYBE "
             "checks with the expected classical limits", result.ok,
             300.0, start)


def test_criterion_11_negative_controls():
    start = time.perf_counter()
    result = suite.criterion_negative_controls()
    _verdict(11, "corrupted algebra, non-twist, and non-cocycle all fail "
             "with concrete witnesses", result.ok, 10.0, start)


def test_the_suite_reads_catalog_objects_instead_of_rebuilding_them(
        monkeypatch):
    # Count calls through every name a lieworkbench module binds them by.
    counts = Counter()
    for module, name in ((catalog, "make_sl"), (catalog, "make_dual_standard"),
                         (catalog, "make_dual_jordanian"),
                         (enveloping, "build_extended_twist")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").startswith("lieworkbench")
                    and getattr(loaded, name, None) is original):
                monkeypatch.setattr(loaded, name, counted)
    for name in catalog.catalog_names():
        catalog.catalog_get(name)
    counts.clear()
    suite.run_suite()
    assert counts["make_dual_standard"] == counts["make_dual_jordanian"] == 0
    assert counts["build_extended_twist"] == 1
    assert counts["make_sl"] <= 23


def test_the_suite_runs_the_runners_checks(monkeypatch):
    # Every criterion that restates a check kind of ``workbench run`` runs
    # that kind's check, so the two commands share one verdict per kind.
    counts = Counter()

    def count(module, name, key):
        original = getattr(module, name)

        def counted(*args, **options):
            counts[key] += 1
            return original(*args, **options)

        monkeypatch.setattr(module, name, counted)

    for kind in ("jacobi", "cybe", "mcybe", "cocycle", "compatible",
                 "coboundary", "decompose", "twist"):
        count(runner, f"_run_{kind}", kind)
    count(runner, "_twist_verdict", "twist verdict")
    count(runner, "_coboundary_verdict", "coboundary verdict")
    count(runner, "solve_coboundary", "coboundary solve")
    count(suite, "solve_coboundary", "coboundary solve")
    results = suite.run_suite(order=1)
    # The twist verdict runs on the jordanian row, through _run_twist, and
    # on the extended twist and the non-twist that the suite builds.  The
    # coboundary verdict runs once on each pair criterion 8 solves once.
    assert counts == {"jacobi": 12, "cybe": 5, "mcybe": 2, "cocycle": 3,
                      "compatible": 2, "decompose": 3, "twist": 1,
                      "twist verdict": 3, "coboundary verdict": 2,
                      "coboundary solve": 2}
    assert [r.number for r in results if not r.ok] == [3]


def test_the_extended_twist_row_fails_on_a_quantum_yang_baxter_residual(
        monkeypatch):
    qybe_check = runner.qybe_check

    def broken_on_sl3(R):
        if R.uea.algebra.name != "sl3":
            return qybe_check(R)
        return enveloping.TensorUEA(R.uea, 3, {((0,), (), ()): 1})

    monkeypatch.setattr(runner, "qybe_check", broken_on_sl3)
    result = suite.criterion_twists(order=1)
    assert not result.ok
    assert "twist extended 3 order 2: fail (expected pass)" in result.lines
    assert "  quantum Yang-Baxter residual: leading term 1 at (H1, 1, 1)" \
        in result.lines


def test_the_extended_twist_row_is_the_runners_twist_check():
    result = suite.criterion_twists(order=1)
    row = result.lines.index("twist extended 3 order 2: pass")
    status, details = runner._run_twist("extended", 3, 2)
    assert result.lines[row + 1:row + 1 + len(details)] == tuple(
        f"  {detail}" for detail in details)


def test_an_inconsistent_sl2_pair_is_no_certified_obstruction(monkeypatch):
    # Only an obstruction certifies the pair; no solution at all does not.
    solve = suite.solve_coboundary

    def inconsistent_on_sl2(A, phi, **options):
        outcome = solve(A, phi, **options)
        if A.name != "dual.jordan.sl2":
            return outcome
        return cohomology.CoboundaryOutcome(
            "inconsistent", None, outcome.rank, outcome.rank_augmented, ())

    monkeypatch.setattr(suite, "solve_coboundary", inconsistent_on_sl2)
    result = suite.criterion_coboundary()
    assert not result.ok
    row = result.lines.index(
        "coboundary dual.standard.sl2 over dual.jordan.sl2: fail")
    assert result.lines[row + 1] == "  solver status: inconsistent"


def test_criterion_8_prints_the_runners_coboundary_rows():
    result = suite.criterion_coboundary()
    lines = []
    for check in runner.run_source(
            "check coboundary mu2star over mu1star compare psi;\n"
            "check coboundary dual.standard.sl2 over dual.jordan.sl2;\n"):
        lines += [f"{check.label}: {check.status}",
                  *(f"  {detail}" for detail in check.details)]
    assert result.lines == tuple(lines)


def test_a_wrong_summand_prints_a_difference_witness(monkeypatch):
    monkeypatch.setattr(suite, "make_rdj", lambda N: make_rdj(N).scaled(2))
    result = suite.criterion_decompose_limit()
    assert not result.ok
    row = result.lines.index(
        "decompose combined r-matrix on sl2: fail (expected pass)")
    assert result.lines[row + 1].startswith("  difference has ")
    assert result.lines[row + 2].startswith("  first at ")


def test_a_wrong_limit_turns_criterion_4_red(monkeypatch):
    monkeypatch.setattr(suite, "limit_r", lambda r, name: r)
    result = suite.criterion_decompose_limit()
    assert not result.ok
    assert ("h -> 0 limit of the combined r-matrix on sl2 equals jordanian: "
            "False") in result.lines


def test_a_vanishing_first_order_term_turns_criterion_5_red(monkeypatch):
    # A zero difference is 0 times the jordanian r-matrix; that is no twist.
    monkeypatch.setattr(suite, "adjoint_twist_r", lambda A, r, z, xi: r)
    result = suite.criterion_adjoint_twist()
    assert not result.ok
    assert result.lines[0] == ("sl(2): first-order difference is NOT a "
                               "nonzero multiple of the jordanian r-matrix")
