"""The built-in library of algebras, tensors, and the first-order transcription."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from lieworkbench.catalog import (
    _coboundary_dual,
    _rdj_on_gl,
    cartan_name,
    catalog_entry,
    catalog_get,
    catalog_names,
    make_borel,
    make_double_pieces,
    make_dual_jordanian,
    make_dual_standard,
    make_gl,
    make_osp12,
    make_rborel,
    make_rdj,
    make_rfull,
    make_rjordan,
    make_sl,
    mu_prime_transcription,
    pair_name,
)
from lieworkbench.liealg import pencil
from lieworkbench.scalars import as_poly, param

H = param("h")
XI = param("xi")
THETA = param("theta")


# -- registry -------------------------------------------------------------------------


def test_registry_contents():
    names = catalog_names()
    assert len(names) == 22
    for expected in ("sl2", "sl3", "sl4", "gl3", "borel", "osp12",
                     "double.g1", "double.pencil", "r.dj", "r.jordan",
                     "r.full", "r.double", "r.borel", "mu.prime",
                     "mu1star", "mu2star", "psi",
                     "dual.standard.sl2", "dual.jordan.sl2"):
        assert expected in names


def test_entries_are_memoized_and_kinded():
    assert catalog_get("sl2") is catalog_get("sl2")
    assert catalog_entry("sl2").kind == "algebra"
    assert catalog_entry("r.jordan").kind == "tensor"
    assert catalog_entry("r.jordan").algebra == "sl3"
    assert catalog_entry("psi").kind == "cochain"
    assert catalog_entry("psi").algebra == "mu1star"
    with pytest.raises(ValueError):
        catalog_entry("no.such.entry")


def test_algebra_dimensions():
    dims = {"sl2": 3, "sl3": 8, "sl4": 15, "gl3": 9, "borel": 2, "osp12": 5,
            "double.g1": 4, "double.g2": 4, "double.g1dual": 4,
            "double.g2dual": 4, "double.pencil": 4,
            "mu1star": 5, "mu2star": 5,
            "dual.standard.sl2": 3, "dual.jordan.sl2": 3,
            "mu.prime": 9}
    for name, dim in dims.items():
        assert len(catalog_get(name).basis.names) == dim, name


def test_every_catalog_algebra_satisfies_jacobi():
    skip = {"mu.prime"}  # transcribed literally; fails by design
    for name in catalog_names():
        entry = catalog_entry(name)
        if entry.kind == "algebra" and name not in skip:
            assert catalog_get(name).verify_jacobi().ok, name


# -- naming helpers ----------------------------------------------------------------------


def test_generator_naming():
    assert pair_name("E", 1, 3, 3) == "E13"
    assert pair_name("E", 1, 10, 10) == "E1_10"
    assert cartan_name(2) == "H2"


# -- frozen tensors ------------------------------------------------------------------------


def test_standard_r_matrix_coefficients_for_sl2():
    r = make_rdj(2)
    assert r.coefficient(("H1", "H1")) == H * Fraction(1, 2)
    assert r.coefficient(("E21", "E12")) == H * 2
    assert len(r.coeffs) == 2


def test_jordanian_r_matrix_coefficients_for_sl2():
    r = make_rjordan(2)
    assert r.coefficient(("H1", "E12")) == XI * -1
    assert r.coefficient(("E12", "H1")) == XI
    assert len(r.coeffs) == 2


def test_combined_tensor_is_the_sum():
    for N in (2, 3):
        assert make_rfull(N) == make_rdj(N) + make_rjordan(N)


def test_borel_r_matrix():
    r = make_rborel()
    assert r.coefficient(("h", "x")) == as_poly(1)
    assert r.coefficient(("x", "h")) == as_poly(-1)


def test_standard_r_matrix_cartan_block_for_sl3():
    r = make_rdj(3)
    assert r.coefficient(("H1", "H1")) == H * Fraction(2, 3)
    assert r.coefficient(("H1", "H2")) == H * Fraction(1, 3)
    assert r.coefficient(("H2", "H1")) == H * Fraction(1, 3)
    assert r.coefficient(("H2", "H2")) == H * Fraction(2, 3)
    assert r.coefficient(("E21", "E12")) == H * 2
    assert r.coefficient(("E31", "E13")) == H * 2
    assert r.coefficient(("E32", "E23")) == H * 2


# -- the split double ------------------------------------------------------------------------


def test_double_pieces_fit_together():
    g1, g2, g1dual, g2dual, r_double = make_double_pieces()
    assert g1.basis == g2.basis
    assert r_double.coefficient(("Xp", "Xm")) == THETA
    assert r_double.coefficient(("H", "Hp")) == THETA
    assert len(r_double.coeffs) == 2

    assert g1dual.bracket_basis("Hp_hat", "Xm_hat") == \
        g1dual.gen("Xm_hat").scaled(THETA * -1)
    assert g2dual.bracket_basis("H_hat", "Xp_hat") == \
        g2dual.gen("Xp_hat").scaled(THETA * -1)

    combined = pencil(g1, g2, 1, 1)
    assert combined.verify_jacobi().ok


# -- the shipped orthosymplectic pair -----------------------------------------------------------


def test_osp_bracket_table():
    A, _, _, _ = make_osp12()
    assert A.basis.names == ("h", "Xp", "Xm", "vp", "vm")
    assert A.basis.parities == (0, 0, 0, 1, 1)
    assert A.bracket_basis("h", "Xp") == A.gen("Xp").scaled(2)
    assert A.bracket_basis("h", "Xm") == A.gen("Xm").scaled(-2)
    assert A.bracket_basis("Xp", "Xm") == A.gen("h")
    assert A.bracket_basis("vp", "vp") == A.gen("Xp").scaled(Fraction(1, 2))
    assert A.bracket_basis("vm", "vm") == A.gen("Xm").scaled(Fraction(-1, 2))
    assert A.bracket_basis("vp", "vm") == A.gen("h").scaled(Fraction(-1, 4))
    assert A.verify_jacobi().ok


def test_osp_dual_brackets_are_hatted_and_consistent():
    _, mu1, mu2, psi = make_osp12()
    assert mu1.basis.names == ("h_hat", "Xp_hat", "Xm_hat", "vp_hat", "vm_hat")
    assert mu1.basis == mu2.basis == psi.basis
    assert mu1.verify_jacobi().ok
    assert mu2.verify_jacobi().ok


# -- the literal transcription -------------------------------------------------------------------


def test_transcription_is_deterministic():
    first = mu_prime_transcription(3)
    second = mu_prime_transcription(3)
    assert first.render_lines() == second.render_lines()
    assert first.algebra.table == second.algebra.table


def test_transcription_at_rank_two_closes():
    t = mu_prime_transcription(2)
    assert t.conflicts == ()
    assert t.jacobi.ok
    assert t.jacobi.triples_checked == 4
    assert t.compatible_with_standard_dual
    assert t.algebra.basis.names == ("Y11", "Y12", "Y21", "Y22")


def test_transcription_at_rank_three_fails_jacobi_as_written():
    t = mu_prime_transcription(3)
    assert t.conflicts == ()
    assert not t.jacobi.ok
    assert t.jacobi.witness == ("Y11", "Y12", "Y23")
    assert str(t.jacobi.residual) == "-2*Y31 + 2*Y32"
    assert t.jacobi.triples_checked == 4
    assert not t.compatible_with_standard_dual


def test_transcription_report_lines():
    lines = mu_prime_transcription(3).render_lines()
    assert lines[0] == "first-order dual bracket table on gl(3) coordinates"
    assert any("condition unsatisfiable as printed; line skipped" in ln
               for ln in lines)
    assert "no conflicting assignments" in lines
    assert any("jacobi FAILS at (Y11, Y12, Y23): residual -2*Y31 + 2*Y32"
               in ln for ln in lines)
    assert lines[-1] == "compatible with standard dual bracket: False"


def test_transcription_line_counts_at_rank_three():
    lines = mu_prime_transcription(3).render_lines()
    by_tag = {ln.split(":")[0]: ln for ln in lines if ln.startswith("L")}
    assert "[8 instance(s), 2 nonzero]" in by_tag["L1"]
    assert "[1 instance(s), 1 nonzero]" in by_tag["L4"]
    assert "[vacuous at this N]" not in by_tag["L4"]
    assert "[2 instance(s), 2 nonzero]" in by_tag["L6"]


def test_transcription_vacuous_lines_at_rank_two():
    lines = mu_prime_transcription(2).render_lines()
    by_tag = {ln.split(":")[0]: ln for ln in lines if ln.startswith("L")}
    for tag in ("L4", "L7", "L8"):
        assert "[vacuous at this N]" in by_tag[tag]


# -- sl(N) and gl(N) construction ------------------------------------------------------------------


def test_sl_basis_layout():
    A = make_sl(3)
    assert set(A.basis.names) == {"H1", "H2", "E12", "E13", "E21",
                                  "E23", "E31", "E32"}
    assert A.bracket_basis("E12", "E21") == A.gen("H1")
    assert A.bracket_basis("E12", "E23") == A.gen("E13")


def test_gl_contains_a_central_element():
    A = make_gl(3)
    assert len(A.basis.names) == 9
    central = sum((A.gen(f"Y{i}{i}") for i in (1, 2, 3)),
                  A.gen("Y11").scaled(0))
    for name in A.basis.names:
        assert not A.bracket(central, A.gen(name))


# -- frozen constructions ----------------------------------------------------------------------------

CONSTRUCTIONS = Path(__file__).resolve().parent / "data" / "catalog_constructions.txt"


def _table_section(title: str, algebra) -> list[str]:
    return [f"== {title}: {algebra.name} {algebra.basis!r}",
            *algebra.table_lines()]


def _constructions_text() -> str:
    """Every catalog algebra's table, the sl(N) duals for N = 2, 3, the
    gl(3) standard dual, and the mu' transcription for N = 2..5."""
    lines = []
    for name in catalog_names():
        if catalog_entry(name).kind == "algebra":
            lines += _table_section(name, catalog_get(name))
    for N in (2, 3):
        lines += _table_section(f"make_dual_standard({N})", make_dual_standard(N))
        lines += _table_section(f"make_dual_jordanian({N})", make_dual_jordanian(N))
    gl3_dual = _coboundary_dual(make_gl(3), _rdj_on_gl(3), "dual.standard.gl3",
                                suffix="")
    lines += _table_section("standard dual on gl(3)", gl3_dual)
    for N in range(2, 6):
        t = mu_prime_transcription(N)
        lines += [f"== mu_prime_transcription({N})", *t.render_lines()]
        lines += _table_section(f"mu_prime_transcription({N}).algebra", t.algebra)
    return "\n".join(lines) + "\n"


def test_constructions_match_their_frozen_text():
    assert _constructions_text() == CONSTRUCTIONS.read_text()
