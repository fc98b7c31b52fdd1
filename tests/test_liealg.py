"""Graded bases, elements, brackets, tensors, and Jacobi verification."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from lieworkbench.bialgebra import cobracket_from_r
from lieworkbench.catalog import (
    make_borel,
    make_double_pieces,
    make_osp12,
    make_rborel,
    make_sl,
)
from lieworkbench.enveloping import UEA, tensor_product
from lieworkbench.liealg import (
    Element,
    GradedBasis,
    LieSuperAlgebra,
    Tensor,
    canonical_tuples,
    otimes,
    pencil,
    wedge,
)
from lieworkbench.scalars import Poly, RatFunc, TruncationOrder, param


def _random_element(rng: random.Random, A: LieSuperAlgebra) -> Element:
    out = A.zero()
    for name in A.basis.names:
        if rng.random() < 0.6:
            out = out + A.gen(name).scaled(Fraction(rng.randint(-3, 3)))
    return out


# -- bases -------------------------------------------------------------------------


def test_basis_lookup_and_parities():
    basis = GradedBasis(("a", "b", "c"), (0, 1, 0))
    assert basis.index("b") == 1
    assert basis.parity("b") == 1
    assert basis.parity("c") == 0
    assert len(basis) == 3


def test_basis_rejects_duplicates_and_unknown_names():
    with pytest.raises(ValueError):
        GradedBasis(("a", "a"))
    basis = GradedBasis(("a",))
    with pytest.raises(KeyError):
        basis.index("z")


def test_renamed_basis_keeps_parities():
    basis = GradedBasis(("a", "b"), (0, 1))
    hatted = basis.renamed("_hat")
    assert hatted.names == ("a_hat", "b_hat")
    assert hatted.parity("b_hat") == 1


# -- elements ----------------------------------------------------------------------


def test_element_arithmetic_and_str():
    A = make_sl(2)
    x = A.gen("E12") + A.gen("H1").scaled(2)
    assert str(x) == "2*H1 + E12"
    assert (x - x) == A.zero()
    assert x.scaled(0) == A.zero()
    assert x.scaled(param("h")).coeffs["E12"] == param("h")


def test_sums_fold_signs_and_render_zero():
    A = make_sl(2)
    x = A.gen("H1") - A.gen("E12") + A.gen("E21").scaled(param("h") - 1)
    assert str(x) == "H1 - E12 + (-1 + h)*E21"
    assert str(x - x) == str(A.zero()) == "0"
    t = otimes(A.gen("E12"), A.gen("H1")) - otimes(A.gen("H1"), A.gen("E12")).scaled(3)
    assert str(t) == "E12(x)H1 - 3*H1(x)E12"
    assert str(t - t) == str(Tensor(A.basis, 2)) == "0"


def test_element_parity_detection():
    _, mu1, _, _ = make_osp12()
    assert mu1.gen("vp_hat").parity() == 1
    assert mu1.gen("h_hat").parity() == 0
    mixed = mu1.gen("vp_hat") + mu1.gen("h_hat")
    assert mixed.parity() is None


# -- algebras ----------------------------------------------------------------------


def test_table_canonicalization_resolves_reversed_pairs():
    basis = GradedBasis(("h", "x"))
    forward = LieSuperAlgebra("f", basis, {("h", "x"): {"x": 2}})
    backward = LieSuperAlgebra("b", basis, {("x", "h"): {"x": -2}})
    assert forward.table == backward.table


def test_explicit_zero_beside_a_nonzero_reversed_entry_is_rejected():
    basis = GradedBasis(("h", "x"))
    for table in ({("h", "x"): {}, ("x", "h"): {"x": -2}},
                  {("x", "h"): {"x": -2}, ("h", "x"): {"x": 0}}):
        with pytest.raises(ValueError, match="conflicting table entries"):
            LieSuperAlgebra("bad", basis, table)


def test_structure_constants_must_be_polynomials():
    basis = GradedBasis(("h", "x"))
    with pytest.raises(TypeError):
        LieSuperAlgebra("bad", basis, {("h", "x"): {"x": RatFunc(1, param("h"))}})


def test_even_self_bracket_must_vanish():
    basis = GradedBasis(("h",))
    with pytest.raises(ValueError):
        LieSuperAlgebra("bad", basis, {("h", "h"): {"h": 1}})


def test_bracket_parity_mismatch_is_rejected():
    basis = GradedBasis(("h", "v"), (0, 1))
    with pytest.raises(ValueError):
        LieSuperAlgebra("bad", basis, {("h", "v"): {"h": 1}})


def test_graded_antisymmetry_on_basis_pairs():
    A, _, _, _ = make_osp12()
    for a in A.basis.names:
        for b in A.basis.names:
            sign = (-1) ** (A.basis.parity(a) * A.basis.parity(b))
            lhs = A.bracket_basis(a, b)
            rhs = A.bracket_basis(b, a).scaled(-sign)
            assert lhs == rhs, (a, b)


def test_bracket_is_bilinear():
    rng = random.Random(3)
    A = make_sl(3)
    for _ in range(10):
        x, y, z = (_random_element(rng, A) for _ in range(3))
        assert A.bracket(x + y, z) == A.bracket(x, z) + A.bracket(y, z)
        assert A.bracket(x, y + z) == A.bracket(x, y) + A.bracket(x, z)


def test_jacobi_passes_on_catalog_algebras():
    for A in (make_sl(2), make_sl(3), make_borel(), make_osp12()[0]):
        report = A.verify_jacobi()
        assert report.ok
        assert report.witness is None
        assert report.triples_checked == len(canonical_tuples(A.basis, 3))
    assert make_sl(3).verify_jacobi().triples_checked == 56


def test_canonical_triples_repeat_only_odd_generators():
    basis = GradedBasis(("a", "b"), (0, 1))
    assert canonical_tuples(basis, 3) == [(0, 1, 1), (1, 1, 1)]


def test_canonical_tuples_are_built_once_per_basis_and_degree():
    basis = make_sl(2).basis
    assert canonical_tuples(basis, 3) == [(0, 1, 2)]
    assert canonical_tuples(basis, 3) is canonical_tuples(basis, 3)
    assert canonical_tuples(basis, 3) is canonical_tuples(make_sl(2).basis, 3)


def test_jacobi_fails_with_witness_on_a_corrupted_table():
    basis = GradedBasis(("H1", "E12", "E21"))
    corrupted = LieSuperAlgebra("corrupted", basis, {
        ("H1", "E12"): {"E12": 2},
        ("H1", "E21"): {"E21": -2},
        ("E12", "E21"): {"E12": 1},
    })
    report = corrupted.verify_jacobi()
    assert not report.ok
    assert report.witness == ("H1", "E12", "E21")
    assert str(report.residual) == "2*E12"


def test_substitute_specializes_the_table():
    g1, g2, _, _, _ = make_double_pieces()
    combined = pencil(g1, g2, param("alpha1"), param("alpha2"))
    at_one = combined.substitute({"alpha1": 1, "alpha2": 0}, name="g1-limit")
    assert at_one.table == g1.table
    assert at_one.verify_jacobi().ok


def test_pencil_requires_a_shared_basis():
    with pytest.raises(ValueError):
        pencil(make_sl(2), make_borel(), 1, 1)


def test_pencil_combines_tables_linearly():
    g1, g2, _, _, _ = make_double_pieces()
    a1, a2 = param("alpha1"), param("alpha2")
    combined = pencil(g1, g2, a1, a2)
    x, y = combined.gen("Xp"), combined.gen("Xm")
    value = combined.bracket(x, y)
    assert value == (g1.gen("Hp").scaled(a1) + g2.gen("H").scaled(a2))


# -- tensors -----------------------------------------------------------------------


def test_otimes_builds_rank_two_tensors():
    A = make_borel()
    t = otimes(A.gen("h"), A.gen("x").scaled(2))
    assert t.rank == 2
    assert t.coefficient(("h", "x")) == Poly.const(2)
    assert not t.coefficient(("x", "h"))


def test_otimes_rank_three():
    A = make_borel()
    t = otimes(A.gen("h"), A.gen("x"), A.gen("h"))
    assert t.rank == 3
    assert t.coefficient(("h", "x", "h")) == Poly.one()


def test_wedge_of_even_elements_is_antisymmetric():
    A = make_borel()
    t = wedge(A.gen("h"), A.gen("x"))
    assert t.coefficient(("h", "x")) == Poly.one()
    assert t.coefficient(("x", "h")) == Poly.const(-1)
    assert str(t) == "h(x)x - x(x)h"


def test_wedge_of_odd_elements_is_symmetric():
    A, _, _, _ = make_osp12()
    t = wedge(A.gen("vp"), A.gen("vm"))
    assert t.coefficient(("vp", "vm")) == Poly.one()
    assert t.coefficient(("vm", "vp")) == Poly.one()


def test_wedge_rejects_parity_mixed_input():
    A, _, _, _ = make_osp12()
    with pytest.raises(ValueError):
        wedge(A.gen("h") + A.gen("vp"), A.gen("Xm"))


def test_tensor_arithmetic_and_zero_cleanup():
    A = make_borel()
    t = wedge(A.gen("h"), A.gen("x"))
    assert not (t - t)
    doubled = t + t
    assert doubled.coefficient(("h", "x")) == Poly.const(2)
    assert doubled.scaled(Fraction(1, 2)) == t


def test_tensor_substitute_and_graded_part():
    A = make_borel()
    xi = param("xi")
    t = wedge(A.gen("h"), A.gen("x")).scaled(xi) + otimes(A.gen("h"), A.gen("h"))
    assert t.substitute({"xi": 0}) == otimes(A.gen("h"), A.gen("h"))
    assert t.graded_part(frozenset({"xi"}), 1) == wedge(A.gen("h"), A.gen("x")).scaled(xi)


def test_tensor_parity_classification():
    A, _, _, _ = make_osp12()
    even = otimes(A.gen("h"), A.gen("Xp"))
    odd = otimes(A.gen("h"), A.gen("vp"))
    assert even.parity() == 0
    assert odd.parity() == 1
    assert (even + odd).parity() is None


def _sums_of(kind: str):
    """Two sums x, y over one space and a third over another, all of the
    given sparse-sum kind."""
    sl2, borel = make_sl(2), make_borel()
    h, e, f = sl2.gen("H1"), sl2.gen("E12"), sl2.gen("E21")
    xi = param("xi")
    if kind == "Element":
        return h + e.scaled(xi), e - f, borel.gen("h")
    if kind == "Tensor":
        return (wedge(h, e), otimes(e, f).scaled(xi),
                wedge(borel.gen("h"), borel.gen("x")))
    if kind == "Cobracket":  # a rank-3 Tensor
        return (cobracket_from_r(sl2, wedge(h, e)),
                cobracket_from_r(sl2, wedge(h, f)),
                cobracket_from_r(borel, make_rborel()))
    graded = frozenset({"xi"})
    uea = UEA(borel, TruncationOrder(3, graded))
    u, v = uea.gen("h"), uea.gen("x").scaled(xi)
    if kind == "UEAElement":
        return u + v, v * u, UEA(sl2, TruncationOrder(3, graded)).gen("H1")
    x, y = tensor_product(u, v), tensor_product(v, u + v)
    if kind == "mixed ranks":
        return x, y, u + v
    lower = UEA(borel, TruncationOrder(2, graded))
    return x, y, tensor_product(lower.gen("h"), lower.gen("x"))


@pytest.mark.parametrize(
    "kind", ["Element", "Tensor", "Cobracket", "UEAElement", "TensorUEA",
             "mixed ranks"])
def test_sparse_sums_over_different_spaces_do_not_mix(kind):
    x, y, other = _sums_of(kind)
    assert x and y and other
    assert not x - x
    assert not x.scaled(0)
    assert (x + y) - y == x
    assert -x == x.scaled(-1)
    assert x != other
    with pytest.raises(ValueError):
        x + other
    if kind == "mixed ranks":
        # UEAElement is the rank-1 TensorUEA: products and sums find the
        # ranks differ, in either order.
        assert other != x
        different = "operands live over different spaces"
        for product in (lambda: x * other, lambda: other * x):
            with pytest.raises(ValueError, match=different):
                product()
        with pytest.raises(ValueError, match=different):
            x - other
        with pytest.raises(ValueError, match=different):
            other + x
