"""Schouten brackets, Yang-Baxter checks, cobrackets, duals, adjoint twists.

The Schouten bracket is checked against an independent slot-by-slot
reference implementation (purely even case) before the frozen facts.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lieworkbench.bialgebra import (
    ad_action,
    adjoint_twist_r,
    check_cybe,
    check_invariant,
    check_mcybe,
    cobracket_from_r,
    decompose_check,
    dual_algebra,
    limit_r,
    proportionality_constant,
    schouten,
    sym_part,
)
from lieworkbench.catalog import (
    make_borel,
    make_dual_jordanian,
    make_dual_standard,
    make_osp12,
    make_rborel,
    make_rdj,
    make_rfull,
    make_rjordan,
    make_sl,
)
from lieworkbench.liealg import (
    LieSuperAlgebra,
    Tensor,
    canonical_tuples,
    otimes,
    wedge,
)
from lieworkbench.scalars import Poly, RatFunc, UnsupportedInputError, param

XI = param("xi")
H = param("h")


def _schouten_reference(A: LieSuperAlgebra, r: Tensor) -> Tensor:
    """[[r,r]] = [r12,r13] + [r12,r23] + [r13,r23], expanded slot by slot.

    Independent of the library's implementation; valid for purely even
    algebras, where no Koszul signs appear.
    """
    assert all(A.basis.parity(n) == 0 for n in A.basis.names)
    out = Tensor(A.basis, 3)
    for (a1, b1), c1 in r.coeffs.items():
        for (a2, b2), c2 in r.coeffs.items():
            scale = c1 * c2
            for target, coeff in A.bracket_basis(a1, a2).coeffs.items():
                out = out + Tensor(A.basis, 3, {(target, b1, b2): scale * coeff})
            for target, coeff in A.bracket_basis(b1, a2).coeffs.items():
                out = out + Tensor(A.basis, 3, {(a1, target, b2): scale * coeff})
            for target, coeff in A.bracket_basis(b1, b2).coeffs.items():
                out = out + Tensor(A.basis, 3, {(a1, a2, target): scale * coeff})
    return out


def _random_even_tensor(rng: random.Random, A: LieSuperAlgebra) -> Tensor:
    out = Tensor(A.basis, 2)
    names = A.basis.names
    for _ in range(4):
        a, b = rng.choice(names), rng.choice(names)
        out = out + otimes(A.gen(a), A.gen(b)).scaled(rng.randint(-2, 2))
    return out


# -- Schouten bracket ---------------------------------------------------------------


def test_schouten_matches_the_reference_implementation():
    rng = random.Random(17)
    A = make_sl(2)
    cases = [make_rdj(2), make_rjordan(2), otimes(A.gen("E12"), A.gen("E21"))]
    cases += [_random_even_tensor(rng, A) for _ in range(8)]
    for r in cases:
        assert schouten(A, r) == _schouten_reference(A, r)


def test_schouten_vanishes_for_flagship_r_matrices():
    assert not schouten(make_borel(), make_rborel())
    for N in (2, 3, 4):
        assert not schouten(make_sl(N), make_rjordan(N))
    # The standard tensors include their invariant symmetric part, which
    # makes the full Schouten bracket vanish identically as well.
    for N in (2, 3):
        assert not schouten(make_sl(N), make_rdj(N))


def test_schouten_detects_a_non_solution():
    A = make_sl(2)
    r = otimes(A.gen("E12"), A.gen("E21"))
    bracket = schouten(A, r)
    assert bracket
    assert not check_cybe(A, r)


def test_schouten_rejects_parity_odd_terms():
    A, _, _, _ = make_osp12()
    with pytest.raises(UnsupportedInputError):
        schouten(A, otimes(A.gen("h"), A.gen("vp")))


# -- invariance and the modified equation ---------------------------------------------


def test_ad_action_is_a_derivation_on_slots():
    A = make_sl(2)
    x = A.gen("E12")
    a, b = A.gen("H1"), A.gen("E21")
    acted = ad_action(A, x, otimes(a, b))
    expected = otimes(A.bracket(x, a), b) + otimes(a, A.bracket(x, b))
    assert acted == expected
    # An odd x passing an odd first slot picks up a sign on the second.
    B, _, _, _ = make_osp12()
    h, Xp, vp, vm = (B.gen(n) for n in ("h", "Xp", "vp", "vm"))
    assert (ad_action(B, vp, otimes(vm, vp))
            == otimes(h, vp).scaled(Fraction(-1, 4))
            - otimes(vm, Xp).scaled(Fraction(1, 2)))


def test_symmetric_part_of_the_standard_r_matrix_is_invariant():
    for N in (2, 3):
        A = make_sl(N)
        assert check_invariant(A, sym_part(make_rdj(N)))


def test_jordanian_r_matrix_is_skew():
    for N in (2, 3):
        assert not sym_part(make_rjordan(N))


def test_modified_equation_holds_for_standard_and_combined():
    for N in (2, 3):
        A = make_sl(N)
        assert check_mcybe(A, make_rdj(N))
        assert check_mcybe(A, make_rfull(N))


def test_osp12_r_matrices_solve_both_equations():
    # Two r-matrices on osp(1|2) with odd factors: a standard and a
    # super-jordanian one.
    A, _, _, _ = make_osp12()
    h, Xp, Xm, vp, vm = A.gens()
    r1 = otimes(h, h) + otimes(Xp, Xm).scaled(4) + otimes(vp, vm).scaled(8)
    r2 = otimes(Xp, h) - otimes(h, Xp) + otimes(vp, vp).scaled(4)
    for r in (r1, r2):
        assert check_cybe(A, r)
        assert check_mcybe(A, r)
        # Co-Jacobi of the cobracket is Jacobi of its dual bracket.
        assert dual_algebra(cobracket_from_r(A, r), "dual").verify_jacobi().ok
    assert check_invariant(A, sym_part(r1))


def test_invariance_fails_for_a_non_invariant_tensor():
    A = make_sl(2)
    assert not check_invariant(A, otimes(A.gen("E12"), A.gen("E12")))


# -- cobrackets and duals -------------------------------------------------------------


def test_cobracket_values_on_the_borel_pair():
    A = make_borel()
    delta = cobracket_from_r(A, make_rborel())
    assert delta == Tensor(A.basis, 3, {("h", "h", "x"): 2,
                                        ("h", "x", "h"): -2})


def test_dual_algebra_of_the_standard_sl2_bracket():
    dual = make_dual_standard(2)
    assert dual.basis.names == ("H1_hat", "E12_hat", "E21_hat")
    h_hat, e_hat, f_hat = (dual.gen(n) for n in dual.basis.names)
    assert dual.bracket(h_hat, e_hat) == e_hat.scaled(H)
    assert dual.bracket(h_hat, f_hat) == f_hat.scaled(H)
    assert not dual.bracket(e_hat, f_hat)
    assert dual.verify_jacobi().ok


def test_dual_algebra_of_the_jordanian_sl2_bracket():
    dual = make_dual_jordanian(2)
    h_hat, e_hat, f_hat = (dual.gen(n) for n in dual.basis.names)
    assert dual.bracket(h_hat, e_hat) == h_hat.scaled(XI * -2)
    assert dual.bracket(e_hat, f_hat) == f_hat.scaled(XI * 2)
    assert not dual.bracket(h_hat, f_hat)
    assert dual.verify_jacobi().ok


def test_dual_pairing_convention():
    # <[a*, b*], c> = coefficient of a^b in delta(c), checked directly: the
    # (a, b) coefficient for distinct a, b, and half the (v, v) coefficient
    # at an odd repeat, where v^v = 2 v(x)v.  The osp(1|2) cobracket of the
    # super-jordanian r2 = Xp^h + 4 vp(x)vp has delta(h) = ... + 8 vp(x)vp.
    B, _, _, _ = make_osp12()
    h, Xp, _, vp, _ = B.gens()
    r2 = wedge(Xp, h) + otimes(vp, vp).scaled(4)
    for A, r in ((make_sl(2), make_rjordan(2)), (B, r2)):
        delta = cobracket_from_r(A, r)
        dual = dual_algebra(delta, "dual")
        for i, a in enumerate(A.basis.names):
            for j, b in enumerate(A.basis.names):
                value = dual.bracket_basis(dual.basis.names[i],
                                           dual.basis.names[j])
                for k, c in enumerate(A.basis.names):
                    expected = delta.coefficient((c, a, b))
                    if i == j:
                        expected = expected * Fraction(1, 2)
                    assert value.coefficient(dual.basis.names[k]) == expected
    assert delta.coefficient(("h", "vp", "vp")) == 8
    assert dual.bracket_basis("vp_hat", "vp_hat") == dual.gen("h_hat").scaled(4)


def _values_reference(A: LieSuperAlgebra, r: Tensor) -> dict[str, Tensor]:
    """delta(e_k) = ad_{e_k}(r) per generator, the nonzero ones only."""
    values = {name: ad_action(A, A.gen(name), r) for name in A.basis.names}
    return {name: value for name, value in values.items() if value}


def _dual_reference(A: LieSuperAlgebra, values: dict[str, Tensor], name: str,
                    suffix: str) -> LieSuperAlgebra:
    """The dual bracket read at every canonical pair (i, j) off every
    delta(e_k): the coefficient of e_i(x)e_j, halved at an odd repeat."""
    basis = A.basis
    dual_basis = basis.renamed(suffix)
    names, dual = basis.names, dual_basis.names
    rows = [(dual[k], values[n].coeffs)
            for k, n in enumerate(names) if n in values]
    table = {(dual[i], dual[j]):
             {target: c / 2 if i == j else c for target, value in rows
              if (c := value.get((names[i], names[j]))) is not None}
             for (i, j) in canonical_tuples(basis, 2)}
    return LieSuperAlgebra(name, dual_basis, table)


_CROSS_CHECKED = {"borel": make_borel, "sl2": lambda: make_sl(2),
                  "sl3": lambda: make_sl(3), "osp12": lambda: make_osp12()[0]}


@st.composite
def _algebras_and_r(draw):
    """An algebra of ``_CROSS_CHECKED`` and a random parity-even rank-2 r
    on it, with coefficients a + b*xi; its symmetric part is in general
    not invariant, so delta has coefficients in both orders of a pair and
    at even repeats."""
    A = _CROSS_CHECKED[draw(st.sampled_from(sorted(_CROSS_CHECKED)))]()
    parity = A.basis.parity
    keys = [(a, b) for a in A.basis.names for b in A.basis.names
            if parity(a) == parity(b)]
    coeffs = st.tuples(st.integers(-3, 3), st.integers(-2, 2)).map(
        lambda ab: ab[0] + XI * ab[1])
    return A, Tensor(A.basis, 2, draw(st.dictionaries(
        st.sampled_from(keys), coeffs, min_size=1, max_size=6)))


@settings(max_examples=80, deadline=None, database=None)
@given(_algebras_and_r(), st.sampled_from(("_hat", "")))
@example((make_sl(2), Tensor(make_sl(2).basis, 2, {
    ("E12", "E12"): 1, ("H1", "E12"): XI})), "_hat")
@example((make_osp12()[0], Tensor(make_osp12()[0].basis, 2, {
    ("vp", "vp"): 4, ("vm", "vp"): XI, ("h", "Xp"): 1})), "_hat")
def test_cobracket_and_dual_match_the_per_generator_reference(pair, suffix):
    A, r = pair
    delta = cobracket_from_r(A, r)
    values = _values_reference(A, r)
    assert delta.rank == 3 and delta.basis == A.basis
    for name in A.basis.names:
        row = {key[1:]: c for key, c in delta.coeffs.items() if key[0] == name}
        assert Tensor(A.basis, 2, row) == values.get(name, Tensor(A.basis, 2))
    dual = dual_algebra(delta, "dual", suffix)
    expected = _dual_reference(A, values, "dual", suffix)
    assert dual.name == expected.name
    assert dual.basis == expected.basis
    assert dual.basis.parities == A.basis.parities
    assert list(dual.table.items()) == list(expected.table.items())


# -- adjoint twisting ------------------------------------------------------------------


def test_adjoint_twist_first_order_is_jordanian():
    for N in (2, 3):
        A = make_sl(N)
        r = make_rdj(N)
        top = A.gen(f"E1{N}")
        twisted = adjoint_twist_r(A, r, top, XI)
        first = (twisted - r).graded_part(frozenset({"xi"}), 1)
        assert proportionality_constant(first, make_rjordan(N)) == -H


def test_adjoint_twist_preserves_the_modified_equation():
    A = make_sl(2)
    twisted = adjoint_twist_r(A, make_rdj(2), A.gen("E12"), XI)
    assert check_mcybe(A, twisted)


def test_adjoint_twist_rejects_non_nilpotent_directions():
    A = make_sl(2)
    with pytest.raises(UnsupportedInputError):
        adjoint_twist_r(A, make_rdj(2), A.gen("H1"), XI)


def test_adjoint_twist_rejects_odd_directions():
    A, _, _, _ = make_osp12()
    r = otimes(A.gen("h"), A.gen("h"))
    with pytest.raises(UnsupportedInputError):
        adjoint_twist_r(A, r, A.gen("vp"), XI)


# -- decomposition, limits, proportionality --------------------------------------------


def test_combined_r_matrix_decomposes_exactly():
    for N in (2, 3, 4):
        assert decompose_check(make_rfull(N), make_rdj(N), make_rjordan(N))
    assert not decompose_check(make_rfull(2), make_rdj(2), make_rdj(2))


def test_parameter_limits_select_the_summands():
    for N in (2, 3, 4):
        full = make_rfull(N)
        assert limit_r(full, "h") == make_rjordan(N)
        assert limit_r(full, "xi") == make_rdj(N)


def test_proportionality_constant_values():
    A = make_borel()
    base = wedge(A.gen("h"), A.gen("x"))
    assert proportionality_constant(base.scaled(XI * -1), base) == -XI
    assert proportionality_constant(base, base) == Poly.one()
    assert proportionality_constant(Tensor(A.basis, 2), base) == Poly.zero()
    assert proportionality_constant(Tensor(A.basis, 2), Tensor(A.basis, 2)) == Poly.zero()
    assert proportionality_constant(base, Tensor(A.basis, 2)) is None
    assert proportionality_constant(otimes(A.gen("h"), A.gen("h")), base) is None


def test_proportionality_constant_can_be_a_rational_function():
    A = make_borel()
    base = wedge(A.gen("h"), A.gen("x"))
    ratio = proportionality_constant(base.scaled(XI), base.scaled(H))
    assert ratio == RatFunc(XI, H)
