"""Exact scalar arithmetic: polynomials, rational functions, truncation.

Ring laws are checked on seeded random polynomials against sympy as an
independent oracle; the remaining tests freeze small exact values.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lieworkbench.scalars import (
    Poly,
    RatFunc,
    TruncationOrder,
    as_poly,
    param,
    poly_divmod,
    scalar_str,
)

H = param("h")
XI = param("xi")


def _random_poly(rng: random.Random, names=("h", "xi"), terms=4) -> Poly:
    out = Poly.zero()
    for _ in range(rng.randrange(terms + 1)):
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        mono = Poly.const(coeff)
        for name in names:
            mono = mono * param(name) ** rng.randrange(3)
        out = out + mono
    return out


def _to_sympy(poly: Poly):
    expr = sympy.Integer(0)
    for mono, coeff in poly.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for name, exponent in mono:
            term *= sympy.Symbol(name) ** exponent
        expr += term
    return sympy.expand(expr)


def test_ring_operations_agree_with_sympy():
    rng = random.Random(7)
    for _ in range(40):
        p, q = _random_poly(rng), _random_poly(rng)
        assert _to_sympy(p + q) == _to_sympy(p) + _to_sympy(q)
        assert _to_sympy(p - q) == _to_sympy(p) - _to_sympy(q)
        assert _to_sympy(p * q) == sympy.expand(_to_sympy(p) * _to_sympy(q))


def test_ring_axioms_hold_exactly():
    rng = random.Random(11)
    for _ in range(25):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + Poly.zero() == p
        assert p * Poly.one() == p
        assert p - p == Poly.zero()


def test_substitution_is_a_ring_homomorphism():
    rng = random.Random(13)
    for _ in range(25):
        p, q = _random_poly(rng), _random_poly(rng)
        point = {"h": Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                 "xi": Fraction(rng.randint(-4, 4), rng.randint(1, 3))}
        assert (p + q).substitute(point) == p.substitute(point) + q.substitute(point)
        assert (p * q).substitute(point) == p.substitute(point) * q.substitute(point)


def test_partial_substitution_keeps_other_parameters():
    p = H * XI + H * 3
    assert p.substitute({"h": 2}) == XI * 2 + Poly.const(6)
    assert str(p.substitute({"h": 2})) == "6 + 2*xi"


def test_substituting_a_name_the_polynomial_lacks_changes_nothing():
    p = H * 2 + XI
    assert p.substitute({"absent": 1}) == p


def test_canonical_string_forms():
    assert str(H * 2 - XI) == "2*h - xi"
    assert str(-XI) == "-xi"
    assert str(H * H * Fraction(2, 3)) == "2/3*h^2"
    assert str(Poly.zero()) == "0"
    assert str(Poly.const(Fraction(-1, 4))) == "-1/4"
    assert scalar_str(RatFunc(XI * 2, H)) == "2*xi/h"


def test_equal_polynomials_print_identically():
    left = (H + XI) * (H - XI)
    right = H * H - XI * XI
    assert left == right
    assert str(left) == str(right)


def test_truncation_drops_high_graded_degree_only():
    order = TruncationOrder(2, frozenset({"xi"}))
    p = Poly.one() + XI * 2 + XI * XI * H - XI ** 3 + H ** 5
    truncated = p.truncate(order)
    assert truncated == Poly.one() + XI * 2 + XI * XI * H + H ** 5
    assert p.graded_degrees(frozenset({"xi"})) == (0, 3)
    assert truncated.graded_degrees(frozenset({"xi"})) == (0, 2)


def test_graded_parts_reassemble_the_polynomial():
    graded = frozenset({"xi"})
    p = Poly.one() + XI * H + XI * XI * 3
    total = Poly.zero()
    for degree in range(0, 3):
        total = total + p.graded_part(graded, degree)
    assert total == p
    assert p.graded_part(graded, 1) == XI * H


def test_constant_inspection():
    assert Poly.const(5).is_constant()
    assert not H.is_constant()
    assert (H - H).is_constant()
    assert Poly.const(Fraction(3, 2)).as_fraction() == Fraction(3, 2)
    assert (H + 1).constant_term() == 1
    assert H.parameters() == frozenset({"h"})
    assert (H * XI).parameters() == frozenset({"h", "xi"})


def test_as_poly_coercions():
    assert as_poly(3) == Poly.const(3)
    assert as_poly(Fraction(1, 2)) == Poly.const(Fraction(1, 2))
    assert as_poly(H) is H
    with pytest.raises(TypeError):
        as_poly(0.5)


def test_poly_division_with_remainder():
    numerator = H * H * XI + H * 2
    quotient, remainder = poly_divmod(numerator, H)
    assert quotient * H + remainder == numerator
    assert remainder == Poly.zero()
    _, remainder = poly_divmod(H + 1, XI)
    assert remainder == H + 1


def test_ratfunc_arithmetic_and_equality():
    half = RatFunc(XI, H * 2)
    assert half + half == RatFunc(XI, H)
    assert half * RatFunc(H * 2) == RatFunc(XI)
    assert RatFunc(XI * H, H * H) == RatFunc(XI, H)  # cross-multiplied
    assert half == XI / 2 / RatFunc(H)  # mixed Poly arithmetic coerces
    assert half.parameters() == frozenset({"h", "xi"})


def test_a_denominator_is_normalised_to_coprime_integers_with_positive_lead():
    # The denominator's content 2/9 is divided out and the numerator scaled
    # to match; the sign goes with the positive leading coefficient.
    ratio = RatFunc(XI, H * Fraction(-2, 3) + H * H * Fraction(4, 9))
    assert str(ratio) == "9/2*xi/(-3*h + 2*h^2)"
    assert ratio.den == H * -3 + H * H * 2


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(0, 2**32), st.one_of(
    st.sampled_from((Fraction(1), Fraction(-1))),
    st.fractions(-50, 50, max_denominator=20).filter(bool)))
def test_a_constant_denominator_divides_as_reduce_does(seed, constant):
    # RatFunc skips _reduce for a constant denominator; both give the same
    # numerator and denominator.
    num = _random_poly(random.Random(seed))
    ratio = RatFunc(num, constant)
    assert (ratio.num, ratio.den) == RatFunc._reduce(num, Poly.const(constant))


def test_long_coefficients_render_exactly_in_chunks():
    # Rendering splits values of 500 digits or more into chunks; below
    # Python's str(int) limit it must agree with str digit for digit.
    for n in (10**500 - 1, 10**500, 10**500 + 1, 10**1000 + 7, 3**4000):
        for value in (Fraction(n), Fraction(-n), Fraction(n, 10**600 + 1)):
            assert str(Poly.const(value)) == str(value)
            assert str(Poly.const(value) * H) == f"{value}*h"


def test_ratfunc_substitution():
    ratio = RatFunc(XI * 2, H)
    assert ratio.substitute({"h": 2, "xi": 3}) == RatFunc(Poly.const(3))
    with pytest.raises(ZeroDivisionError):
        ratio.substitute({"h": 0, "xi": 1})
    with pytest.raises(ZeroDivisionError):
        RatFunc(XI, Poly.zero())


def test_param_declaration_is_idempotent():
    assert param("h") == param("h") == H
