"""The scalar fast paths against the general code they short-cut.

``Poly`` addition, subtraction and multiplication, ``RatFunc``
construction, the point evaluation behind ``rank_at_point`` and the CE
residual each take a short branch for constant, zero or unit-denominator
operands, and the genericity check takes a matrix's cells as they are.  The general versions they replaced are copied here as
references, and every result is compared with the reference's term by
term, on zero, constant, unit, negative and multi-parameter operands.
Every coefficient must stay a ``Fraction``, and no operand may change.
The bialgebra's ``ad_action`` and ``schouten``, which read the index
table, are compared the same way with their name-keyed loops.
"""

from __future__ import annotations

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieworkbench import cohomology, linsolve
from lieworkbench.catalog import catalog_get
from lieworkbench.bialgebra import ad_action, schouten
from lieworkbench.cohomology import Cochain1, Cochain2, h2_dim
from lieworkbench.liealg import (Element, GradedBasis, LieSuperAlgebra, Tensor,
                                 accumulate, canonical_tuples, ce_residual,
                                 ce_terms)
from lieworkbench.linsolve import (GenericityError, as_ratfunc, rank_at_point,
                                   rref, verify_rank_generically)
from lieworkbench.scalars import (Poly, RatFunc, UnsupportedInputError,
                                  _mono_mul, param)

# -- the general references -------------------------------------------------------------


def _made(terms: dict) -> Poly:
    result = Poly.__new__(Poly)
    result._terms = terms
    return result


def _as_operand(other):
    if isinstance(other, Poly):
        return other
    return Poly.const(other)


def _ref_add(a: Poly, other) -> Poly:
    other = _as_operand(other)
    out = dict(a._terms)
    for mono, coeff in other._terms.items():
        acc = out.get(mono, Fraction(0)) + coeff
        if acc:
            out[mono] = acc
        else:
            out.pop(mono, None)
    return _made(out)


def _ref_sub(a: Poly, other) -> Poly:
    other = _as_operand(other)
    return _ref_add(a, Poly({m: -c for m, c in other._terms.items()}))


def _ref_mul(a: Poly, other) -> Poly:
    if not isinstance(other, Poly):
        frac = Fraction(other)
        if not frac:
            return Poly.zero()
        return Poly({m: c * frac for m, c in a._terms.items()})
    out: dict = {}
    for m1, c1 in a._terms.items():
        for m2, c2 in other._terms.items():
            mono = _mono_mul(m1, m2)
            acc = out.get(mono, Fraction(0)) + c1 * c2
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
    return _made(out)


def _ref_ratfunc(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """The (numerator, denominator) the general constructor stores."""
    if not num:
        return num, Poly.one()
    if all(not mono for mono in den._terms):
        return _ref_mul(num, 1 / den.constant_term()), Poly.one()
    return RatFunc._reduce(num, den)


def _ref_value_at(entry, point):
    poly = as_ratfunc(entry).substitute(point).as_poly()
    if poly is None or not poly.is_constant():
        raise ValueError("point does not evaluate all parameters")
    return poly.as_fraction()


def _ref_accumulate(store, key, value):
    if not value:
        return
    total = store.get(key)
    total = value if total is None else total + value
    if total:
        store[key] = total
    else:
        del store[key]


def _ref_ce_residual(A, phi, args):
    brackets, cochains = ce_terms(tuple(map(A.basis.parity, args)),
                                  phi.parity)
    out: dict = {}
    for i, rest, sign in brackets:
        for name, value in phi.apply_names(*rest(args)).items():
            value = -value if sign < 0 else value
            for t, c in A.bracket_basis(args[i], name).coeffs.items():
                _ref_accumulate(out, t, c * value)
    for (i, j), rest, sign in cochains:
        others = rest(args)
        for name, c in A.bracket_basis(args[i], args[j]).coeffs.items():
            for t, value in phi.apply_names(name, *others).items():
                _ref_accumulate(out, t, value * c if sign > 0
                                else -(value * c))
    return out


# -- operands ---------------------------------------------------------------------------

PARAMS = ("h", "s", "xi")
_NONZERO = st.fractions(-4, 4, max_denominator=3).filter(bool)


def _monomials(names, degree):
    return st.tuples(*(st.integers(0, degree) for _ in names)).map(
        lambda exps: tuple((n, e) for n, e in zip(names, exps) if e))


@st.composite
def _polys(draw, names=PARAMS, degree=2, size=4):
    """A zero, a unit (1 or -1), a constant, a negated monomial, or a
    polynomial of up to ``size`` terms in the given parameters, with a
    constant term or not."""
    kind = draw(st.sampled_from(("zero", "unit", "constant", "negative",
                                 "general")))
    monomials = _monomials(names, degree)
    if kind == "zero":
        return Poly.zero()
    if kind == "unit":
        return Poly.const(draw(st.sampled_from((1, -1))))
    if kind == "constant":
        return Poly.const(draw(_NONZERO))
    if kind == "negative":
        return Poly({draw(monomials): -abs(draw(_NONZERO))})
    return Poly(draw(st.dictionaries(monomials, _NONZERO, max_size=size)))


# Python scalars a Poly operator coerces: ints and Fractions, zero included.
_SCALARS = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


def _terms(poly: Poly) -> dict:
    assert isinstance(poly, Poly)
    assert all(type(c) is Fraction and c for c in poly._terms.values())
    return dict(poly._terms)


def _snapshot(*values):
    return [dict(v._terms) if isinstance(v, Poly) else v for v in values]


# -- Poly -------------------------------------------------------------------------------


@settings(max_examples=300, deadline=None, database=None)
@given(_polys(), st.one_of(_polys(), _SCALARS))
def test_poly_operators_match_the_general_loops(a, b):
    before = _snapshot(a, b)
    for ours, reference in ((a + b, _ref_add(a, b)), (a - b, _ref_sub(a, b)),
                            (a * b, _ref_mul(a, b))):
        assert _terms(ours) == _terms(reference)
    # The reflected operators, with a Python scalar on the left.
    if not isinstance(b, Poly):
        assert _terms(b + a) == _terms(_ref_add(a, b))
        assert _terms(b - a) == _terms(_ref_sub(Poly.const(b), a))
        assert _terms(b * a) == _terms(_ref_mul(a, b))
    assert _snapshot(a, b) == before


@settings(max_examples=100, deadline=None, database=None)
@given(_polys())
def test_is_constant_is_the_all_constant_monomials_test(a):
    assert a.is_constant() == all(not mono for mono in a._terms)


def test_a_sum_with_zero_is_the_other_operand_unchanged():
    h = param("h")
    for total in (h + 0, 0 + h, h + Poly.zero(), Poly.zero() + h):
        assert total is h
    assert _terms(h) == {(("h", 1),): Fraction(1)}


def test_a_product_with_a_constant_owns_its_terms():
    h = param("h")
    for product in (h * Poly.one(), Poly.one() * h, h * Poly.const(-1)):
        assert product is not h and product._terms is not h._terms
    assert _terms(h - Poly.zero()) == _terms(h)


# -- RatFunc ----------------------------------------------------------------------------


@settings(max_examples=300, deadline=None, database=None)
@given(_polys(), _polys().filter(bool))
def test_ratfunc_construction_matches_the_general_constructor(num, den):
    before = _snapshot(num, den)
    value = RatFunc(num, den)
    ref_num, ref_den = _ref_ratfunc(num, den)
    assert _terms(value.num) == _terms(ref_num)
    assert _terms(value.den) == _terms(ref_den)
    assert _snapshot(num, den) == before


@settings(max_examples=200, deadline=None, database=None)
@given(_polys(), st.one_of(_polys(), _SCALARS))
def test_ratfunc_arithmetic_over_unit_denominators_matches(a, b):
    left, right = RatFunc(a), as_ratfunc(b)
    ops = [(left + right, _ref_add(a, b)), (left - right, _ref_sub(a, b)),
           (left * right, _ref_mul(a, b)), (-left, _ref_sub(Poly.zero(), a))]
    for value, reference in ops:
        assert _terms(value.num) == _terms(reference)
        assert _terms(value.den) == {(): Fraction(1)}
    if right:
        quotient = left / right
        ref_num, ref_den = _ref_ratfunc(_ref_mul(a, right.den),
                                        _ref_mul(Poly.one(), right.num))
        assert _terms(quotient.num) == _terms(ref_num)
        assert _terms(quotient.den) == _terms(ref_den)


def test_a_unit_denominator_keeps_the_numerator():
    h = param("h")
    assert RatFunc(h).num is h
    assert RatFunc(h, Poly.one()).num is h
    assert RatFunc(h, 1).num is h
    assert _terms(RatFunc(h, 2).num) == {(("h", 1),): Fraction(1, 2)}
    assert _terms(RatFunc(h, -1).num) == {(("h", 1),): Fraction(-1)}
    assert RatFunc(h).den is RatFunc(param("s")).den


# -- point evaluation and rank ----------------------------------------------------------


@st.composite
def _matrices(draw, names=PARAMS, degree=2, size=4):
    """Up to 5 x 5 matrices of Poly, RatFunc and falsy entries, and a point
    for most or all of the parameters."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    polys = _polys(names, degree, size)
    entry = st.one_of(
        st.sampled_from((0, Poly.zero())), polys,
        st.tuples(polys, polys.filter(bool)).map(lambda pair: RatFunc(*pair)))
    matrix = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    point = {name: draw(st.fractions(-3, 3, max_denominator=3))
             for name in draw(st.sampled_from((names, names[:-1])))}
    return matrix, point


def _outcome(fn, *args):
    """fn's value, with the type of every value inside it, or the type of
    the error it raised."""
    try:
        value = fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)
    return value, type(value)


@settings(max_examples=120, deadline=None, database=None)
@given(_matrices())
def test_point_values_and_ranks_match_the_ratfunc_path(drawn):
    matrix, point = drawn
    before = [_snapshot(*row) for row in matrix]
    for row in matrix:
        for entry in row:
            if entry:
                assert (_outcome(linsolve._value_at, entry, point)
                        == _outcome(_ref_value_at, entry, point))
    with mock.patch.object(linsolve, "_value_at", _ref_value_at):
        expected = _outcome(rank_at_point, matrix, point)
    assert _outcome(rank_at_point, matrix, point) == expected
    assert [_snapshot(*row) for row in matrix] == before


def test_a_poly_entry_missing_a_parameter_is_refused():
    with pytest.raises(ValueError, match="does not evaluate"):
        linsolve._value_at(param("h") + 1, {"s": Fraction(2)})


# Symbolic elimination of dense rational functions swells fast, so these
# matrices stay linear in two parameters with at most two terms an entry.
@settings(max_examples=60, deadline=None, database=None)
@given(_matrices(names=("h", "s"), degree=1, size=2))
def test_generic_rank_checks_match_the_ratfunc_path(drawn):
    matrix, _ = drawn
    result = rref(matrix)

    def verdicts():
        out = []
        for rank in (result.rank, result.rank + 1):
            try:
                verify_rank_generically(matrix, rank, result.assumptions)
                out.append("ok")
            except GenericityError as exc:
                out.append(str(exc))
        return out

    with mock.patch.object(linsolve, "_value_at", _ref_value_at):
        expected = verdicts()
    assert verdicts() == expected
    assert expected[0] == "ok"


def _ref_verify_rank_generically(matrix, expected_rank, assumptions):
    """The genericity check as it was, with every nonzero cell made a
    ``RatFunc`` first."""
    rows = [[as_ratfunc(e) if e else RatFunc(Poly.zero()) for e in row]
            for row in matrix]
    if not rows:
        return
    params: set[str] = set()
    avoid = list(assumptions)
    for row in rows:
        for e in row:
            if e:
                params |= e.parameters()
                if not e.den.is_constant():
                    avoid.append(e.den)
    if not params:
        return
    for point in linsolve.sample_points(sorted(params), avoid):
        if rank_at_point(rows, point) != expected_rank:
            raise GenericityError(
                f"symbolic rank {expected_rank} not reproduced at {point}")


def _as_kind(matrix, kind):
    """The matrix with its cells as drawn, as ``Poly`` (a quotient keeps
    its numerator) or as ``RatFunc``."""
    if kind == "poly":
        return [[e.num if isinstance(e, RatFunc) else e for e in row]
                for row in matrix]
    if kind == "ratfunc":
        return [[as_ratfunc(e) if e else e for e in row] for row in matrix]
    return matrix


@settings(max_examples=60, deadline=None, database=None)
@given(_matrices(names=("h", "s"), degree=1, size=2),
       st.sampled_from(("poly", "ratfunc", "mixed")))
def test_generic_rank_checks_take_the_cells_as_they_are(drawn, kind):
    matrix = _as_kind(drawn[0], kind)
    before = [_snapshot(*row) for row in matrix]
    result = rref(matrix)
    for rank in {result.rank, result.rank + 1, max(result.rank - 1, 0)}:
        verdicts = []
        for check in (verify_rank_generically, _ref_verify_rank_generically):
            try:
                check(matrix, rank, result.assumptions)
                verdicts.append("ok")
            except GenericityError as exc:
                verdicts.append(str(exc))
        assert verdicts[0] == verdicts[1], (kind, rank)
        assert (verdicts[0] == "ok") >= (rank == result.rank)
    assert [_snapshot(*row) for row in matrix] == before


# -- the CE residual --------------------------------------------------------------------


@st.composite
def _algebras_and_cochains(draw):
    """A random graded-antisymmetric table on 2 or 3 generators, one of
    them possibly odd, with coefficients in s (Jacobi need not hold), and
    a 1-cochain and a 2-cochain on its basis with Poly or RatFunc values
    of either parity."""
    n = draw(st.integers(2, 3))
    odd = draw(st.sets(st.integers(0, n - 1), max_size=1))
    basis = GradedBasis(tuple(f"e{i}" for i in range(n)),
                        tuple(int(i in odd) for i in range(n)))
    s = param("s")
    coeffs = st.tuples(st.integers(-2, 2), st.integers(-1, 1)).map(
        lambda ab: ab[0] + ab[1] * s)
    values = st.one_of(coeffs, st.sampled_from(
        (RatFunc(Poly.one(), s + 1), RatFunc(s, 2 * s - 3), RatFunc(-1, 2))))

    def vector(parity, scalars):
        return {t: draw(scalars) for t in basis.names
                if basis.parity(t) == parity and draw(st.booleans())}

    def pairs(p, scalars):
        return {(basis.names[i], basis.names[j]): vector(
                    (basis.parities[i] + basis.parities[j] + p) % 2, scalars)
                for (i, j) in canonical_tuples(basis, 2)}

    A = LieSuperAlgebra("mu", basis, pairs(0, coeffs))
    p1, p2 = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    psi = Cochain1(basis, {name: vector((basis.parity(name) + p1) % 2, values)
                           for name in basis.names}, parity=p1)
    phi = Cochain2(basis, pairs(p2, values), parity=p2)
    return A, psi, phi


def _same_vector(ours: dict, reference: dict) -> None:
    assert list(ours) == list(reference)
    for t, value in ours.items():
        ref = reference[t]
        assert type(value) is type(ref)
        if isinstance(value, RatFunc):
            assert _terms(value.num) == _terms(ref.num)
            assert _terms(value.den) == _terms(ref.den)
        else:
            assert _terms(value) == _terms(ref)


@settings(max_examples=80, deadline=None, database=None)
@given(_algebras_and_cochains())
def test_ce_residual_matches_the_negate_first_loop(drawn):
    A, psi, phi = drawn
    names = A.basis.names
    for cochain, arity in ((psi, 2), (phi, 3), (A, 3)):
        for args in _ordered(names, arity):
            _same_vector(ce_residual(A, cochain, args),
                         _ref_ce_residual(A, cochain, args))


def _ordered(names, arity):
    if arity == 0:
        return [()]
    return [(n, *rest) for n in names for rest in _ordered(names, arity - 1)]


# -- h2_dim needs a Lie bracket ---------------------------------------------------------


def test_h2_dim_names_the_failing_jacobi_triple_before_any_elimination():
    mu_prime = catalog_get("mu.prime")

    def refuse(*_):
        raise AssertionError("rref ran on a bracket that fails Jacobi")

    with mock.patch.object(cohomology, "rref", refuse):
        with pytest.raises(ValueError, match=r"\(Y11, Y12, Y23\)"):
            h2_dim(mu_prime)


# -- the bialgebra reads ----------------------------------------------------------------


def _ref_ad_action(A, x, t):
    """``ad_action`` as it read the bracket by name: one basis vector and
    one element bracket per tensor slot."""
    px = x.parity()
    if px is None:
        raise ValueError("ad_action requires a parity-homogeneous element")
    basis = t.basis
    out: dict = {}
    for key, coeff in t.coeffs.items():
        for slot in range(t.rank):
            sign = (-1) ** (px * sum(basis.parity(n) for n in key[:slot]))
            image = A.bracket(x, Element.basis_vector(basis, key[slot]))
            for target, c in image.coeffs.items():
                accumulate(out, key[:slot] + (target,) + key[slot + 1:],
                           coeff * c * sign)
    return Tensor(basis, t.rank, out)


def _ref_schouten(A, r):
    """``schouten`` as it read the bracket by name: three basis brackets
    per pair of terms."""
    if r.rank != 2:
        raise ValueError("schouten expects a rank-2 tensor")
    basis = r.basis
    for key in r.coeffs:
        if r.key_parity(key):
            raise UnsupportedInputError(
                f"schouten bracket requires parity-even terms; got {key}")
    out: dict = {}
    items = list(r.coeffs.items())
    for (a, b), c1 in items:
        for (c, d), c2 in items:
            coeff = c1 * c2
            sign_bc = (-1) ** (basis.parity(b) * basis.parity(c))
            for target, k in A.bracket_basis(a, c).coeffs.items():
                accumulate(out, (target, b, d), coeff * k * sign_bc)
            for target, k in A.bracket_basis(b, c).coeffs.items():
                accumulate(out, (a, target, d), coeff * k)
            for target, k in A.bracket_basis(b, d).coeffs.items():
                accumulate(out, (a, c, target), coeff * k * sign_bc)
    return Tensor(basis, 3, out)


def _tensor(draw, basis, rank, even=False):
    """A random tensor of the given rank with coefficients a + b*s; with
    ``even``, its parity-odd terms are dropped."""
    s = param("s")
    keys = st.tuples(*[st.sampled_from(basis.names)] * rank)
    terms = draw(st.lists(st.tuples(keys, st.integers(-2, 2),
                                    st.integers(-1, 1)), max_size=5))
    return Tensor(basis, rank, {
        key: a + b * s for key, a, b in terms
        if not (even and sum(map(basis.parity, key)) % 2)})


def _same_tensor(ours: Tensor, reference: Tensor) -> None:
    assert (ours.basis, ours.rank) == (reference.basis, reference.rank)
    assert ours.coeffs.keys() == reference.coeffs.keys()
    for key, value in ours.coeffs.items():
        assert _terms(value) == _terms(reference.coeffs[key])


def _verdict(fn, *args):
    """fn's value, or the type and text of the error it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None, database=None)
@given(_algebras_and_cochains(), st.data())
def test_the_index_reads_match_the_name_keyed_bialgebra_loops(drawn, data):
    A = drawn[0]
    basis, s = A.basis, param("s")
    parity = data.draw(st.sampled_from(sorted(set(basis.parities))))
    x = Element(basis, {name: data.draw(st.integers(-2, 2)) + s
                        for name in basis.names if basis.parity(name) == parity
                        and data.draw(st.booleans())})
    for rank in (2, 3):
        t = _tensor(data.draw, basis, rank)
        _same_tensor(ad_action(A, x, t), _ref_ad_action(A, x, t))
    r = _tensor(data.draw, basis, 2, even=True)
    _same_tensor(schouten(A, r), _ref_schouten(A, r))
    # The refusals read alike: a mixed-parity x, an odd term, a rank-3 r.
    mixed = Element(basis, {name: 1 for name in basis.names})
    odd_r = Tensor(basis, 2, {(basis.names[0], name): 1
                              for name in basis.names})
    for fn, ref, args in ((ad_action, _ref_ad_action, (A, mixed, t)),
                          (schouten, _ref_schouten, (A, odd_r)),
                          (schouten, _ref_schouten, (A, t))):
        ours, theirs = _verdict(fn, *args), _verdict(ref, *args)
        if isinstance(theirs, Tensor):
            _same_tensor(ours, theirs)
        else:
            assert ours == theirs
