"""Exact elimination: rref, solve_linear and rank_at_point on sparse input.

Elimination works on sparse rows and never reads a zero cell.  The oracles
are the dense loop it replaced, which scales and eliminates every cell,
copied here, and sympy's reduced row echelon form and rank over the same
field.
"""

from __future__ import annotations

from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from lieworkbench import linsolve
from lieworkbench.linsolve import (
    RrefResult,
    as_ratfunc,
    distinct_up_to_scale,
    rank_at_point,
    rref,
    solve_linear,
)
from lieworkbench.scalars import Poly, RatFunc, param

# -- the dense oracle ----------------------------------------------------------------


def _dense_gauss_jordan(m, pivot_key):
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        candidates = [i for i in range(r, nrows) if m[i][c]]
        if not candidates:
            continue
        best = min(candidates, key=lambda i: pivot_key(m[i][c]))
        m[r], m[best] = m[best], m[r]
        pivot = m[r][c]
        m[r] = [e / pivot for e in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append((c, pivot))
        r += 1
    return pivots


def _dense_rref(matrix):
    m = [[as_ratfunc(e) for e in row] for row in matrix]
    pivots = _dense_gauss_jordan(
        m, lambda entry: (len(entry.num), len(entry.den)))
    assumptions = distinct_up_to_scale(p.num for _, p in pivots
                                       if not p.num.is_constant())
    return RrefResult(tuple({k: e for k, e in enumerate(row) if e}
                            for row in m),
                      tuple(c for c, _ in pivots), tuple(assumptions))


# -- sympy ---------------------------------------------------------------------------


def _sympy_poly(poly: Poly, symbols):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(symbols[name] ** e for name, e in mono))
                for mono, c in poly.items()), sympy.Integer(0))


def _sympy_value(entry, symbols):
    entry = as_ratfunc(entry)
    return _sympy_poly(entry.num, symbols) / _sympy_poly(entry.den, symbols)


def _domain_matrix(matrix, params):
    """The matrix over Q, or over the field of fractions of Q[params]."""
    symbols = {name: sympy.Symbol(name) for name in params}
    rows = [[_sympy_value(e, symbols) for e in row] for row in matrix]
    domain = (sympy.QQ.frac_field(*symbols.values()) if symbols
              else sympy.QQ)
    return DomainMatrix.from_list_sympy(len(rows), len(rows[0]),
                                        rows).convert_to(domain)


# -- random sparse matrices -------------------------------------------------------------

PARAMETERS = {"Q": (), "Q[t]": ("t",), "Q[t,u]": ("t", "u")}


@st.composite
def _entries(draw, params):
    """A nonzero polynomial of low degree with small integer coefficients."""
    monomials = [Poly.one()] + [param(p) for p in params]
    if len(params) == 2:
        monomials.append(param(params[0]) * param(params[1]))
    while True:
        value = sum((m * draw(st.integers(-3, 3)) for m in monomials),
                    Poly.zero())
        if value:
            return value


@st.composite
def _sparse_matrices(draw):
    """(params, matrix, rhs): up to 8 x 10, at most 30% of cells nonzero,
    zeros given as any falsy scalar."""
    params = PARAMETERS[draw(st.sampled_from(sorted(PARAMETERS)))]
    nrows, ncols = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    cells = [(i, j) for i in range(nrows) for j in range(ncols)]
    nonzero = draw(st.sets(st.sampled_from(cells),
                           max_size=(3 * len(cells)) // 10))
    zeros = st.sampled_from((0, Poly.zero(), RatFunc(Poly.zero())))
    matrix = [[draw(_entries(params)) if (i, j) in nonzero else draw(zeros)
               for j in range(ncols)] for i in range(nrows)]
    vector = [draw(st.one_of(zeros, _entries(params))) for _ in range(nrows)]
    return params, matrix, vector


def _cells(rows):
    """Every cell as its stored (numerator, denominator)."""
    return [[(e.num, e.den) for e in row] for row in rows]


ZERO = RatFunc(Poly.zero())


def _densified(rows, ncols, zero=ZERO):
    return [[row.get(k, zero) for k in range(ncols)] for row in rows]


def _stored(sparse):
    """A sparse row as {column: (numerator, denominator)}."""
    return {k: (e.num, e.den) for k, e in sparse.items()}


@settings(max_examples=100, deadline=None, database=None)
@given(_sparse_matrices())
def test_rref_matches_the_dense_loop_and_sympy(drawn):
    params, matrix, _ = drawn
    ncols = len(matrix[0])
    result, dense = rref(matrix), _dense_rref(matrix)
    rows = _densified(result.rows, ncols)
    assert all(value for row in result.rows for value in row.values())
    assert _cells(rows) == _cells(_densified(dense.rows, ncols))
    assert result.pivot_cols == dense.pivot_cols
    assert ([str(p) for p in result.assumptions]
            == [str(p) for p in dense.assumptions])
    ours = _domain_matrix(rows, params)
    theirs, pivots = _domain_matrix(matrix, params).rref()
    assert result.pivot_cols == tuple(pivots)
    assert ours == theirs


@settings(max_examples=150, deadline=None, database=None)
@given(_sparse_matrices())
def test_solve_linear_matches_the_dense_loop(drawn):
    _, matrix, rhs = drawn
    outcome = solve_linear(matrix, rhs)
    with mock.patch.object(linsolve, "rref", _dense_rref):
        dense = solve_linear(matrix, rhs)
    assert ((outcome.status, outcome.rank, outcome.rank_augmented)
            == (dense.status, dense.rank, dense.rank_augmented))
    assert ([str(p) for p in outcome.assumptions]
            == [str(p) for p in dense.assumptions])
    if outcome.status == "inconsistent":
        assert outcome.solution is dense.solution is None
        return
    assert all(outcome.solution.values())
    assert _stored(outcome.solution) == _stored(dense.solution)
    x = _densified([outcome.solution], len(matrix[0]))[0]
    for row, b in zip(matrix, rhs):
        assert sum((as_ratfunc(a) * value for a, value in zip(row, x)),
                   ZERO) == as_ratfunc(b)


@settings(max_examples=150, deadline=None, database=None)
@given(_sparse_matrices(),
       st.tuples(st.fractions(-5, 5, max_denominator=4),
                 st.fractions(-5, 5, max_denominator=4)))
def test_rank_at_point_matches_sympy(drawn, values):
    params, matrix, _ = drawn
    point = dict(zip(params, values))
    at_point = [[as_ratfunc(e).substitute(point).num for e in row]
                for row in matrix]
    assert rank_at_point(matrix, point) == _domain_matrix(at_point, ()).rank()


def test_rank_at_point_needs_every_parameter():
    with pytest.raises(ValueError, match="does not evaluate"):
        rank_at_point([[param("t"), Poly.zero()]], {"u": Fraction(1)})


# -- edges of the sparse loop -----------------------------------------------------------


@pytest.mark.parametrize("pivot_key", [
    lambda entry: (len(entry.num), len(entry.den)),
    lambda entry: 0,
], ids=["rref", "rank_at_point"])
def test_equal_pivot_keys_swap_rows_as_the_dense_loop_does(pivot_key):
    # Columns 0 and 1 each offer several candidates of one key, and the
    # first from the current row down is the pivot.  Swapping rows 0 and 2
    # puts row 1 before row 0, so column 1 pivots on 2; moving row 2 up
    # instead would pivot on 1.
    t = param("t")
    matrix = [[0, 1, 2, t],
              [0, 2, 1, t + 1],
              [3, 1, 0, t - 2],
              [5, 0, 1, 1],
              [t + 1, t - 1, 0, 1]]
    ncols = len(matrix[0])
    rows = linsolve._sparse_rows(matrix, as_ratfunc)
    dense = [[as_ratfunc(e) for e in row] for row in matrix]
    pivots = linsolve._gauss_jordan(rows, ncols, pivot_key)
    dense_pivots = _dense_gauss_jordan(dense, pivot_key)
    assert ([(c, p.num, p.den) for c, p in pivots]
            == [(c, p.num, p.den) for c, p in dense_pivots])
    assert _cells(_densified(rows, ncols)) == _cells(dense)


def test_a_cell_that_vanishes_at_the_point_is_not_a_pivot():
    t = param("t")
    assert rank_at_point([[t - 1, 0], [0, t]], {"t": Fraction(1)}) == 1
    assert rank_at_point([[t - 1, t], [t - 1, 2 * t]],
                         {"t": Fraction(1)}) == 1


def test_rows_that_end_empty_are_empty_and_no_zero_is_stored():
    result = rref([[1, 2, 0], [2, 4, 0], [0, 0, 0]])
    assert result.pivot_cols == (0,)
    assert _stored(result.rows[0]) == {0: (Poly.one(), Poly.one()),
                                       1: (Poly.one() * 2, Poly.one())}
    assert result.rows[1:] == ({}, {})
    assert rref([[0, 0]]).rows == ({},)
    # x = (2, 0): the second coordinate cancels and is not stored.
    outcome = solve_linear([[1, 1], [1, -1]], [2, 2])
    assert _stored(outcome.solution) == {0: (Poly.one() * 2, Poly.one())}
