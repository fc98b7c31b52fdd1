"""Exact linear algebra over the field of rational functions in parameters.

Supports the cohomology solver: reduced row echelon form with deterministic
pivot selection, linear solving with a canonical representative (free
variables set to zero) and its rank pair (rank, augmented rank), and a
genericity cross-check that re-computes a symbolic rank at random rational
parameter points.  Nothing else checks a rank: the pair is what the
elimination found, and the random-point re-check is its only guard.

Rank decisions over a function field are generic-parameter statements: a
pivot that is a nonconstant polynomial is only nonzero away from its zero
set.  Every such pivot is recorded as an assumption and surfaced to callers.

Matrices are passed as dense lists of rows whose entries are ``Poly``,
``RatFunc`` or falsy.  The cohomology matrices are mostly zero, so
elimination works on sparse rows: each row is built once as a
{column: nonzero value} dict, only nonzero cells are converted or
evaluated, a cell that cancels is dropped, and the pivot row is scaled and
subtracted over its stored columns only.  Reduced rows and solutions are
returned in that sparse form, with no zero stored.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Sequence

from .record import Record
from .scalars import Poly, RatFunc, as_poly

__all__ = [
    "as_ratfunc",
    "distinct_up_to_scale",
    "RrefResult",
    "rref",
    "LinearSolveResult",
    "solve_linear",
    "rank_at_point",
    "sample_points",
    "verify_rank_generically",
    "GenericityError",
]


class GenericityError(RuntimeError):
    """A symbolic rank decision disagreed with random-point evaluation."""


def as_ratfunc(value) -> RatFunc:
    if isinstance(value, RatFunc):
        return value
    return RatFunc(as_poly(value))


def distinct_up_to_scale(polys: Iterable[Poly]) -> list[Poly]:
    """The first of each class of nonzero polynomials equal up to a nonzero
    constant factor, in order: p and -2*p assume the same thing nonzero."""
    kept: dict[Poly, Poly] = {}
    for poly in polys:
        kept.setdefault(poly * (1 / poly.leading_coefficient()), poly)
    return list(kept.values())


def _pivot_complexity(entry: RatFunc) -> tuple[int, int]:
    return (len(entry.num), len(entry.den))


def _sparse_rows(matrix: Sequence[Sequence], convert) -> list[dict]:
    """Each row of a dense matrix as {column: convert(entry)}, keeping only
    the entries that are nonzero both before and after conversion."""
    rows = []
    for row in matrix:
        sparse = {}
        for k, entry in enumerate(row):
            if entry:
                value = convert(entry)
                if value:
                    sparse[k] = value
        rows.append(sparse)
    return rows


def _gauss_jordan(rows: list[dict], ncols: int,
                  pivot_key) -> list[tuple[int, object]]:
    """Reduce sparse rows in place to reduced row echelon form.

    Each row is a {column: nonzero value} dict; a cell that becomes zero
    is removed, so no zero is ever read.  In each column the pivot is the
    first candidate row (from the current one down) with an entry of least
    ``pivot_key(entry)``; it is swapped into place.  Returns (column, pivot
    value before scaling) for every pivot, in order.

    Every entry left of the pivot in its row is zero, so the pivot row is
    scaled, and the others eliminated, over its stored columns only.
    """
    nrows = len(rows)
    pivots: list[tuple[int, object]] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        candidates = [i for i in range(r, nrows) if c in rows[i]]
        if not candidates:
            continue
        best = min(candidates, key=lambda i: pivot_key(rows[i][c]))
        rows[r], rows[best] = rows[best], rows[r]
        row = rows[r]
        pivot = row[c]
        for k, value in row.items():
            row[k] = value / pivot
        for i, other in enumerate(rows):
            factor = other.get(c)
            if factor is None or i == r:
                continue
            for k, value in row.items():
                product = factor * value
                cell = other.get(k)
                if cell is None:
                    other[k] = -product
                else:
                    cell = cell - product
                    if cell:
                        other[k] = cell
                    else:
                        del other[k]
        pivots.append((c, pivot))
        r += 1
    return pivots


class RrefResult(Record):
    rows: tuple[dict[int, RatFunc], ...]  # {column: nonzero value}; {} if emptied
    pivot_cols: tuple[int, ...]
    assumptions: tuple[Poly, ...]

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)


def rref(matrix: Sequence[Sequence]) -> RrefResult:
    """Reduced row echelon form with deterministic pivoting.

    Pivot choice: among candidate rows, the entry with the fewest numerator
    terms (then fewest denominator terms, then lowest row index).  Pivots
    whose numerator is a nonconstant polynomial are recorded as nonvanishing
    assumptions, one per class up to a constant factor.  The matrix comes
    in dense; elimination works on sparse rows of ``RatFunc``, into which
    only the nonzero cells convert, and the result keeps those rows.
    """
    ncols = len(matrix[0]) if matrix else 0
    rows = _sparse_rows(matrix, as_ratfunc)
    pivots = _gauss_jordan(rows, ncols, _pivot_complexity)
    assumptions = distinct_up_to_scale(p.num for _, p in pivots
                                       if not p.num.is_constant())
    return RrefResult(tuple(rows), tuple(c for c, _ in pivots),
                      tuple(assumptions))


class LinearSolveResult(Record):
    status: str  # "solved" | "inconsistent"
    solution: dict[int, RatFunc] | None  # {column: nonzero value}
    rank: int
    rank_augmented: int
    assumptions: tuple[Poly, ...]


def solve_linear(matrix: Sequence[Sequence], rhs: Sequence) -> LinearSolveResult:
    """Solve A x = b exactly; canonical solution sets free variables to zero,
    so it holds each pivot row's right-hand value where that is nonzero."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    if not nrows:
        return LinearSolveResult("solved", {}, 0, 0, tuple())
    result = rref(aug)
    rank_aug = result.rank
    rank = sum(1 for c in result.pivot_cols if c < ncols)
    if rank_aug > rank:
        return LinearSolveResult("inconsistent", None, rank, rank_aug,
                                 result.assumptions)
    solution = {col: row[ncols]
                for row, col in zip(result.rows, result.pivot_cols)
                if ncols in row}
    return LinearSolveResult("solved", solution, rank, rank_aug,
                             result.assumptions)


def rank_at_point(matrix: Sequence[Sequence], point: dict[str, Fraction],
                  rhs: Sequence | None = None) -> int | tuple[int, int]:
    """Rank after substituting exact rationals for every parameter.

    Given a right-hand side b, the pair (rank of M, rank of M|b) from one
    elimination of M|b: columns are reduced left to right, so M's pivots
    are those of M|b left of its last column.

    The matrix comes in dense; elimination works on sparse rows of
    ``Fraction``, which keep no cell that vanishes at the point."""
    ncols = len(matrix[0]) if matrix else 0
    if rhs is not None:
        matrix = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    rows = _sparse_rows(matrix, lambda entry: _value_at(entry, point))
    # The first nonzero entry is the pivot: every one costs the same.
    pivots = _gauss_jordan(rows, ncols + (rhs is not None), lambda entry: 0)
    if rhs is None:
        return len(pivots)
    return sum(1 for c, _ in pivots if c < ncols), len(pivots)


def _value_at(entry, point: dict[str, Fraction]) -> Fraction:
    if isinstance(entry, Poly):
        poly = entry.substitute(point)
    else:
        poly = as_ratfunc(entry).substitute(point).as_poly()
    if poly is None or not poly.is_constant():
        raise ValueError("point does not evaluate all parameters")
    return poly.as_fraction()


# The genericity check samples SAMPLE_COUNT points from a fixed seed, so a
# verdict never depends on the run, giving up after SAMPLE_TRIES draws.
SAMPLE_COUNT = 2
SAMPLE_SEED = 20240801
SAMPLE_TRIES = 64


def sample_points(params: Sequence[str],
                  avoid: Sequence[Poly]) -> list[dict[str, Fraction]]:
    """Random rational points where none of the ``avoid`` polynomials vanish."""
    rng = random.Random(SAMPLE_SEED)
    params = sorted(params)
    points: list[dict[str, Fraction]] = []
    for _ in range(SAMPLE_TRIES):
        if len(points) >= SAMPLE_COUNT:
            break
        point = {p: Fraction(rng.randint(1, 97), rng.randint(1, 13))
                 for p in params}
        if all(bool(poly.substitute(point)) for poly in avoid):
            points.append(point)
    if len(points) < SAMPLE_COUNT:
        raise GenericityError("could not sample points avoiding assumptions")
    return points


def verify_rank_generically(matrix: Sequence[Sequence], expected_rank: int,
                            assumptions: Sequence[Poly]) -> None:
    """Re-check a symbolic rank at random rational points.

    At a point avoiding the recorded assumptions and denominators the rank
    can only drop on a further measure-zero set, so requiring the symbolic
    rank to be reproduced at two independent random points is a strong guard
    against pivoting mistakes.
    """
    params: set[str] = set()
    avoid: list[Poly] = list(assumptions)
    for row in matrix:
        for e in row:
            if e:
                params |= e.parameters()
                if isinstance(e, RatFunc) and not e.den.is_constant():
                    avoid.append(e.den)
    if not params:
        return  # constant matrix: the symbolic computation was already exact
    for point in sample_points(sorted(params), avoid):
        if rank_at_point(matrix, point) != expected_rank:
            raise GenericityError(
                f"symbolic rank {expected_rank} not reproduced at {point}")
