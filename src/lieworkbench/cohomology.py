"""Chevalley-Eilenberg cohomology in low degree, with a coboundary solver.

Cochains take values in the adjoint module.  A k-cochain is a
graded-alternating map g^k -> g, stored in the bracket's own
``liealg.CochainTable``, so a bracket is a 2-cochain as it stands; the d2
residual lives beside it, in ``liealg``.  d2 of one bracket over another
is their mixed jacobiator: two brackets are compatible exactly when each
is a 2-cocycle of the other.  The differentials carry Koszul signs for
both the argument parities and the parity of the cochain itself; in the
purely even case they reduce to the classical formulas.  Those signs live
in one place, ``liealg.ce_terms``: d1, d2 and their matrices all sum the
terms ``liealg.ce_walk`` yields from it.

Cochain values are sparse vectors over the basis whose scalars may be
polynomials or rational functions in the parameters: the coboundary solver
works over the parameter function field, and its rank decisions record
which polynomials were assumed nonzero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .liealg import (CochainTable, Element, GradedBasis, LieSuperAlgebra,
                     accumulate, args_label, canonical_tuples, ce_residual,
                     ce_walk, cocycle2_witness, d2_residual, orient,
                     render_sum)
from .linsolve import (
    RatFunc,
    distinct_up_to_scale,
    rank_at_point,
    rref,
    solve_linear,
    verify_rank_generically,
)
from .record import Record
from .scalars import Poly, as_poly, param, poly_divmod, scalar_str

__all__ = [
    "Cochain",
    "Cochain1",
    "Cochain2",
    "d1",
    "d2_residual",
    "is_cocycle2",
    "cocycle2_witness",
    "mixed_jacobiator",
    "compatible_pair",
    "solve_coboundary",
    "CoboundaryOutcome",
    "h2_dim",
    "CohomologyReport",
    "Cochain2Comparison",
    "compare_cochain2",
]

# A sparse vector over basis labels; scalars are Poly or RatFunc.
Vector = dict


def _vec_str(vec: Vector, basis: GradedBasis) -> str:
    """The vector as a signed sum in basis order; besides the rules of
    ``render_sum``, a bare quotient is parenthesised: ``(1/2)*x``."""
    def coefficient(text: str) -> str:
        return f"({text})" if "/" in text and " " not in text else text
    return render_sum((coefficient(scalar_str(vec[name])), name)
                      for name in basis.names if name in vec)


class Cochain(CochainTable):
    """A k-cochain of any degree: false when zero, and printed one line per
    canonical argument tuple."""

    __slots__ = ()

    def __bool__(self):
        return bool(self.table)

    def table_lines(self) -> list[str]:
        names = self.basis.names
        return [f"{args_label([names[i] for i in key])} -> "
                f"{_vec_str(self.table.get(key, {}), self.basis)}"
                for key in canonical_tuples(self.basis, self.degree)]

    def __repr__(self):
        body = "; ".join(line for line in self.table_lines() if not line.endswith(" 0"))
        return f"{type(self).__name__}({body or '0'})"


class Cochain1(Cochain):
    """A parity-homogeneous linear map g -> g given on basis elements."""

    __slots__ = ()

    def __init__(self, basis: GradedBasis,
                 values: Mapping[str, Mapping | Element] | None = None,
                 parity: int = 0):
        super().__init__(basis, {(n,): v for n, v in (values or {}).items()},
                         parity, degree=1)


# A 2-cochain is a Cochain of the default degree.  The functions here take
# any 2-cochain, a Lie algebra's own bracket included.
Cochain2 = Cochain


def d1(A: LieSuperAlgebra, psi: CochainTable) -> Cochain:
    """The CE differential of a k-cochain with adjoint coefficients: the
    (k+1)-cochain read at each canonical tuple by
    :func:`liealg.ce_residual`."""
    basis = A.basis
    if basis != psi.basis:
        raise ValueError("cochain is not over the algebra's basis")
    degree = psi.degree + 1
    tuples = [tuple(basis.names[i] for i in key)
              for key in canonical_tuples(basis, degree)]
    return Cochain(basis, {args: ce_residual(A, psi, args) for args in tuples},
                   parity=psi.parity, degree=degree)


def is_cocycle2(A: LieSuperAlgebra, phi: CochainTable) -> bool:
    """True iff d2(phi) vanishes on every basis triple."""
    return cocycle2_witness(A, phi) is None


def mixed_jacobiator(mu1: LieSuperAlgebra, mu2: LieSuperAlgebra,
                     x: str, y: str, z: str) -> Element:
    """The cross term of the jacobiator of the pencil mu1 + t*mu2.

    Vanishing for all triples is exactly the condition for mu1 + t*mu2 to
    satisfy Jacobi identically in t (given that mu1 and mu2 each do).  The
    cross term is the Nijenhuis-Richardson bracket [mu1, mu2] = d_{mu1} mu2
    (Gerstenhaber 1964; Nijenhuis and Richardson 1967): the d2 residual of
    mu2, a parity-0 2-cochain, over mu1.  So "mu2 is compatible with mu1"
    and "mu2 is a 2-cocycle of mu1" are one condition.
    """
    if mu1.basis != mu2.basis:
        raise ValueError("mixed jacobiator requires a shared basis")
    return Element(mu1.basis, d2_residual(mu1, mu2, x, y, z))


def compatible_pair(mu1: LieSuperAlgebra, mu2: LieSuperAlgebra) -> bool:
    """True iff the mixed jacobiator vanishes on every canonical triple."""
    names = mu1.basis.names
    return all(not mixed_jacobiator(mu1, mu2, names[i], names[j], names[k])
               for i, j, k in canonical_tuples(mu1.basis, 3))


class CoboundaryOutcome(Record):
    """Result of solving d1(psi) = phi.

    statuses: "solved" (psi returned), "inconsistent" (no solution over the
    function field; generic rank certificate), "obstructed" (solutions exist
    over the function field but every one inverts a polynomial that was not
    assumed nonzero, and a parameter point witnesses the rank gap), and
    "not-cocycle" (phi fails d2; witness holds the failing triple, found
    as :func:`solve_coboundary` describes).  For "obstructed" the rank pair
    is the specialized one at the witness point.
    """

    status: str  # "solved" | "inconsistent" | "obstructed" | "not-cocycle"
    psi: Cochain1 | None
    rank: int
    rank_augmented: int
    assumptions: tuple[str, ...]
    witness: tuple | None = None  # failing triple when status = "not-cocycle"
    obstruction: str | None = None  # description when status = "obstructed"

    @property
    def found(self) -> bool:
        return self.status == "solved"


def _coords(basis: GradedBasis, degree: int, parity: int | None = None
            ) -> list[tuple[int, ...]]:
    """The coordinates (args..., t) of k-cochains: args over
    ``canonical_tuples(basis, k)`` and every target t; with a parity p,
    only the targets of parity |args| + p, those of a parity-p cochain."""
    odd = basis.parities
    return [(*args, t) for args in canonical_tuples(basis, degree)
            for t in range(len(basis))
            if parity is None
            or (sum(odd[a] for a in args) + parity) % 2 == odd[t]]


def _ce_matrix(A: LieSuperAlgebra, parity: int, rows, cols) -> list[list]:
    """The matrix of the CE differential on parity-p k-cochains, summed
    from ``liealg.ce_walk`` on unit cochains.

    Column c is the unit cochain of ``cols[c]`` = (args..., t): e_t at the
    canonical argument indices args, read at any ordering through
    ``orient``.  Row r is the coefficient of e_t in the image at the
    arguments args, for ``rows[r]`` = (args..., t).
    """
    row_of = {coord: r for r, coord in enumerate(rows)}
    units: dict[tuple, list[tuple[int, int]]] = {}
    for c, (*args, t) in enumerate(cols):
        units.setdefault(tuple(args), []).append((t, c))

    def read(key):
        """Whether the unit cochains at key are negated, and their (target,
        column) pairs; an even repeat reads at the empty key, with none."""
        canonical, negate = orient(A.basis, key) or ((), False)
        return negate, units.get(canonical, ())

    cells: dict[tuple[int, int], Poly] = {}
    for args in dict.fromkeys(coord[:-1] for coord in rows):
        for t, c, col, sign in ce_walk(A, parity, args, read):
            r = row_of.get((*args, t))
            if r is not None:
                accumulate(cells, (r, col), c, sign)
    zero = Poly.zero()
    matrix = [[zero] * len(cols) for _ in rows]
    for (r, c), value in cells.items():
        matrix[r][c] = value
    return matrix


def _as_assumed_polys(assume_nonzero) -> list[Poly]:
    polys = []
    for entry in assume_nonzero:
        poly = param(entry) if isinstance(entry, str) else as_poly(entry)
        if not poly:
            raise ValueError("cannot assume the zero polynomial nonzero")
        if not poly.is_constant():
            polys.append(poly)
    return polys


def _divides_out(den: Poly, assumed: list[Poly]) -> bool:
    """True iff den is a nonzero constant times a product of assumed factors."""
    current = den
    while not current.is_constant():
        for factor in assumed:
            quotient, remainder = poly_divmod(current, factor)
            if not remainder:
                current = quotient
                break
        else:
            return False
    return True


def _solution_denominators(solution: dict[int, RatFunc]) -> list[Poly]:
    dens: dict[str, Poly] = {}
    for value in solution.values():
        if not value.den.is_constant():
            dens.setdefault(str(value.den), value.den)
    return [dens[key] for key in sorted(dens)]


_ROOT_COEFF_BOUND = 10**6  # see _rational_roots


def _divisors(n: int) -> list[int]:
    """The positive divisors of n > 0 (a square root's twice)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small]


def _rational_roots(poly: Poly, var: str) -> list[Fraction]:
    """The rational roots of poly in var, ascending, if var is its only
    variable (rational-root theorem).

    With the denominators cleared and the power of var that divides poly
    taken out, a nonzero root p/q in lowest terms has p dividing the
    constant coefficient and q the leading one.  If either of those
    integers exceeds ``_ROOT_COEFF_BOUND`` in absolute value, no root is
    returned.
    """
    if poly.parameters() != {var}:
        return []
    degrees = {dict(mono).get(var, 0): c for mono, c in poly.items()}
    scale = math.lcm(*(c.denominator for c in degrees.values()))
    low, n = min(degrees), max(degrees) - min(degrees)
    ints = {k - low: int(c * scale) for k, c in degrees.items()}
    if max(abs(ints[n]), abs(ints[0])) > _ROOT_COEFF_BOUND:
        return []
    # By Gauss's lemma q*x - p divides the integer polynomial f, so q - p
    # divides f(1) and q + p divides f(-1): a cheap filter before the
    # exact test q^n f(p/q) = 0.
    at_one = sum(ints.values())
    at_minus_one = sum(c * (-1) ** k for k, c in ints.items())
    roots = {Fraction(0)} if low else set()
    for q in _divisors(abs(ints[n])):
        for d in _divisors(abs(ints[0])):
            for p in (d, -d):
                if (math.gcd(p, q) == 1
                        and (q == p or at_one % (q - p) == 0)
                        and (q == -p or at_minus_one % (q + p) == 0)
                        and not sum(c * p ** k * q ** (n - k)
                                    for k, c in ints.items())):
                    roots.add(Fraction(p, q))
    return sorted(roots)


def _obstruction_point(matrix, rhs, dens, assumed):
    """A rational point where rank(M) < rank(M|b), or None.

    Such a point proves that no solution avoiding the listed denominators
    exists: a solution regular at the point would specialize to a solution
    of the specialized system.  Points are searched on the vanishing locus
    of each denominator, keeping the assumed-nonzero polynomials nonzero:
    first each variable of a denominator at 0 and the others at small
    fillers, then, with the others at a filler, each variable at the
    denominator's rational roots in it, ascending (:func:`_rational_roots`).
    The search is not complete: a rank gap elsewhere on the zero locus is
    missed, and so is a root that is irrational or that a leading or
    constant coefficient above ``_ROOT_COEFF_BOUND`` hides.
    """
    scalars = [e for row in matrix for e in row if e] + list(rhs) + dens + assumed
    names = sorted(set().union(*(e.parameters() for e in scalars)))
    tried = set()
    for at_root in (False, True):
        for den in dens:
            for var in sorted(den.parameters()):
                for filler in (1, 2, 3, 5, 7, 11):
                    others = {n: Fraction(filler) for n in names if n != var}
                    values = (_rational_roots(den.substitute(others), var)
                              if at_root else [Fraction(0)])
                    for value in values:
                        point = {**others, var: value}
                        if den.substitute(point):
                            continue  # not on this denominator's zero locus
                        if any(not a.substitute(point) for a in assumed):
                            continue
                        key = tuple(sorted(point.items()))
                        if key in tried:
                            continue  # the ranks depend on the point alone
                        tried.add(key)
                        try:
                            rank, rank_aug = rank_at_point(matrix, point, rhs)
                        except (ValueError, ZeroDivisionError):
                            continue
                        if rank < rank_aug:
                            return point, rank, rank_aug
    return None


def _not_cocycle(A: LieSuperAlgebra,
                 phi: CochainTable) -> CoboundaryOutcome | None:
    """The "not-cocycle" outcome at the first triple where d2(phi) fails,
    or None if phi is closed."""
    witness = cocycle2_witness(A, phi)
    if witness is None:
        return None
    return CoboundaryOutcome("not-cocycle", None, 0, 0, tuple(), witness[0])


def solve_coboundary(A: LieSuperAlgebra, phi: CochainTable,
                     assume_nonzero=()) -> CoboundaryOutcome:
    """Find psi with d1(psi) = phi, or certify that none exists.

    The linear solve runs over the field of rational functions in the
    declared parameters, with one restriction: a solution may only divide
    by polynomials the caller has explicitly assumed nonzero
    (``assume_nonzero``: parameter names or polynomials).  When every
    solution requires inverting an unsanctioned polynomial, the solver
    looks for a parameter point on that polynomial's zero locus where the
    system has a rank gap; such a point certifies that no solution regular
    there exists, and the outcome is "obstructed" with the specialized
    rank pair.  If no certificate is found (for instance, a polynomial
    solution exists along another choice of free coordinates) the
    rational-function solution is returned with its denominators recorded
    in the assumptions.

    The canonical solution sets free coordinates to zero; unknowns are
    ordered by (source basis index, target basis index).  A triple where
    d2(phi) fails is the "not-cocycle" witness.  Over a bracket that
    satisfies Jacobi, d2 of d1 vanishes, so a system consistent over the
    function field already proves phi closed: the system is eliminated
    first, and only an inconsistent one is scanned for a witness.  Over a
    bracket that fails Jacobi, d2 of d1 need not vanish, so phi is scanned
    before the elimination.  An inconsistent system without a witness
    yields the generic rank certificate (rank, rank_augmented), re-verified
    at random rational parameter points (``verify_rank_generically``).  A
    "solved" verdict is checked exactly, by d1(psi) = phi; an "obstructed"
    rank pair is exact at its rational point.  Every solve checks Jacobi
    on A once, and a phi that is not closed over a Lie bracket pays one
    elimination before its witness scan.
    """
    basis = A.basis
    if basis != phi.basis:
        raise ValueError("cochain is not over the algebra's basis")
    lie = A.verify_jacobi().ok
    if not lie:
        not_closed = _not_cocycle(A, phi)
        if not_closed is not None:
            return not_closed
    parity = phi.parity
    slots = _coords(basis, 1, parity)
    coords = _coords(basis, 2)
    matrix = _ce_matrix(A, parity, coords, slots)
    rhs = [phi.table.get((i, j), {}).get(basis.names[t], Poly.zero())
           for (i, j, t) in coords]
    outcome = solve_linear(matrix, rhs)
    assumptions = tuple(str(p) for p in outcome.assumptions)
    if outcome.status == "inconsistent":
        not_closed = _not_cocycle(A, phi) if lie else None
        if not_closed is not None:
            return not_closed
        verify_rank_generically(matrix, outcome.rank, outcome.assumptions)
        aug = [row + [rhs[i]] for i, row in enumerate(matrix)]
        verify_rank_generically(aug, outcome.rank_augmented,
                                outcome.assumptions)
        return CoboundaryOutcome("inconsistent", None, outcome.rank,
                                 outcome.rank_augmented, assumptions)
    assumed = _as_assumed_polys(assume_nonzero)
    dens = _solution_denominators(outcome.solution)
    unsanctioned = [d for d in dens if not _divides_out(d, assumed)]
    if unsanctioned:
        certificate = _obstruction_point(matrix, rhs, unsanctioned, assumed)
        if certificate is not None:
            point, rank, rank_aug = certificate
            where = ", ".join(f"{n} = {v}" for n, v in sorted(point.items()))
            description = (
                "every solution inverts "
                + ", ".join(str(d) for d in unsanctioned)
                + f"; at {where} the system has rank {rank} but augmented "
                  f"rank {rank_aug}, so no solution regular there exists")
            return CoboundaryOutcome("obstructed", None, rank, rank_aug,
                                     assumptions, obstruction=description)
    values: dict[str, Vector] = {}
    for column, coeff in outcome.solution.items():
        j, k = slots[column]
        # A unit denominator is stored as its Poly, which prints the same
        # and keeps the d1 check below in Poly arithmetic.
        poly = coeff.as_poly()
        values.setdefault(basis.names[j], {})[basis.names[k]] = (
            coeff if poly is None else poly)
    psi = Cochain1(basis, values, parity=parity)
    if d1(A, psi) != phi:
        raise AssertionError("solver produced a non-solution")  # pragma: no cover
    solved_assumptions = tuple(str(p) for p in distinct_up_to_scale(
        list(outcome.assumptions) + dens))
    return CoboundaryOutcome("solved", psi, outcome.rank,
                             outcome.rank_augmented, solved_assumptions)


class CohomologyReport(Record):
    kernel_dim: int
    image_dim: int
    quotient_dim: int
    parameter_assumptions: tuple[str, ...]

    def __post_init__(self):
        if self.quotient_dim != self.kernel_dim - self.image_dim:
            raise ValueError("inconsistent cohomology dimensions")
        if self.quotient_dim < 0:
            raise ValueError("negative cohomology dimension")


# The largest dimension h2_dim accepts: its exact elimination over the
# function field, of a d2 matrix with about dim^4 / 2 cells, grows too
# fast beyond it.
H2_MAX_DIM = 12


def h2_dim(A: LieSuperAlgebra) -> CohomologyReport:
    """Dimensions of Z^2, B^2 and H^2 with adjoint coefficients.

    Both cochain parities contribute; dimensions are generic in the declared
    parameters, with the recorded nonvanishing assumptions.  The d1 and d2
    matrices are assembled from the bracket table, and elimination works on
    their nonzero cells only.  Guarded to algebras of dimension at most
    ``H2_MAX_DIM`` (exact linear algebra over the function field), and to
    brackets that satisfy Jacobi, checked before any matrix is built: over
    a bracket that fails it the CE complex is not a complex, so a
    ``ValueError`` names the first failing triple instead.
    """
    basis = A.basis
    if A.dim > H2_MAX_DIM:
        raise ValueError(f"h2_dim guard: dim {A.dim} exceeds {H2_MAX_DIM}")
    jacobi = A.verify_jacobi()
    if not jacobi.ok:
        raise ValueError(f"h2_dim needs a Lie bracket; {A.name!r} is not one: "
                         f"{jacobi}")
    kernel_dim = 0
    image_dim = 0
    assumptions: list[Poly] = []

    triple_coords = _coords(basis, 3)
    for parity in (0, 1):
        pair_coords = _coords(basis, 2, parity)
        d1_matrix = _ce_matrix(A, parity, pair_coords,
                               _coords(basis, 1, parity))
        if d1_matrix and d1_matrix[0]:
            res = verify_and_rank(d1_matrix)
            image_dim += res.rank
            assumptions.extend(res.assumptions)
        if pair_coords:
            res = verify_and_rank(_ce_matrix(A, parity, triple_coords,
                                             pair_coords))
            kernel_dim += len(pair_coords) - res.rank
            assumptions.extend(res.assumptions)

    unique = tuple(str(p) for p in distinct_up_to_scale(assumptions))
    return CohomologyReport(kernel_dim, image_dim, kernel_dim - image_dim,
                            unique)


def verify_and_rank(matrix):
    """Symbolic rank with the random-point genericity cross-check."""
    res = rref(matrix)
    verify_rank_generically(matrix, res.rank, res.assumptions)
    return res


class Cochain2Comparison(Record):
    """Side-by-side comparison of two 2-cochains over a shared basis."""

    equal: bool
    lines: tuple[tuple[str, str, str], ...]  # (pair, left value, right value)
    mismatches: tuple[str, ...]

    def table(self, left_title: str = "left", right_title: str = "right") -> str:
        width = max((len(p) for p, _, _ in self.lines), default=4)
        header = f"{'pair'.ljust(width)} | {left_title} | {right_title}"
        rows = [header, "-" * len(header)]
        for pair, lv, rv in self.lines:
            marker = "" if lv == rv else "   <== differs"
            rows.append(f"{pair.ljust(width)} | {lv} | {rv}{marker}")
        return "\n".join(rows)


def compare_cochain2(left: CochainTable, right: CochainTable) -> Cochain2Comparison:
    if left.basis != right.basis or {left.degree, right.degree} != {2}:
        raise ValueError("comparison requires 2-cochains over a shared basis")
    basis = left.basis
    lines = []
    mismatches = []
    for key in canonical_tuples(basis, 2):
        pair = args_label([basis.names[i] for i in key])
        left_vec, right_vec = left.table.get(key, {}), right.table.get(key, {})
        lines.append((pair, _vec_str(left_vec, basis), _vec_str(right_vec, basis)))
        if left_vec != right_vec:
            mismatches.append(pair)
    return Cochain2Comparison(not mismatches, tuple(lines), tuple(mismatches))
