"""Classical r-matrix analysis and Lie bialgebra structure.

Covers the Schouten bracket and the (modified) classical Yang-Baxter
equations, ad-invariance scans, cobrackets obtained from r-matrices,
dual-algebra extraction via the canonical pairing, and the adjoint
exponential action on r-matrices.  The Schouten bracket and the adjoint
action read the bracket off ``LieSuperAlgebra.structure`` by basis index.

All tensor operations carry Koszul signs; r-matrices handed to the Schouten
bracket must consist of parity-even terms (each a(x)b with |a|+|b| even),
which covers every r-matrix this workbench constructs.
"""

from __future__ import annotations

from typing import Mapping

from .liealg import (
    Element,
    LieSuperAlgebra,
    SparseSum,
    Tensor,
    accumulate,
    canonical_tuples,
)
from .scalars import Poly, RatFunc, UnsupportedInputError, as_poly

__all__ = [
    "flip2",
    "sym_part",
    "ad_action",
    "check_invariant",
    "schouten",
    "check_cybe",
    "check_mcybe",
    "Cobracket",
    "cobracket_from_r",
    "dual_algebra",
    "adjoint_twist_r",
    "decompose_check",
    "limit_r",
    "proportionality_constant",
]


def flip2(t: Tensor) -> Tensor:
    """Graded transposition of a rank-2 tensor: a(x)b -> (-1)^{|a||b|} b(x)a."""
    if t.rank != 2:
        raise ValueError("flip2 expects a rank-2 tensor")
    parity = t.basis.parity
    return Tensor(t.basis, 2, {(b, a): c * (-1) ** (parity(a) * parity(b))
                               for (a, b), c in t.coeffs.items()})


def sym_part(t: Tensor) -> Tensor:
    """The graded-symmetric part r + flip(r) (no 1/2 normalisation)."""
    return t + flip2(t)


def ad_action(A: LieSuperAlgebra, x: Element, t: Tensor) -> Tensor:
    """Derivation action of x on a tensor: sum over slots of ad_x.

    Acting on slot s of a(1)(x)...(x)a(n) contributes the Koszul sign
    (-1)^{|x| * (|a(1)|+...+|a(s-1)|)}.  The brackets are read off
    ``A.structure`` by basis index.
    """
    px = x.parity()
    if px is None:
        raise ValueError("ad_action requires a parity-homogeneous element")
    rows, index = A.structure, A.basis.index
    names, parities = A.basis.names, A.basis.parities
    acting = [(rows[index(a)], ca) for a, ca in x.coeffs.items()]
    out: dict[tuple, Poly] = {}
    for key, coeff in t.coeffs.items():
        scaled = [(row, coeff * ca) for row, ca in acting]
        before = 0
        for slot, name in enumerate(key):
            s = index(name)
            sign = -1 if px and before else 1
            for row, scale in scaled:
                for target, c in row[s]:
                    accumulate(out, (*key[:slot], names[target], *key[slot + 1:]),
                               scale * c, sign)
            before ^= parities[s]
    return Tensor(t.basis, t.rank, out)


def check_invariant(A: LieSuperAlgebra, t: Tensor) -> bool:
    """True iff the summed adjoint action of every basis element kills t."""
    return all(not ad_action(A, x, t) for x in A.gens())


def schouten(A: LieSuperAlgebra, r: Tensor) -> Tensor:
    """The Schouten bracket [[r,r]] = [r12,r13] + [r12,r23] + [r13,r23].

    Derived from commutators in U(A)^(x)3; requires every term of r to be
    parity-even, so the embeddings r12, r13, r23 need no global signs.
    """
    if r.rank != 2:
        raise ValueError("schouten expects a rank-2 tensor")
    basis = r.basis
    for key in r.coeffs:
        if r.key_parity(key):
            raise UnsupportedInputError(
                f"schouten bracket requires parity-even terms; got {key}")

    rows, odd = A.structure, A.basis.parities
    index, names = A.basis.index, A.basis.names
    items = [(index(a), index(b), c) for (a, b), c in r.coeffs.items()]
    out: dict[tuple, Poly] = {}
    for a, b, c1 in items:
        for c, d, c2 in items:
            ac, bc, bd = rows[a][c], rows[b][c], rows[b][d]
            if not (ac or bc or bd):
                continue
            coeff = c1 * c2
            sign_bc = -1 if odd[b] and odd[c] else 1
            # [r12, r13]: bracket on slot 1, spectators b, d.
            for t, k in ac:
                accumulate(out, (names[t], names[b], names[d]), coeff * k,
                           sign_bc)
            # [r12, r23]: bracket on slot 2, spectators a, d.
            for t, k in bc:
                accumulate(out, (names[a], names[t], names[d]), coeff * k)
            # [r13, r23]: bracket on slot 3, spectators a, c.
            for t, k in bd:
                accumulate(out, (names[a], names[c], names[t]), coeff * k,
                           sign_bc)
    return Tensor(basis, 3, out)


def check_cybe(A: LieSuperAlgebra, r: Tensor) -> bool:
    """Classical Yang-Baxter equation: [[r,r]] = 0 identically."""
    return not schouten(A, r)


def check_mcybe(A: LieSuperAlgebra, r: Tensor) -> bool:
    """Modified CYBE: symmetric part and Schouten bracket both ad-invariant."""
    return (check_invariant(A, sym_part(r))
            and check_invariant(A, schouten(A, r)))


class Cobracket(SparseSum):
    """A linear map delta: A -> A(x)A given by its values on basis elements:
    ``coeffs`` maps a basis label to its nonzero rank-2 tensor.  It carries
    its algebra A, so it stands for the pair (A, delta) that
    :func:`dual_algebra` takes."""

    __slots__ = ("algebra",)

    def __init__(self, algebra: LieSuperAlgebra,
                 coeffs: Mapping[str, Tensor] | None = None):
        self.algebra = algebra
        basis = algebra.basis
        clean: dict[str, Tensor] = {}
        for name, tensor in (coeffs or {}).items():
            basis.index(name)
            if tensor.rank != 2 or tensor.basis != basis:
                raise ValueError(f"cobracket value for {name!r} has wrong shape")
            if tensor:
                clean[name] = tensor
        self.coeffs = clean

    def _like(self, coeffs: dict) -> "Cobracket":
        out = object.__new__(Cobracket)
        out.algebra = self.algebra
        out.coeffs = coeffs
        return out

    def _same_space(self, other: "Cobracket") -> bool:
        return self.algebra.basis == other.algebra.basis

    def __call__(self, x: Element) -> Tensor:
        out: dict[tuple, Poly] = {}
        for name, c in x.coeffs.items():
            value = self.coeffs.get(name)
            if value is not None:
                for key, v in value.coeffs.items():
                    accumulate(out, key, v * c)
        return Tensor(self.algebra.basis, 2, out)

    def __repr__(self):
        body = ", ".join(f"{n} -> {t}" for n, t in sorted(self.coeffs.items()))
        return f"Cobracket({body or '0'})"


def cobracket_from_r(A: LieSuperAlgebra, r: Tensor) -> Cobracket:
    """The coboundary cobracket delta(x) = (ad_x(x)1 + 1(x)ad_x)(r)."""
    return Cobracket(A, {name: ad_action(A, A.gen(name), r)
                         for name in A.basis.names})


def dual_algebra(delta: Cobracket, suffix: str = "_hat") -> LieSuperAlgebra:
    """The Lie algebra on the dual basis defined by the cobracket.

    Pairing rule: [e_i-hat, e_j-hat] has, at e_k-hat, the coefficient of
    e_i^e_j in delta(e_k), read for each canonical pair i <= j.  For i < j
    that is the coefficient of e_i(x)e_j; at an odd repeat, where
    v^v = 2 v(x)v, it is half the coefficient of v(x)v.  Dual names carry
    the given suffix and inherit parities.
    """
    basis = delta.algebra.basis
    dual_basis = basis.renamed(suffix)
    names, dual = basis.names, dual_basis.names
    values = [(dual[k], delta.coeffs[name].coeffs)
              for k, name in enumerate(names) if name in delta.coeffs]
    table = {(dual[i], dual[j]):
             {target: c / 2 if i == j else c for target, value in values
              if (c := value.get((names[i], names[j]))) is not None}
             for (i, j) in canonical_tuples(basis, 2)}
    return LieSuperAlgebra(f"dual({delta.algebra.name})", dual_basis, table)


def adjoint_twist_r(A: LieSuperAlgebra, r: Tensor, z: Element, xi) -> Tensor:
    """(exp(xi ad_z) (x) exp(xi ad_z))(r) for nilpotent ad_z.

    Nilpotency of ad_z is verified on every basis vector first (failing after
    dim(A) iterations); the exponential on the tensor then terminates.
    """
    xi = as_poly(xi)
    if z.parity() != 0:
        raise UnsupportedInputError(
            "adjoint_twist_r requires an even twisting element")
    for x in A.gens():
        probe = x
        for _ in range(A.dim + 1):
            if not probe:
                break
            probe = A.bracket(z, probe)
        else:
            raise UnsupportedInputError(
                "adjoint_twist_r requires a nilpotent adjoint action")
    result = r
    term = r
    k = 0
    while term:
        k += 1
        term = ad_action(A, z, term).scaled(Poly.const(1) / k)
        result = result + term.scaled(xi ** k)
        if k > 2 * A.dim + 2:
            raise UnsupportedInputError(
                "exponential series failed to terminate")
    return result


def decompose_check(r_full: Tensor, r1: Tensor, r2: Tensor) -> bool:
    """Structural equality r_full = r1 + r2, identically in parameters."""
    return r_full == r1 + r2


def limit_r(r: Tensor, name: str) -> Tensor:
    """Specialize one parameter to zero, slot-wise (exact substitution)."""
    return r.substitute({name: 0})


def proportionality_constant(t1: Tensor, t2: Tensor):
    """The scalar c with t1 = c * t2, or None if no such scalar exists.

    Returns a Poly when the ratio is polynomial, otherwise a RatFunc;
    t2 = 0 admits a constant only if t1 = 0 (then 0 is returned).
    """
    if not t2:
        return Poly.zero() if not t1 else None
    key0, ref = next(iter(sorted(t2.coeffs.items())))
    num = t1.coefficient(key0)
    keys = set(t1.coeffs) | set(t2.coeffs)
    for key in keys:
        if t1.coefficient(key) * ref != t2.coefficient(key) * num:
            return None
    ratio = RatFunc(num, ref)
    exact = ratio.as_poly()
    return exact if exact is not None else ratio
