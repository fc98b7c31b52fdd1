"""Named constructors for the workbench's standard objects.

Everything here is exact data: special/general linear algebras in the
matrix-unit basis, the two-dimensional solvable algebra span{h, x}, the
orthosymplectic superalgebra osp(1|2) with its two dual-space brackets and
the connecting 1-cochain, standard and jordanian classical r-matrices,
their dual algebras, the four-dimensional quantum-double pieces with their
constant r-matrix, and a literal transcription of the first-order dual
bracket on gl(N) coordinates together with its transcription report.

Entries are registered under stable string names for the CLI and the
definition-file format; ``catalog_get`` memoizes construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from typing import Callable

from .bialgebra import cobracket_from_r, dual_algebra
from .cohomology import Cochain1, compatible_pair
from .liealg import (
    Element,
    GradedBasis,
    JacobiReport,
    LieSuperAlgebra,
    Tensor,
    accumulate,
    orient,
    otimes,
    pencil,
    wedge,
)
from .record import Record
from .scalars import Poly, param

__all__ = [
    "cartan_name",
    "pair_name",
    "make_sl",
    "make_gl",
    "make_borel",
    "make_osp12",
    "make_rdj",
    "make_rjordan",
    "make_rfull",
    "make_rborel",
    "make_double_pieces",
    "make_dual_standard",
    "make_dual_jordanian",
    "make_mu_prime",
    "mu_prime_transcription",
    "MuPrimeTranscription",
    "TranscriptionLine",
    "CatalogEntry",
    "catalog_names",
    "catalog_entry",
    "catalog_entries",
    "catalog_get",
]


def cartan_name(k: int) -> str:
    """Name of the k-th Cartan generator (1-based)."""
    return f"H{k}"


def pair_name(prefix: str, i: int, j: int, N: int) -> str:
    """Name of a doubly-indexed generator; indices separated only if N > 9."""
    return f"{prefix}{i}_{j}" if N > 9 else f"{prefix}{i}{j}"


def _matrix_table(matrices: dict[str, dict[tuple[int, int], int]],
                  unit: Callable) -> dict:
    """The brackets of the named ``matrices``, each given by its matrix-unit
    coefficients, pair by pair in order, from [E_ij, E_kl] = delta_jk E_il -
    delta_li E_kj; ``unit(p, q)`` gives E_pq as coefficients over the basis."""
    names = list(matrices)
    table: dict[tuple[str, str], dict[str, object]] = {}
    for a, x in enumerate(names):
        for y in names[a + 1:]:
            coeffs: dict[str, int] = {}
            for (i, j), c in matrices[x].items():
                for (k, l), d in matrices[y].items():
                    if j == k:
                        for n, u in unit(i, l).items():
                            accumulate(coeffs, n, c * d * u)
                    if l == i:
                        for n, u in unit(k, j).items():
                            accumulate(coeffs, n, c * d * u, -1)
            if coeffs:
                table[(x, y)] = coeffs
    return table


def _sl_matrices(N: int) -> dict[str, dict[tuple[int, int], int]]:
    """The basis of :func:`make_sl`, each element by its matrix-unit
    coefficients."""
    if N < 2:
        raise ValueError("make_sl requires N >= 2")
    matrices = {cartan_name(k): {(k, k): 1, (k + 1, k + 1): -1}
                for k in range(1, N)}
    matrices.update({pair_name("E", i, j, N): {(i, j): 1}
                     for i in range(1, N + 1)
                     for j in range(1, N + 1) if i != j})
    return matrices


def _gl_matrices(N: int) -> dict[str, dict[tuple[int, int], int]]:
    """The basis of :func:`make_gl`, each element by its matrix-unit
    coefficients."""
    if N < 2:
        raise ValueError("make_gl requires N >= 2")
    return {pair_name("Y", i, j, N): {(i, j): 1} for i in range(1, N + 1)
            for j in range(1, N + 1)}


def make_sl(N: int) -> LieSuperAlgebra:
    """sl(N): traceless Cartan combinations H_k = Y_kk - Y_{k+1,k+1} first,
    then off-diagonal matrix units E_ij in lexicographic order."""
    matrices = _sl_matrices(N)

    def unit(i: int, j: int) -> dict[str, int]:
        """E_ij, with E_ii taken as E_ii - E_NN = H_i + ... + H_{N-1}: the
        difference of two diagonal units, all sl(N) holds, is unchanged."""
        return ({pair_name("E", i, j, N): 1} if i != j
                else {cartan_name(k): 1 for k in range(i, N)})

    return LieSuperAlgebra(f"sl{N}", GradedBasis(tuple(matrices)),
                           _matrix_table(matrices, unit))


def make_gl(N: int) -> LieSuperAlgebra:
    """gl(N) on the full matrix-unit basis Y_ij (lexicographic order)."""
    matrices = _gl_matrices(N)
    return LieSuperAlgebra(
        f"gl{N}", GradedBasis(tuple(matrices)),
        _matrix_table(matrices, lambda i, j: {pair_name("Y", i, j, N): 1}))


def make_borel() -> LieSuperAlgebra:
    """The two-dimensional solvable algebra span{h, x | [h, x] = 2x}."""
    basis = GradedBasis(("h", "x"))
    return LieSuperAlgebra("borel", basis, {("h", "x"): {"x": 2}})


def make_rborel() -> Tensor:
    """The skew constant tensor h(x)x - x(x)h on span{h, x}."""
    A = make_borel()
    return wedge(A.gen("h"), A.gen("x"))


def _standard_r(basis: GradedBasis, hk: list[Element],
                e: Callable[[int, int], Element], N: int, h: Poly) -> Tensor:
    """Inverse-Cartan block plus 2h * sum of lower-by-upper matrix units."""
    r = Tensor(basis, 2)
    for k in range(1, N):
        r = r + otimes(hk[k - 1], hk[k - 1]).scaled(h * Fraction(k * (N - k), N))
    for k in range(1, N):
        for l in range(k + 1, N):
            block = otimes(hk[k - 1], hk[l - 1]) + otimes(hk[l - 1], hk[k - 1])
            r = r + block.scaled(h * Fraction(k * (N - l), N))
    for k in range(1, N + 1):
        for l in range(k + 1, N + 1):
            r = r + otimes(e(l, k), e(k, l)).scaled(2 * h)
    return r


def make_rdj(N: int) -> Tensor:
    """Quasitriangular standard classical r-matrix on sl(N) (parameter h).

    r = r_a + h*t, where t is the trace-form Casimir (the sum of E_ij(x)E_ji
    plus the inverse-Cartan block in the H_k) and r_a = h * sum_{k<l}
    E_lk ^ E_kl is the skew standard r-matrix.  The symmetric part
    sym_part(r) = 2h*t is ad-invariant and [[r, r]] = 0 exactly; the skew
    part r_a gives the same cobracket and solves only the modified equation,
    with [[r_a, r_a]] = -h^2 [[t, t]].
    """
    if N < 2:
        raise ValueError("make_rdj requires N >= 2")
    basis = GradedBasis(tuple(_sl_matrices(N)))
    hk = [Element.basis_vector(basis, cartan_name(k)) for k in range(1, N)]

    def e(i: int, j: int) -> Element:
        return Element.basis_vector(basis, pair_name("E", i, j, N))

    return _standard_r(basis, hk, e, N, param("h"))


def make_rjordan(N: int) -> Tensor:
    """Jordanian classical r-matrix on sl(N) (parameter xi):
    -xi*(H1N ^ E1N + 2 * sum_{k=2..N-1} E1k ^ EkN)."""
    if N < 2:
        raise ValueError("make_rjordan requires N >= 2")
    x = param("xi")
    basis = GradedBasis(tuple(_sl_matrices(N)))

    def e(i: int, j: int) -> Element:
        return Element.basis_vector(basis, pair_name("E", i, j, N))

    h1n = Element(basis)
    for k in range(1, N):
        h1n = h1n + Element.basis_vector(basis, cartan_name(k))
    r = wedge(h1n, e(1, N)).scaled(-x)
    for k in range(2, N):
        r = r + wedge(e(1, k), e(k, N)).scaled(-2 * x)
    return r


def make_rfull(N: int) -> Tensor:
    """The combined two-parameter r-matrix: make_rdj + make_rjordan."""
    return make_rdj(N) + make_rjordan(N)


def _coboundary_dual(A: LieSuperAlgebra, r: Tensor, name: str,
                     suffix: str = "_hat") -> LieSuperAlgebra:
    """The dual bracket of the coboundary bialgebra (A, delta_r), named."""
    out = dual_algebra(cobracket_from_r(A, r), suffix)
    out.name = name
    return out


@cache
def make_double_pieces() -> tuple[LieSuperAlgebra, LieSuperAlgebra,
                                  LieSuperAlgebra, LieSuperAlgebra, Tensor]:
    """The quantum-double pieces on basis {H, Hp, Xp, Xm}.

    Returns (g1, g2, g1dual, g2dual, r_double), where r_double =
    theta*(Xp(x)Xm + H(x)Hp) is the constant r-matrix of the double and
    g1dual, g2dual are the coboundary duals of (g1, delta_r_double) and
    (g2, delta_r_double) on the hatted basis (``dual_algebra``'s pairing).
    Built once; the returned objects are shared and not to be modified.
    """
    theta = param("theta")
    basis = GradedBasis(("H", "Hp", "Xp", "Xm"))
    g1 = LieSuperAlgebra("double.g1", basis, {
        ("H", "Xp"): {"Xp": 1},
        ("H", "Xm"): {"Xm": -1},
        ("Xp", "Xm"): {"Hp": 1},
    })
    g2 = LieSuperAlgebra("double.g2", basis, {
        ("Hp", "Xp"): {"Xp": 1},
        ("Hp", "Xm"): {"Xm": -1},
        ("Xp", "Xm"): {"H": 1},
    })
    H, Hp, Xp, Xm = g1.gens()  # the tensor lives over the shared basis
    r_double = (otimes(Xp, Xm) + otimes(H, Hp)).scaled(theta)
    return (g1, g2, _coboundary_dual(g1, r_double, "double.g1dual"),
            _coboundary_dual(g2, r_double, "double.g2dual"), r_double)


@cache
def make_osp12() -> tuple[LieSuperAlgebra, LieSuperAlgebra,
                          LieSuperAlgebra, Cochain1]:
    """osp(1|2) and its two dual-space brackets, plus the connecting cochain.

    Primary relations: [h, v+-] = +-v+-, {v+, v-} = -h/4; the even root
    vectors are the derived squares X+- = +-4*v+-*v+- (so {v+-, v+-} =
    +-X+-/2), with the remaining brackets forced by the Jacobi identity.
    Returns (algebra, mu1star, mu2star, psi).  mu1star and mu2star are the
    coboundary duals, on the hatted basis under ``dual_algebra``'s pairing,
    of the super-standard r1 = h(x)h + 4 Xp(x)Xm + 8 vp(x)vm and the
    super-jordanian r2 = Xp^h + 4 vp(x)vp (Kulish and Reshetikhin 1989;
    Juszczak and Sobczyk 1998).  psi is the printed degree-1 cochain whose
    coboundary over mu1star is compared against mu2star.  Built once; the
    returned objects are shared and not to be modified.
    """
    basis = GradedBasis(("h", "Xp", "Xm", "vp", "vm"), (0, 0, 0, 1, 1))
    A = LieSuperAlgebra("osp12", basis, {
        ("h", "Xp"): {"Xp": 2},
        ("h", "Xm"): {"Xm": -2},
        ("Xp", "Xm"): {"h": 1},
        ("h", "vp"): {"vp": 1},
        ("h", "vm"): {"vm": -1},
        ("Xp", "vm"): {"vp": 1},
        ("Xm", "vp"): {"vm": 1},
        ("vp", "vp"): {"Xp": Fraction(1, 2)},
        ("vm", "vm"): {"Xm": Fraction(-1, 2)},
        ("vp", "vm"): {"h": Fraction(-1, 4)},
    })
    h, Xp, Xm, vp, vm = A.gens()
    r1 = otimes(h, h) + otimes(Xp, Xm).scaled(4) + otimes(vp, vm).scaled(8)
    r2 = wedge(Xp, h) + otimes(vp, vp).scaled(4)
    mu1star = _coboundary_dual(A, r1, "mu1star")
    psi = Cochain1(mu1star.basis, {
        "h_hat": {"Xp_hat": -1},
        "Xp_hat": {"h_hat": -1},
        "Xm_hat": {"Xm_hat": -1},
        "vp_hat": {"vm_hat": 1},
        "vm_hat": {"vm_hat": 1},
    }, parity=0)
    return A, mu1star, _coboundary_dual(A, r2, "mu2star"), psi


def make_dual_standard(N: int) -> LieSuperAlgebra:
    """Dual bracket of sl(N) induced by the standard r-matrix (hatted basis)."""
    return _coboundary_dual(make_sl(N), make_rdj(N), f"dual.standard.sl{N}")


def make_dual_jordanian(N: int) -> LieSuperAlgebra:
    """Dual bracket of sl(N) induced by the jordanian r-matrix (hatted basis)."""
    return _coboundary_dual(make_sl(N), make_rjordan(N), f"dual.jordan.sl{N}")


# --------------------------------------------------------------------------
# Literal transcription of the first-order dual bracket on gl(N) coordinates.
# --------------------------------------------------------------------------


class TranscriptionLine(Record):
    """One printed table line: its formula, index conditions, and tallies."""

    label: str
    formula: str
    condition: str
    instances: int
    nonzero: int
    unsatisfiable: bool

    def render(self) -> str:
        if self.unsatisfiable:
            status = "condition unsatisfiable as printed; line skipped"
        elif not self.instances:
            status = "vacuous at this N"
        else:
            status = f"{self.instances} instance(s), {self.nonzero} nonzero"
        cond = f" for {self.condition}" if self.condition else ""
        return f"{self.label}: {self.formula}{cond}  [{status}]"


class MuPrimeTranscription(Record):
    """Deterministic report of the table-to-algebra transcription."""

    N: int
    algebra: LieSuperAlgebra
    lines: tuple[TranscriptionLine, ...]
    conflicts: tuple[str, ...]
    jacobi: JacobiReport
    compatible_with_standard_dual: bool

    def render_lines(self) -> list[str]:
        out = [f"first-order dual bracket table on gl({self.N}) coordinates"]
        out.extend(line.render() for line in self.lines)
        if self.conflicts:
            out.append("conflicting assignments:")
            out.extend(f"  {c}" for c in self.conflicts)
        else:
            out.append("no conflicting assignments")
        out.append(f"jacobi: {self.jacobi}")
        out.append("compatible with standard dual bracket: "
                   f"{self.compatible_with_standard_dual}")
        return out


def _rdj_on_gl(N: int) -> Tensor:
    """The standard r-matrix written over the gl(N) matrix-unit basis."""
    basis = GradedBasis(tuple(_gl_matrices(N)))

    def y(i: int, j: int) -> Element:
        return Element.basis_vector(basis, pair_name("Y", i, j, N))

    hk = [y(k, k) - y(k + 1, k + 1) for k in range(1, N)]
    return _standard_r(basis, hk, y, N, param("h"))


def _mu_prime_lines(N: int):
    """The printed table lines: label, formula, condition, instances, and
    whether the printed condition is unsatisfiable.

    Each line is one row; its index condition and its claim take one index
    per argument, and every index assignment in 1..N (lexicographic order)
    that satisfies the condition as printed gives one instance (left label,
    right label, value coefficients).  Delta factors inside the values are
    evaluated, so an instance may carry a zero value (an explicit claim that
    the bracket of that pair vanishes).
    """

    def y(i: int, j: int) -> str:
        return pair_name("Y", i, j, N)

    def combine(*pairs) -> dict[str, int]:
        out: dict[str, int] = {}
        for coef, name in pairs:
            if coef:
                out[name] = out.get(name, 0) + coef
        return {n: c for n, c in out.items() if c}

    rows = [
        ("L1", "mu'(Y1k, Yij) = 2 d_ik YNj", "k,j<N; i>1", False,
         lambda k, i, j: k < N and j < N and i > 1,
         lambda k, i, j: (y(1, k), y(i, j),
                          combine((2 * (i == k), y(N, j))))),
        ("L2", "mu'(Yij, YlN) = -2 d_jl YNj", "j<N; i,l>1", False,
         lambda i, j, l: j < N and i > 1 and l > 1,
         lambda i, j, l: (y(i, j), y(l, N),
                          combine((-2 * (j == l), y(N, j))))),
        ("L3", "mu'(Yij, Y1N) = -d_j1 Yi1 - d_iN YNj", "j<N; i>1", False,
         lambda i, j: j < N and i > 1,
         lambda i, j: (y(i, j), y(1, N), combine((-(j == 1), y(i, 1)),
                                                 (-(i == N), y(N, j))))),
        ("L4", "mu'(Y1i, Y1N) = -Y1i", "N>i>1", False,
         lambda i: N > i > 1,
         lambda i: (y(1, i), y(1, N), combine((-1, y(1, i))))),
        # "k < N < 1" holds for no index at any N >= 2; the line is carried
        # so the report can flag it rather than repair it.
        ("L5", "mu'(Y1N, YkN) = YkN", "k<N<1", True,
         lambda k: k < N < 1,
         lambda k: (y(1, N), y(k, N), combine((1, y(k, N))))),
        # The two printed pairs (Y11, Y1N) and (Y1N, YNN) are (Y1s, YsN).
        ("L6", "mu'(Y11, Y1N) = mu'(Y1N, YNN) = -(Y11 - YNN)", "", False,
         lambda s: s in (1, N),
         lambda s: (y(1, s), y(s, N), combine((-1, y(1, 1)), (1, y(N, N))))),
        ("L7", "mu'(Y1i, Y1k) = d_i1 YNk", "k,i<N; k>1", False,
         lambda i, k: k < N and i < N and k > 1,
         lambda i, k: (y(1, i), y(1, k), combine(((i == 1), y(N, k))))),
        ("L8", "mu'(YiN, YkN) = -d_kN Yi1", "k,i>1; i<N", False,
         lambda i, k: k > 1 and i > 1 and i < N,
         lambda i, k: (y(i, N), y(k, N), combine((-(k == N), y(i, 1))))),
        ("L9", "mu'(Y1i, YkN) = d_i1 Yk1 - d_kN YNi - 2 d_ik (Y11 - YNN)",
         "i<N; k>1", False,
         lambda i, k: i < N and k > 1,
         lambda i, k: (y(1, i), y(k, N),
                       combine(((i == 1), y(k, 1)), (-(k == N), y(N, i)),
                               (-2 * (i == k), y(1, 1)),
                               (2 * (i == k), y(N, N))))),
    ]
    return [(label, formula, condition,
             [claim(*index) for index in product(
                 range(1, N + 1), repeat=claim.__code__.co_argcount)
              if holds(*index)],
             unsatisfiable)
            for label, formula, condition, unsatisfiable, holds, claim in rows]


def _merge_mu_prime_claims(N: int):
    """The table's claims merged under antisymmetry: the bracket, the
    printed lines with their tallies, and the conflicts (first claim wins,
    processing lines in order)."""
    if N < 2:
        raise ValueError("mu_prime_transcription requires N >= 2")
    basis = GradedBasis(tuple(_gl_matrices(N)))

    claims: dict[tuple[int, int], tuple[dict[str, int], str, str]] = {}
    conflicts: list[str] = []
    lines: list[TranscriptionLine] = []

    for label, formula, condition, instances, unsatisfiable in _mu_prime_lines(N):
        for (a, b, value) in instances:
            oriented = orient(basis, map(basis.index, (a, b)))
            if oriented is None:
                if value:
                    conflicts.append(
                        f"{label}: nonzero value on the even diagonal pair "
                        f"({a}, {a})")
                continue
            key, negate = oriented
            entry = {n: -c for n, c in value.items()} if negate else value
            if key not in claims:
                claims[key] = (entry, label, f"{a}, {b}")
                continue
            kept, kept_label, kept_pair = claims[key]
            if kept != entry:
                pair = f"({basis.names[key[0]]}, {basis.names[key[1]]})"
                conflicts.append(
                    f"{pair}: {label} (from {a}, {b}) disagrees with "
                    f"{kept_label} (from {kept_pair}); keeping {kept_label}")
        lines.append(TranscriptionLine(
            label, formula, condition, len(instances),
            sum(1 for _, _, value in instances if value),
            unsatisfiable=unsatisfiable))

    table = {(basis.names[i], basis.names[j]): entry
             for (i, j), (entry, _, _) in claims.items() if entry}
    algebra = LieSuperAlgebra(f"mu.prime.gl{N}", basis, table)
    return algebra, tuple(lines), tuple(conflicts)


def mu_prime_transcription(N: int) -> MuPrimeTranscription:
    """Transcribe the printed first-order dual bracket table for gl(N).

    The table is taken literally, line by line; every index assignment
    satisfying a line's printed condition contributes a claim about one
    ordered basis pair.  Claims are merged under antisymmetry; differing
    claims about the same pair are recorded as conflicts (first claim wins,
    processing lines in order).  Lines with unsatisfiable conditions are
    flagged rather than repaired.  The Jacobi status of the resulting
    bracket and its compatibility with the standard dual bracket on the
    same coordinates are computed, not assumed.
    """
    algebra, lines, conflicts = _merge_mu_prime_claims(N)
    jacobi = algebra.verify_jacobi()
    standard_dual = _coboundary_dual(make_gl(N), _rdj_on_gl(N),
                                     f"dual.standard.gl{N}", suffix="")
    compatible = compatible_pair(algebra, standard_dual)
    return MuPrimeTranscription(N, algebra, lines, conflicts, jacobi,
                                compatible)


def make_mu_prime(N: int) -> LieSuperAlgebra:
    """The transcribed first-order dual bracket on gl(N) coordinates (the
    bracket alone, without the transcription's Jacobi and compatibility
    checks)."""
    return _merge_mu_prime_claims(N)[0]


# --------------------------------------------------------------------------
# Registry.
# --------------------------------------------------------------------------


class CatalogEntry(Record):
    """A named catalog object with its default algebra association."""

    name: str
    kind: str  # "algebra" | "tensor" | "cochain"
    provenance: str
    make: Callable[[], object]
    algebra: str | None = None


_REGISTRY: dict[str, CatalogEntry] = {}
_CACHE: dict[str, object] = {}


def _register(name: str, kind: str, provenance: str,
              make: Callable[[], object], algebra: str | None = None):
    if name in _REGISTRY:  # pragma: no cover
        raise ValueError(f"duplicate catalog name {name!r}")
    _REGISTRY[name] = CatalogEntry(name, kind, provenance, make, algebra)


_register("sl2", "algebra",
          "special linear algebra sl(2), matrix-unit basis", lambda: make_sl(2))
_register("sl3", "algebra",
          "special linear algebra sl(3), matrix-unit basis", lambda: make_sl(3))
_register("sl4", "algebra",
          "special linear algebra sl(4), matrix-unit basis", lambda: make_sl(4))
_register("gl3", "algebra",
          "general linear algebra gl(3), matrix-unit basis", lambda: make_gl(3))
_register("borel", "algebra",
          "two-dimensional solvable algebra span{h, x | [h,x] = 2x}",
          make_borel)
_register("osp12", "algebra",
          "orthosymplectic superalgebra osp(1|2)",
          lambda: make_osp12()[0])
_register("double.g1", "algebra",
          "first bracket of the quantum double of two Borel algebras",
          lambda: make_double_pieces()[0])
_register("double.g2", "algebra",
          "second bracket of the quantum double of two Borel algebras",
          lambda: make_double_pieces()[1])
_register("double.g1dual", "algebra",
          "dual bracket paired with double.g1",
          lambda: make_double_pieces()[2])
_register("double.g2dual", "algebra",
          "dual bracket paired with double.g2",
          lambda: make_double_pieces()[3])
_register("double.pencil", "algebra",
          "pencil alpha1*g1 + alpha2*g2 of the double brackets",
          lambda: pencil(*make_double_pieces()[:2], param("alpha1"),
                         param("alpha2"), name="double.pencil"))
_register("r.dj", "tensor",
          "standard classical r-matrix on sl(3) (parameter h)",
          lambda: make_rdj(3), algebra="sl3")
_register("r.jordan", "tensor",
          "jordanian classical r-matrix on sl(3) (parameter xi)",
          lambda: make_rjordan(3), algebra="sl3")
_register("r.full", "tensor",
          "combined standard-plus-jordanian r-matrix on sl(3)",
          lambda: make_rfull(3), algebra="sl3")
_register("r.double", "tensor",
          "constant r-matrix of the quantum double (parameter theta)",
          lambda: make_double_pieces()[4], algebra="double.pencil")
_register("r.borel", "tensor",
          "skew tensor h^x on the two-dimensional solvable algebra",
          make_rborel, algebra="borel")
_register("mu.prime", "algebra",
          "literal transcription of the first-order dual bracket on gl(3)",
          lambda: make_mu_prime(3))
_register("mu1star", "algebra",
          "first dual-space bracket of osp(1|2), hatted basis",
          lambda: make_osp12()[1])
_register("mu2star", "algebra",
          "second dual-space bracket of osp(1|2), hatted basis",
          lambda: make_osp12()[2])
_register("psi", "cochain",
          "degree-1 cochain connecting the two osp(1|2) dual brackets",
          lambda: make_osp12()[3], algebra="mu1star")
_register("dual.standard.sl2", "algebra",
          "dual bracket of sl(2) induced by the standard r-matrix",
          lambda: make_dual_standard(2))
_register("dual.jordan.sl2", "algebra",
          "dual bracket of sl(2) induced by the jordanian r-matrix",
          lambda: make_dual_jordanian(2))


def catalog_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def catalog_entry(name: str) -> CatalogEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown catalog name {name!r}") from None


def catalog_entries() -> tuple[CatalogEntry, ...]:
    return tuple(_REGISTRY.values())


def catalog_get(name: str) -> object:
    if name not in _CACHE:
        _CACHE[name] = catalog_entry(name).make()
    return _CACHE[name]
