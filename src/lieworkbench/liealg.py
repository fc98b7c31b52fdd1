"""Finite-dimensional Lie superalgebras over the exact scalar ring.

An algebra is specified by a Z2-graded basis and a table of structure
constants with polynomial coefficients.  Elements and tensors are sparse
dictionaries over basis labels.  All sign conventions follow the Koszul
rule: transposing two homogeneous factors of parities p and q contributes
``(-1)**(p*q)``.

Every sparse sum above ``Poly`` (here, in ``cohomology`` and in
``enveloping``) adds a term in place with :func:`accumulate`, which drops
a cancelled key, and prints with :func:`render_sum`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .scalars import Poly, as_poly, scalar_str

__all__ = [
    "GradedBasis",
    "Element",
    "Tensor",
    "LieSuperAlgebra",
    "JacobiReport",
    "wedge",
    "otimes",
    "pencil",
    "accumulate",
    "render_sum",
]


def accumulate(store: dict, key, value) -> None:
    """Add value to store[key] in place, dropping the key if it cancels."""
    if not value:
        return
    total = store.get(key)
    total = value if total is None else total + value
    if total:
        store[key] = total
    else:
        del store[key]


def render_sum(pairs: Iterable[tuple[str, str]]) -> str:
    """A signed sum of ``(coefficient text, body)`` pairs, in the given order.

    A unit body ``"1"`` prints the bare coefficient, else a coefficient of 1
    or -1 is left out.  A coefficient of several terms is parenthesised,
    ``+ -`` folds to ``-``, and the empty sum is ``0``.
    """
    parts = []
    for text, body in pairs:
        if body == "1":
            parts.append(f"({text})" if " " in text else text)
        elif text == "1":
            parts.append(body)
        elif text == "-1":
            parts.append(f"-{body}")
        elif " " in text:
            parts.append(f"({text})*{body}")
        else:
            parts.append(f"{text}*{body}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def common_parity(parities: Iterable[int]) -> int | None:
    """The parity all the given ones share: 0 for none, None if mixed."""
    found = set(parities)
    if len(found) == 1:
        return found.pop()
    return None if found else 0


class GradedBasis:
    """Ordered basis labels with Z2 parities (0 even, 1 odd)."""

    __slots__ = ("names", "parities", "_index")

    def __init__(self, names: Sequence[str], parities: Sequence[int] | None = None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("basis names must be distinct")
        if parities is None:
            parities = (0,) * len(names)
        parities = tuple(int(p) % 2 for p in parities)
        if len(parities) != len(names):
            raise ValueError("one parity per basis name is required")
        self.names = names
        self.parities = parities
        self._index = {n: i for i, n in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown basis element {name!r}") from None

    def parity(self, name: str) -> int:
        return self.parities[self.index(name)]

    def is_even(self) -> bool:
        return not any(self.parities)

    def renamed(self, suffix: str) -> "GradedBasis":
        return GradedBasis(tuple(n + suffix for n in self.names), self.parities)

    def __eq__(self, other):
        if not isinstance(other, GradedBasis):
            return NotImplemented
        return self.names == other.names and self.parities == other.parities

    def __hash__(self):
        return hash((self.names, self.parities))

    def __repr__(self):
        odd = [n for n, p in zip(self.names, self.parities) if p]
        tail = f", odd={odd}" if odd else ""
        return f"GradedBasis({list(self.names)}{tail})"


def _clean(coeffs: Mapping[str, object]) -> dict[str, Poly]:
    out: dict[str, Poly] = {}
    for name, value in coeffs.items():
        poly = as_poly(value)
        if poly:
            out[name] = poly
    return out


class Element:
    """A vector in the span of a graded basis, with polynomial coefficients."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: GradedBasis, coeffs: Mapping[str, object] | None = None):
        self.basis = basis
        clean = _clean(coeffs or {})
        for name in clean:
            basis.index(name)  # validates membership
        self.coeffs = clean

    @classmethod
    def basis_vector(cls, basis: GradedBasis, name: str) -> "Element":
        return cls(basis, {name: 1})

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, name: str) -> Poly:
        return self.coeffs.get(name, Poly.zero())

    def parity(self) -> int | None:
        """Common parity of all supported labels, or None if mixed/zero."""
        return common_parity(self.basis.parity(n) for n in self.coeffs)

    def _check_same_basis(self, other: "Element"):
        if self.basis != other.basis:
            raise ValueError("elements live over different bases")

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same_basis(other)
        out = dict(self.coeffs)
        for name, c in other.coeffs.items():
            accumulate(out, name, c)
        result = Element(self.basis)
        result.coeffs = out
        return result

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, scalar) -> "Element":
        poly = as_poly(scalar)
        if not poly:
            return Element(self.basis)
        result = Element(self.basis)
        result.coeffs = {n: c * poly for n, c in self.coeffs.items()}
        return result

    def __mul__(self, scalar):
        try:
            return self.scaled(scalar)
        except TypeError:
            return NotImplemented

    __rmul__ = __mul__

    def substitute(self, assignment) -> "Element":
        return Element(self.basis,
                       {n: c.substitute(assignment) for n, c in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.basis == other.basis and self.coeffs == other.coeffs

    def __str__(self):
        return render_sum((scalar_str(self.coeffs[name]), name)
                          for name in self.basis.names if name in self.coeffs)

    def __repr__(self):
        return f"Element({self})"


class Tensor:
    """A sparse tensor over ``rank`` copies of the same graded basis.

    Keys are tuples of basis labels; values are nonzero polynomials.
    """

    __slots__ = ("basis", "rank", "coeffs")

    def __init__(self, basis: GradedBasis, rank: int,
                 coeffs: Mapping[tuple, object] | None = None):
        if rank < 1:
            raise ValueError("tensor rank must be at least 1")
        self.basis = basis
        self.rank = rank
        clean: dict[tuple, Poly] = {}
        for key, value in (coeffs or {}).items():
            key = tuple(key)
            if len(key) != rank:
                raise ValueError(f"key {key!r} has wrong rank (expected {rank})")
            for name in key:
                basis.index(name)
            poly = as_poly(value)
            if poly:
                clean[key] = poly
        self.coeffs = clean

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, key: tuple) -> Poly:
        return self.coeffs.get(tuple(key), Poly.zero())

    def items(self):
        return iter(sorted(self.coeffs.items()))

    def key_parity(self, key: tuple) -> int:
        return sum(self.basis.parity(n) for n in key) % 2

    def parity(self) -> int | None:
        return common_parity(self.key_parity(k) for k in self.coeffs)

    def _check_compatible(self, other: "Tensor"):
        if self.basis != other.basis or self.rank != other.rank:
            raise ValueError("tensors are not over the same space")

    def __add__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            accumulate(out, key, c)
        result = Tensor(self.basis, self.rank)
        result.coeffs = out
        return result

    def __sub__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, scalar) -> "Tensor":
        poly = as_poly(scalar)
        result = Tensor(self.basis, self.rank)
        if poly:
            result.coeffs = {k: c * poly for k, c in self.coeffs.items()}
        return result

    def __mul__(self, scalar):
        try:
            return self.scaled(scalar)
        except TypeError:
            return NotImplemented

    __rmul__ = __mul__

    def substitute(self, assignment) -> "Tensor":
        return Tensor(self.basis, self.rank,
                      {k: c.substitute(assignment) for k, c in self.coeffs.items()})

    def graded_part(self, graded: frozenset[str], degree: int) -> "Tensor":
        """Keep the coefficient parts of exactly the given graded degree."""
        return Tensor(self.basis, self.rank,
                      {k: c.graded_part(graded, degree)
                       for k, c in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (self.basis == other.basis and self.rank == other.rank
                and self.coeffs == other.coeffs)

    def __str__(self):
        return render_sum((scalar_str(coeff), "(x)".join(key))
                          for key, coeff in self.items())

    def __repr__(self):
        return f"Tensor({self})"


def otimes(*factors: Element) -> Tensor:
    """Tensor product of elements (all over the same basis)."""
    if not factors:
        raise ValueError("otimes needs at least one factor")
    basis = factors[0].basis
    coeffs: dict[tuple, Poly] = {(): Poly.one()}
    for factor in factors:
        if factor.basis != basis:
            raise ValueError("tensor factors live over different bases")
        new: dict[tuple, Poly] = {}
        for key, c in coeffs.items():
            for name, d in factor.coeffs.items():
                prod = c * d
                if prod:
                    new[key + (name,)] = prod
        coeffs = new
    return Tensor(basis, len(factors), coeffs)


def wedge(x: Element, y: Element) -> Tensor:
    """Graded wedge x(x)y - (-1)^{|x||y|} y(x)x (no 1/2 normalisation).

    Both arguments must be parity-homogeneous.
    """
    px, py = x.parity(), y.parity()
    if px is None or py is None:
        raise ValueError("wedge requires parity-homogeneous elements")
    sign = (-1) ** (px * py)
    return otimes(x, y) - otimes(y, x).scaled(sign)


@dataclass(frozen=True)
class JacobiReport:
    ok: bool
    witness: tuple[str, str, str] | None
    residual: "Element | None"
    triples_checked: int

    def __str__(self):
        if self.ok:
            return f"jacobi ok ({self.triples_checked} triples)"
        x, y, z = self.witness
        return (f"jacobi FAILS at ({x}, {y}, {z}): residual {self.residual} "
                f"({self.triples_checked} triples checked)")


class LieSuperAlgebra:
    """A Lie superalgebra given by structure constants over the scalar ring.

    The table is stored canonically: one entry per basis pair (i, j) with
    i < j, plus diagonal entries (i, i) for odd generators (which encode the
    symmetric bracket {x, x}).  Other orderings are derived from graded
    antisymmetry.  Construction validates that every stored bracket is
    parity-homogeneous of the expected parity; it does not verify Jacobi
    (use :meth:`verify_jacobi`).
    """

    __slots__ = ("name", "basis", "table")

    def __init__(self, name: str, basis: GradedBasis,
                 table: Mapping[tuple[str, str], Mapping[str, object]]):
        self.name = name
        self.basis = basis
        canonical: dict[tuple[int, int], dict[str, Poly]] = {}
        for (a, b), coeffs in table.items():
            i, j = basis.index(a), basis.index(b)
            clean = _clean(coeffs)
            if not clean:
                continue
            if i < j:
                key, entry = (i, j), clean
            elif i > j:
                sign = (-1) ** (basis.parities[i] * basis.parities[j])
                entry = {n: c * (-sign) for n, c in clean.items()}
                key = (j, i)
            else:
                if basis.parities[i] == 0:
                    raise ValueError(
                        f"[{a}, {a}] must vanish for even {a!r}; got {clean}")
                key, entry = (i, i), clean
            if key in canonical and canonical[key] != entry:
                raise ValueError(f"conflicting table entries for pair {a!r}, {b!r}")
            canonical[key] = entry
        for (i, j), entry in canonical.items():
            expected = (basis.parities[i] + basis.parities[j]) % 2
            for target in entry:
                if basis.parity(target) != expected:
                    raise ValueError(
                        f"bracket of {basis.names[i]!r} and {basis.names[j]!r} "
                        f"hits {target!r} of wrong parity")
        self.table = canonical

    @property
    def dim(self) -> int:
        return len(self.basis)

    def gen(self, name: str) -> Element:
        return Element.basis_vector(self.basis, name)

    def gens(self) -> tuple[Element, ...]:
        return tuple(self.gen(n) for n in self.basis.names)

    def zero(self) -> Element:
        return Element(self.basis)

    def bracket_basis(self, a: str, b: str) -> Element:
        """[x_a, x_b] for basis labels, resolved through graded antisymmetry."""
        i, j = self.basis.index(a), self.basis.index(b)
        if i < j or i == j:
            entry = self.table.get((i, j))
            if i == j and self.basis.parities[i] == 0:
                return self.zero()
            return Element(self.basis, entry or {})
        entry = self.table.get((j, i))
        if not entry:
            return self.zero()
        sign = (-1) ** (self.basis.parities[i] * self.basis.parities[j])
        return Element(self.basis, {n: c * (-sign) for n, c in entry.items()})

    def bracket(self, x: Element, y: Element) -> Element:
        """Bilinear extension of the basis bracket."""
        out: dict[str, Poly] = {}
        for a, ca in x.coeffs.items():
            for b, cb in y.coeffs.items():
                scale = ca * cb
                for target, c in self.bracket_basis(a, b).coeffs.items():
                    accumulate(out, target, c * scale)
        result = self.zero()
        result.coeffs = out
        return result

    def ad(self, x: Element):
        return lambda y: self.bracket(x, y)

    def jacobiator(self, x: Element, y: Element, z: Element) -> Element:
        """[x,[y,z]] - [[x,y],z] - (-1)^{|x||y|} [y,[x,z]] for homogeneous x, y."""
        px, py = x.parity(), y.parity()
        if px is None or py is None:
            raise ValueError("jacobiator requires parity-homogeneous arguments")
        sign = (-1) ** (px * py)
        return (self.bracket(x, self.bracket(y, z))
                - self.bracket(self.bracket(x, y), z)
                - self.bracket(y, self.bracket(x, z)).scaled(sign))

    def verify_jacobi(self) -> JacobiReport:
        """Check the graded Jacobi identity on every ordered basis triple."""
        names = self.basis.names
        checked = 0
        for a in names:
            x = self.gen(a)
            for b in names:
                y = self.gen(b)
                for c in names:
                    z = self.gen(c)
                    residual = self.jacobiator(x, y, z)
                    checked += 1
                    if residual:
                        return JacobiReport(False, (a, b, c), residual, checked)
        return JacobiReport(True, None, None, checked)

    def substitute(self, assignment, name: str | None = None) -> "LieSuperAlgebra":
        table = {}
        for (i, j), entry in self.table.items():
            a, b = self.basis.names[i], self.basis.names[j]
            table[(a, b)] = {n: c.substitute(assignment) for n, c in entry.items()}
        return LieSuperAlgebra(name or self.name, self.basis, table)

    def __eq__(self, other):
        if not isinstance(other, LieSuperAlgebra):
            return NotImplemented
        return self.basis == other.basis and self.table == other.table

    def __repr__(self):
        return f"LieSuperAlgebra({self.name!r}, dim={self.dim})"

    def table_lines(self) -> list[str]:
        """Human-readable nonzero brackets in canonical order."""
        lines = []
        for (i, j) in sorted(self.table):
            a, b = self.basis.names[i], self.basis.names[j]
            odd_pair = self.basis.parities[i] and self.basis.parities[j]
            op = "{%s, %s}" if (i == j or odd_pair) else "[%s, %s]"
            value = Element(self.basis, self.table[(i, j)])
            lines.append(f"{op % (a, b)} = {value}")
        return lines


def pencil(mu1: LieSuperAlgebra, mu2: LieSuperAlgebra, a1, a2,
           name: str | None = None) -> LieSuperAlgebra:
    """Linear combination a1*mu1 + a2*mu2 of two brackets on the same basis.

    The result is not guaranteed to satisfy Jacobi; callers verify.
    """
    if mu1.basis != mu2.basis:
        raise ValueError("pencil requires brackets on the same basis")
    c1, c2 = as_poly(a1), as_poly(a2)
    name = name or f"pencil({mu1.name}, {mu2.name})"
    table: dict[tuple[str, str], dict[str, Poly]] = {}
    keys = set(mu1.table) | set(mu2.table)
    for (i, j) in keys:
        a, b = mu1.basis.names[i], mu1.basis.names[j]
        combo: dict[str, Poly] = {}
        for source, c in ((mu1, c1), (mu2, c2)):
            for target, coeff in source.table.get((i, j), {}).items():
                accumulate(combo, target, coeff * c)
        if combo:
            table[(a, b)] = combo
    return LieSuperAlgebra(name, mu1.basis, table)
