"""Finite-dimensional Lie superalgebras over the exact scalar ring.

An algebra is specified by a Z2-graded basis and a table of structure
constants with polynomial coefficients.  Elements and tensors are sparse
dictionaries over basis labels.  All sign conventions follow the Koszul
rule: transposing two homogeneous factors of parities p and q contributes
``(-1)**(p*q)``.

A bracket and a k-cochain are stored alike, as a :class:`CochainTable`:
one vector per tuple of :func:`canonical_tuples`, each ordering of indices
read through :func:`orient` once.  :class:`LieSuperAlgebra` is its parity-0
case of degree 2, with every ordered pair's bracket in one index table.

The signed terms of the Chevalley-Eilenberg differential on k-cochains
are one function, :func:`ce_terms`, of the argument parities and the
cochain parity: the one place its Koszul signs live.  :func:`ce_walk`
yields the terms over the index table, which :func:`ce_residual` sums for
d1 and d2 and the CE matrices of ``cohomology`` sum on unit cochains.

Every trilinear residual is :func:`d2_residual`, d2 of a 2-cochain over a
bracket, scanned by :func:`cocycle2_witness`: Jacobi is half of d2 of a
bracket over itself.  The residual is graded-alternating, so the scan
visits only ``canonical_tuples(basis, 3)``, about n^3/6 of the n^3
ordered triples, and still finds the first failing ordered triple.

Every sparse sum above ``Poly`` (here, in ``cohomology`` and in
``enveloping``) adds a term in place with :func:`accumulate`, which drops
a cancelled key, and prints with :func:`render_sum`.  The sums that are
values (``Element``, ``Tensor``, ``bialgebra.Cobracket`` and the
enveloping terms) take their arithmetic and comparison from
:class:`SparseSum`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .record import Record
from .scalars import Poly, RatFunc, as_poly, scalar_str

__all__ = [
    "GradedBasis",
    "SparseSum",
    "Element",
    "Tensor",
    "CochainTable",
    "LieSuperAlgebra",
    "canonical_tuples",
    "orient",
    "args_label",
    "ce_terms",
    "ce_walk",
    "ce_residual",
    "d2_residual",
    "cocycle2_witness",
    "JacobiReport",
    "wedge",
    "otimes",
    "pencil",
    "accumulate",
    "render_sum",
]


def accumulate(store: dict, key, value, sign: int = 1) -> None:
    """Add sign * value to store[key] in place, for a sign of +1 or -1,
    dropping the key if it cancels.  With a sign of -1 the value is
    subtracted from the total; it is negated only to start a new key."""
    if not value:
        return
    total = store.get(key)
    if sign > 0:
        total = value if total is None else total + value
    else:
        total = -value if total is None else total - value
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


class SparseSum:
    """Arithmetic and comparison of a sparse sum over a basis.

    ``coeffs`` maps keys to nonzero coefficients.  A subclass supplies
    :meth:`_like`, which wraps coefficients that are already trusted in a
    sum over the same space, and :meth:`_same_space`, which says whether
    two sums may be combined.  Sums over different spaces raise
    ``ValueError`` when added and compare unequal.
    """

    __slots__ = ("coeffs",)

    def _like(self, coeffs: dict):
        raise NotImplementedError

    def _same_space(self, other) -> bool:
        raise NotImplementedError

    def _require_same_space(self, other) -> None:
        if not self._same_space(other):
            raise ValueError("operands live over different spaces")

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same_space(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            accumulate(out, key, c)
        return self._like(out)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._like({key: -c for key, c in self.coeffs.items()})

    def scaled(self, scalar):
        poly = as_poly(scalar)
        if not poly:
            return self._like({})
        return self._like({key: c * poly for key, c in self.coeffs.items()})

    def __mul__(self, scalar):
        try:
            return self.scaled(scalar)
        except TypeError:
            return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._same_space(other) and self.coeffs == other.coeffs


class Element(SparseSum):
    """A vector in the span of a graded basis, with polynomial coefficients."""

    __slots__ = ("basis",)

    def __init__(self, basis: GradedBasis, coeffs: Mapping[str, object] | None = None):
        self.basis = basis
        clean = _clean(coeffs or {})
        for name in clean:
            basis.index(name)  # validates membership
        self.coeffs = clean

    @classmethod
    def basis_vector(cls, basis: GradedBasis, name: str) -> "Element":
        return cls(basis, {name: 1})

    def _like(self, coeffs: dict) -> "Element":
        out = object.__new__(Element)
        out.basis = self.basis
        out.coeffs = coeffs
        return out

    def _same_space(self, other: "Element") -> bool:
        return self.basis == other.basis

    def coefficient(self, name: str) -> Poly:
        return self.coeffs.get(name, Poly.zero())

    def parity(self) -> int | None:
        """Common parity of all supported labels, or None if mixed/zero."""
        return common_parity(self.basis.parity(n) for n in self.coeffs)

    def substitute(self, assignment) -> "Element":
        return Element(self.basis,
                       {n: c.substitute(assignment) for n, c in self.coeffs.items()})

    def __str__(self):
        return render_sum((scalar_str(self.coeffs[name]), name)
                          for name in self.basis.names if name in self.coeffs)

    def __repr__(self):
        return f"Element({self})"


class Tensor(SparseSum):
    """A sparse tensor over ``rank`` copies of the same graded basis.

    Keys are tuples of basis labels; values are nonzero polynomials.
    """

    __slots__ = ("basis", "rank")

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

    def _like(self, coeffs: dict) -> "Tensor":
        out = object.__new__(Tensor)
        out.basis = self.basis
        out.rank = self.rank
        out.coeffs = coeffs
        return out

    def _same_space(self, other: "Tensor") -> bool:
        return self.basis == other.basis and self.rank == other.rank

    def coefficient(self, key: tuple) -> Poly:
        return self.coeffs.get(tuple(key), Poly.zero())

    def items(self):
        return iter(sorted(self.coeffs.items()))

    def key_parity(self, key: tuple) -> int:
        return sum(self.basis.parity(n) for n in key) % 2

    def parity(self) -> int | None:
        return common_parity(self.key_parity(k) for k in self.coeffs)

    def substitute(self, assignment) -> "Tensor":
        return Tensor(self.basis, self.rank,
                      {k: c.substitute(assignment) for k, c in self.coeffs.items()})

    def graded_part(self, graded: frozenset[str], degree: int) -> "Tensor":
        """Keep the coefficient parts of exactly the given graded degree."""
        return Tensor(self.basis, self.rank,
                      {k: c.graded_part(graded, degree)
                       for k, c in self.coeffs.items()})

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


class JacobiReport(Record):
    ok: bool
    witness: tuple[str, str, str] | None
    residual: "Element | None"
    triples_checked: int

    def __str__(self):
        if self.ok:
            return f"jacobi ok ({self.triples_checked} triples)"
        return (f"jacobi FAILS at {args_label(self.witness)}: residual "
                f"{self.residual} ({self.triples_checked} triples checked)")


@cache
def canonical_tuples(basis: GradedBasis, k: int) -> list[tuple[int, ...]]:
    """The index tuples a degree-k :class:`CochainTable` stores, in
    lexicographic order: nondecreasing, an index repeated only when its
    generator is odd.  A graded-alternating map is +- its value at the
    sorted tuple, which comes no later, and vanishes where an even index
    repeats: so the first ordered tuple where it fails is in this list.
    Memoized: the shared list is not to be modified."""
    odd, n = basis.parities, len(basis)
    tuples: list[tuple[int, ...]] = [()]
    for _ in range(k):
        # The next index is at least the last one, and equal only if odd.
        tuples = [t + (i,) for t in tuples
                  for i in range(t[-1] + 1 - odd[t[-1]] if t else 0, n)]
    return tuples


def as_vector(value) -> dict:
    """The nonzero coefficients of an Element or of a label-keyed mapping;
    a ``RatFunc`` stays one, any other scalar becomes a ``Poly``."""
    if isinstance(value, Element):
        return dict(value.coeffs)
    scalars = {name: c if isinstance(c, RatFunc) else as_poly(c)
               for name, c in value.items()}
    return {name: c for name, c in scalars.items() if c}


def orient(basis: GradedBasis, args: Iterable[int]):
    """The canonical index tuple of the arguments at the basis indices
    ``args``, and whether a graded-alternating map is negated there; or None
    where an even generator repeats, which sends the map to zero.

    The indices are sorted by insertion, one swap of neighbours at a time,
    and swapping neighbours a, b multiplies the value by -(-1)^{|a||b|}:
    it negates unless both generators are odd.  An index lands next to any
    equal one, so a repeat is seen where it is inserted.
    """
    odd, key = basis.parities, list(args)
    negate = False
    for j in range(1, len(key)):
        a = key[j]
        while j and key[j - 1] > a:
            b = key[j - 1]
            key[j] = b
            negate ^= not (odd[a] and odd[b])
            j -= 1
        if j and key[j - 1] == a and not odd[a]:
            return None
        key[j] = a
    return tuple(key), negate


def args_label(names: Sequence[str]) -> str:
    """Arguments as printed: a bare name for one, ``(a, b, ...)`` for more."""
    return names[0] if len(names) == 1 else f"({', '.join(names)})"


class CochainTable:
    """A parity-homogeneous graded-alternating map g^k -> g, k = ``degree``.

    ``table`` holds one vector (``Poly`` or ``RatFunc`` scalars) per tuple
    of :func:`canonical_tuples`; every ordering of the arguments reads, and
    constructs, through :func:`orient`.  Construction rejects two orderings
    that disagree (an explicit zero included), a nonzero value where an
    even generator repeats, and a value at (x_1, ..., x_k) whose parity is
    not |x_1| + ... + |x_k| + ``parity``.
    """

    __slots__ = ("basis", "parity", "degree", "table", "_reads")

    def __init__(self, basis: GradedBasis,
                 entries: Mapping[tuple[str, ...], Mapping | Element] | None = None,
                 parity: int = 0, degree: int = 2):
        self.basis = basis
        self.parity = int(parity) % 2
        self.degree = degree
        self._reads: dict[tuple[int, ...], tuple] = {}
        odd = basis.parities
        seen: dict[tuple[int, ...], dict] = {}
        for names, value in (entries or {}).items():
            vec = as_vector(value)
            oriented = self._orient(tuple(map(basis.index, names)))
            if oriented is None:
                if vec:
                    value = render_sum((scalar_str(c), n) for n, c in vec.items())
                    raise ValueError(f"{args_label(names)} repeats an even "
                                     f"generator but has the value {value}")
                continue
            key, negate = oriented
            if negate:
                vec = {n: -c for n, c in vec.items()}
            if seen.setdefault(key, vec) != vec:
                raise ValueError(
                    f"conflicting table entries at {args_label(names)}")
            expected = (sum(map(odd.__getitem__, key)) + self.parity) % 2
            for target in vec:
                if basis.parity(target) != expected:
                    raise ValueError(f"value at {args_label(names)} hits "
                                     f"{target!r} of wrong parity")
        self.table = {key: vec for key, vec in seen.items() if vec}

    def _orient(self, key: tuple[int, ...]):
        if len(key) != self.degree:
            raise ValueError(f"{args_label([self.basis.names[i] for i in key])}"
                             f" given to a degree-{self.degree} cochain")
        return orient(self.basis, key)

    def read(self, key: tuple[int, ...]) -> tuple[bool, tuple]:
        """Whether the value at basis indices ``key`` is negated, and its
        canonical (target index, scalar) pairs, none at an even repeat."""
        read = self._reads.get(key)
        if read is None:
            canonical, negate = self._orient(key) or ((), False)
            index = self.basis.index
            read = self._reads[key] = negate, tuple(
                (index(t), c) for t, c in self.table.get(canonical, {}).items())
        return read

    def apply_names(self, *names: str) -> dict:
        """The value at (e_names...), a fresh dict, from :meth:`read`."""
        negate, pairs = self.read(tuple(map(self.basis.index, names)))
        labels = self.basis.names
        return {labels[t]: -c if negate else c for t, c in pairs}

    def __eq__(self, other):
        if not isinstance(other, CochainTable):
            return NotImplemented
        return (self.basis == other.basis and self.degree == other.degree
                and self.parity == other.parity and self.table == other.table)


def _picker(indices: tuple[int, ...]) -> itemgetter:
    """The items of a tuple at the given indices, as a tuple.

    An ``itemgetter`` of one index returns the item bare, so a lone index
    is taken as a one-item slice and none as an empty one.
    """
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(*indices, indices[0] + 1) if indices
                      else slice(0))


@cache
def ce_terms(parities: tuple[int, ...], p: int) -> tuple[tuple, tuple]:
    """The signed terms of (d phi)(x_0, ..., x_k) for a parity-p cochain phi
    and arguments of the given parities, built on first use for any k.

    A bracket term (i, rest, sign) is sign * [x_i, phi(rest)], with
    sign = (-1)^{i + |x_i|(p + sum_{l<i} |x_l|)}.  A cochain term
    ((i, j), rest, sign) is sign * phi([x_i, x_j], rest), with
    sign = (-1)^{i + j + |x_i| sum_{l<i} |x_l| + |x_j| sum_{l<j, l!=i} |x_l|}.
    ``rest`` picks the other arguments, in order, from the argument tuple.
    """
    args = range(len(parities))

    def before(i: int, skip: int = -1) -> int:
        return sum(parities[l] for l in range(i) if l != skip)

    brackets = tuple(
        (i, _picker(tuple(l for l in args if l != i)),
         (-1) ** (i + parities[i] * (p + before(i))))
        for i in args)
    cochains = tuple(
        ((i, j), _picker(tuple(l for l in args if l not in (i, j))),
         (-1) ** (i + j + parities[i] * before(i) + parities[j] * before(j, i)))
        for i in args for j in args if i < j)
    return brackets, cochains


def ce_walk(A: LieSuperAlgebra, parity: int, args: tuple[int, ...], read):
    """The terms (t, c, value, sign) of (d phi)(x_args) at k + 1 basis indices
    ``args``, each adding sign * c * value to e_t for a structure constant c
    of ``A``; ``read`` reads the parity-p phi as :meth:`CochainTable.read`."""
    rows = A.structure
    brackets, cochains = ce_terms(tuple(A.basis.parities[a] for a in args),
                                  parity)
    for i, rest, sign in brackets:
        row = rows[args[i]]
        negate, values = read(rest(args))
        for s, value in values:
            for t, c in row[s]:
                yield t, c, value, -sign if negate else sign
    for (i, j), rest, sign in cochains:
        for s, c in rows[args[i]][args[j]]:
            negate, values = read((s, *rest(args)))
            for t, value in values:
                yield t, c, value, -sign if negate else sign


def ce_residual(A: LieSuperAlgebra, phi, args: tuple[str, ...]) -> dict:
    """(d phi)(args) for basis labels, summed from :func:`ce_walk`.

    ``phi`` is a :class:`CochainTable` of degree k, and ``args`` holds
    k + 1 labels.
    """
    names, out = A.basis.names, {}
    for t, c, value, sign in ce_walk(A, phi.parity,
                                     tuple(map(A.basis.index, args)), phi.read):
        accumulate(out, names[t], c * value, sign)
    return out


def d2_residual(A: LieSuperAlgebra, phi: CochainTable,
                x: str, y: str, z: str) -> dict:
    """(d2 phi)(x, y, z) for basis labels, with graded signs.

    ``phi`` is any :class:`CochainTable` of degree 2: a 2-cochain, or a
    bracket, which is a parity-0 cochain; d2 of a bracket over itself is
    twice its jacobiator.
    """
    return ce_residual(A, phi, (x, y, z))


def cocycle2_witness(A: LieSuperAlgebra, phi: CochainTable):
    """First canonical name triple where d2(phi) fails, with its residual;
    or None."""
    names = A.basis.names
    for i, j, k in canonical_tuples(A.basis, 3):
        triple = names[i], names[j], names[k]
        residual = d2_residual(A, phi, *triple)
        if residual:
            return triple, residual
    return None


class LieSuperAlgebra(CochainTable):
    """A Lie superalgebra given by structure constants over the scalar ring.

    The bracket is the parity-0 :class:`CochainTable` of degree 2:
    ``table[(i, j)]`` is [x_i, x_j] for the canonical pairs.  Construction
    validates the table's symmetry and parities; it does not verify Jacobi
    (use :meth:`verify_jacobi`).
    """

    __slots__ = ("name", "_structure")

    def __init__(self, name: str, basis: GradedBasis,
                 table: Mapping[tuple[str, str], Mapping[str, object]]):
        self.name = name
        self._structure = None
        # Structure constants are polynomials: _clean rejects a RatFunc.
        super().__init__(basis, {pair: _clean(v) for pair, v in table.items()})

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
        result = self.zero()
        result.coeffs = self.apply_names(a, b)
        return result

    @property
    def structure(self) -> list[list[tuple]]:
        """``structure[a][b]``: the (target index, c) pairs of [x_a, x_b] for
        basis indices, built once through :meth:`bracket_basis`."""
        if self._structure is None:
            names, index = self.basis.names, self.basis.index
            self._structure = [[tuple((index(t), c) for t, c in
                                      self.bracket_basis(a, b).coeffs.items())
                                for b in names] for a in names]
        return self._structure

    def bracket(self, x: Element, y: Element) -> Element:
        """Bilinear extension of the basis bracket."""
        rows, index, names = self.structure, self.basis.index, self.basis.names
        out: dict[str, Poly] = {}
        for a, ca in x.coeffs.items():
            row = rows[index(a)]
            for b, cb in y.coeffs.items():
                scale = ca * cb
                for t, c in row[index(b)]:
                    accumulate(out, names[t], c * scale)
        result = self.zero()
        result.coeffs = out
        return result

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
        """Check graded Jacobi by :func:`cocycle2_witness` of the bracket over
        itself, which is twice the jacobiator: the witness is the first
        failing ordered triple, the residual half the d2 residual there."""
        triples = canonical_tuples(self.basis, 3)
        found = cocycle2_witness(self, self)
        if found is None:
            return JacobiReport(True, None, None, len(triples))
        half = Element(self.basis, found[1]).scaled(Fraction(1, 2))
        checked = triples.index(tuple(map(self.basis.index, found[0]))) + 1
        return JacobiReport(False, found[0], half, checked)

    def substitute(self, assignment, name: str | None = None) -> "LieSuperAlgebra":
        names = self.basis.names
        return LieSuperAlgebra(name or self.name, self.basis, {
            (names[i], names[j]): {n: c.substitute(assignment)
                                   for n, c in entry.items()}
            for (i, j), entry in self.table.items()})

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
    names = mu1.basis.names
    table: dict[tuple[str, str], dict[str, Poly]] = {}
    for source, c in ((mu1, c1), (mu2, c2)):
        for (i, j), entry in source.table.items():
            combo = table.setdefault((names[i], names[j]), {})
            for target, coeff in entry.items():
                accumulate(combo, target, coeff * c)
    return LieSuperAlgebra(name, mu1.basis, table)
