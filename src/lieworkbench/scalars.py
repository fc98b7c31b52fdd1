"""Exact scalar arithmetic for the workbench.

Scalars are sparse multivariate polynomials over the rationals in declared
formal parameters (deformation parameters such as ``h``, ``xi``, ``theta``).
Coefficients are always :class:`fractions.Fraction`, whatever path computed
them; nothing in this package ever touches floating point.  A
:class:`RatFunc` quotient type backs exact linear solving over the field of
rational functions in the parameters.

Most operands the workbench meets are constants, zeros or quotients over a
unit denominator, so each operator takes a short branch for them inside
itself: ``Poly`` addition returns the other operand when one is zero, a
product with a constant scales the other operand's terms, subtraction works
on a copy of the left operand, and a ``RatFunc`` over the constant 1 keeps
its numerator as it is and shares one unit ``Poly`` as its denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping, Union

from .record import Record

__all__ = [
    "UnsupportedInputError",
    "Poly",
    "RatFunc",
    "TruncationOrder",
    "param",
    "as_poly",
    "poly_divmod",
    "scalar_str",
]

# A monomial is a tuple of (parameter name, positive exponent) pairs, sorted
# by name.  The empty tuple is the constant monomial.
Monomial = tuple
ScalarLike = Union[int, Fraction, "Poly"]


class UnsupportedInputError(ValueError):
    """Raised when an operation receives input outside its supported domain."""


def param(name: str) -> "Poly":
    """The formal parameter of the given name, as a polynomial."""
    if not name.isidentifier():
        raise ValueError(f"parameter name {name!r} is not an identifier")
    return Poly({((name, 1),): Fraction(1)})


def _coerce_fraction(value) -> Fraction | None:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return None


def as_poly(value: ScalarLike) -> "Poly":
    if isinstance(value, Poly):
        return value
    frac = _coerce_fraction(value)
    if frac is None:
        raise TypeError(f"cannot interpret {value!r} as an exact scalar")
    return Poly.const(frac)


class TruncationOrder(Record):
    """Total-degree truncation in a chosen subset of graded parameters.

    Only the parameters in ``graded`` count toward the degree; all other
    parameters are spectators and survive truncation untouched.
    """

    degree: int
    graded: frozenset[str]

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("truncation degree must be non-negative")
        object.__setattr__(self, "graded", frozenset(self.graded))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps: dict[str, int] = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _mono_graded_degree(mono: Monomial, graded: frozenset[str]) -> int:
    return sum(e for name, e in mono if name in graded)


# ``str(int)`` refuses more than sys.get_int_max_str_digits() digits (4,300
# by default, never under 640), so longer values are rendered in chunks of
# this many digits; the process-wide limit stays as it is.
_CHUNK_DIGITS = 500
_CHUNK = 10**_CHUNK_DIGITS


def _int_str(n: int) -> str:
    """The exact decimal digits of n, however many there are."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    chunks = []
    while n:
        n, low = divmod(n, _CHUNK)
        chunks.append(low)
    return str(chunks.pop()) + "".join(f"{low:0{_CHUNK_DIGITS}d}"
                                       for low in reversed(chunks))


def _fraction_str(value: Fraction) -> str:
    """``str(value)``, exact at any size."""
    if value.denominator == 1:
        return _int_str(value.numerator)
    return f"{_int_str(value.numerator)}/{_int_str(value.denominator)}"


def _mono_str(mono: Monomial) -> str:
    parts = []
    for name, e in mono:
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


class Poly:
    """Sparse multivariate polynomial with Fraction coefficients.

    Instances are immutable by convention: no method mutates ``_terms`` after
    construction, and zero coefficients are never stored.  Terms render in a
    canonical order (lexicographic on the monomial), so equal polynomials
    always print identically.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                frac = _coerce_fraction(coeff)
                if frac is None:
                    raise TypeError(f"coefficient {coeff!r} is not exact")
                if frac:
                    clean[mono] = frac
        self._terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, value: int | Fraction) -> "Poly":
        frac = _coerce_fraction(value)
        if frac is None:
            raise TypeError(f"constant {value!r} is not exact")
        return cls({(): frac} if frac else {})

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls.const(1)

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(sorted(self._terms.items()))

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(tuple(sorted(mono)), Fraction(0))

    def constant_term(self) -> Fraction:
        return self._terms.get((), Fraction(0))

    def leading_coefficient(self) -> Fraction:
        """The coefficient of the largest monomial in the canonical order."""
        return max(self._terms.items())[1] if self._terms else Fraction(0)

    def parameters(self) -> frozenset[str]:
        return frozenset(name for mono in self._terms for name, _ in mono)

    def __len__(self) -> int:
        return len(self._terms)

    def is_constant(self) -> bool:
        terms = self._terms
        return not terms or (len(terms) == 1 and () in terms)

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not a constant")
        return self.constant_term()

    def graded_degrees(self, graded: frozenset[str]) -> tuple[int, int]:
        """(min, max) degree over the graded parameters; (0, 0) for zero."""
        if not self._terms:
            return (0, 0)
        degs = [_mono_graded_degree(m, graded) for m in self._terms]
        return (min(degs), max(degs))

    def graded_part(self, graded: frozenset[str], degree: int) -> "Poly":
        """The sum of terms of exactly the given degree in the graded set."""
        return Poly({m: c for m, c in self._terms.items()
                     if _mono_graded_degree(m, graded) == degree})

    # -- ring operations ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __pos__(self) -> "Poly":
        return self

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self._terms.items()})

    def __add__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        # Poly is immutable, so a zero operand can return the other one.
        if not other._terms:
            return self
        if not self._terms:
            return other
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = out.get(mono)
            acc = coeff if acc is None else acc + coeff
            if acc:
                out[mono] = acc
            else:
                del out[mono]
        return _trusted(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = out.get(mono)
            acc = -coeff if acc is None else acc - coeff
            if acc:
                out[mono] = acc
            else:
                del out[mono]
        return _trusted(out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        mine, theirs = self._terms, other._terms
        if len(theirs) == 1 and () in theirs:
            mine, theirs = theirs, mine
        if len(mine) == 1 and () in mine:
            # A constant factor scales the other operand's terms: a product
            # of nonzero Fractions is nonzero, so nothing cancels.
            scale = mine[()]
            return _trusted({m: scale * c for m, c in theirs.items()})
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in mine.items():
            for m2, c2 in theirs.items():
                mono = _mono_mul(m1, m2)
                acc = out.get(mono, Fraction(0)) + c1 * c2
                if acc:
                    out[mono] = acc
                else:
                    out.pop(mono, None)
        return _trusted(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Poly.one()
        for _ in range(exponent):
            result = result * self
        return result

    def __truediv__(self, other):
        if isinstance(other, RatFunc):
            return NotImplemented
        if not isinstance(other, Poly):
            frac = _coerce_fraction(other)
            if frac is None:
                return NotImplemented
            if not frac:
                raise ZeroDivisionError("division by zero scalar")
            return self * (1 / frac)
        return RatFunc(self, other)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self._terms == other._terms
        frac = _coerce_fraction(other)
        if frac is not None:
            return self._terms == ({(): frac} if frac else {})
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_term())
        return hash(frozenset(self._terms.items()))

    # -- workbench operations ------------------------------------------------

    def substitute(self, assignment: Mapping[str, int | Fraction]) -> "Poly":
        """Evaluate some parameters at exact rational values.

        Values must be exact rationals.  Parameters not mentioned survive
        symbolically; a name the polynomial lacks changes nothing.
        """
        clean: dict[str, Fraction] = {}
        for name, value in assignment.items():
            frac = _coerce_fraction(value)
            if frac is None:
                raise TypeError(f"substitution value {value!r} is not exact")
            clean[name] = frac
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            factor = coeff
            rest = []
            for name, e in mono:
                if name in clean:
                    factor *= clean[name] ** e
                else:
                    rest.append((name, e))
            if not factor:
                continue
            key = tuple(rest)
            acc = out.get(key, Fraction(0)) + factor
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        return _trusted(out)

    def truncate(self, order: TruncationOrder) -> "Poly":
        """Drop terms whose graded degree exceeds the truncation order."""
        return Poly({m: c for m, c in self._terms.items()
                     if _mono_graded_degree(m, order.graded) <= order.degree})

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for mono, coeff in sorted(self._terms.items()):
            sign = "-" if coeff < 0 else "+"
            mag = -coeff if coeff < 0 else coeff
            if not mono:
                body = _fraction_str(mag)
            elif mag == 1:
                body = _mono_str(mono)
            else:
                body = f"{_fraction_str(mag)}*{_mono_str(mono)}"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Poly({self})"


def _trusted(terms: dict[Monomial, Fraction]) -> Poly:
    """A Poly over terms that are already clean: nonzero Fractions, sorted
    monomials.  The dict becomes the polynomial's own."""
    result = Poly.__new__(Poly)
    result._terms = terms
    return result


def _operand(other) -> Poly | None:
    """The other operand of Poly arithmetic as a Poly; None for a RatFunc,
    which takes the operation over, or for anything that is not exact."""
    if isinstance(other, Poly):
        return other
    frac = _coerce_fraction(other)
    return None if frac is None else Poly.const(frac)


# The unit polynomial every unit denominator shares (Poly is immutable).
_ONE = Poly.one()


def _content(poly: Poly) -> Fraction:
    """Positive rational c such that poly/c has integer, coprime coefficients."""
    g = math.gcd(*(c.numerator for _, c in poly.items()))
    l = math.lcm(*(c.denominator for _, c in poly.items()))
    return Fraction(g, l) if g else Fraction(1)


def _mono_divides(a: Monomial, b: Monomial) -> bool:
    exps = dict(b)
    return all(exps.get(name, 0) >= e for name, e in a)


def _mono_quotient(b: Monomial, a: Monomial) -> Monomial:
    exps = dict(b)
    for name, e in a:
        exps[name] -= e
    return tuple(sorted((n, e) for n, e in exps.items() if e))


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Division with remainder by a single divisor, graded-lex order."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    names = sorted(a.parameters() | b.parameters())

    def key(mono: Monomial):
        exps = dict(mono)
        return (sum(exps.values()), tuple(exps.get(n, 0) for n in names))

    def leading(p: Poly):
        return max(p._terms.items(), key=lambda item: key(item[0]))

    lb_mono, lb_coeff = leading(b)
    quotient = Poly.zero()
    remainder = Poly.zero()
    work = a
    while work:
        lw_mono, lw_coeff = leading(work)
        if _mono_divides(lb_mono, lw_mono):
            t = Poly({_mono_quotient(lw_mono, lb_mono): lw_coeff / lb_coeff})
            quotient = quotient + t
            work = work - t * b
        else:
            t = Poly({lw_mono: lw_coeff})
            remainder = remainder + t
            work = work - t
    return quotient, remainder


class RatFunc:
    """Quotient of two parameter polynomials (denominator nonzero).

    Used for solutions of exact linear systems over the parameter field.
    Normalisation cancels shared monomial factors, rational content, and
    exact polynomial divisors; equality is decided by cross-multiplication,
    so instances are deliberately unhashable.
    """

    __slots__ = ("num", "den")
    __hash__ = None  # structural normal form is not canonical; see __eq__

    def __init__(self, num, den=None):
        num = as_poly(num)
        den = _ONE if den is None else as_poly(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            den = _ONE
        elif den.is_constant():
            # What _reduce returns, without its division by a constant;
            # over a unit denominator the numerator is kept as it is.
            scale = den.constant_term()
            if scale != 1:
                num = num * (1 / scale)
            den = _ONE
        else:
            num, den = self._reduce(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def _reduce(num: Poly, den: Poly) -> tuple[Poly, Poly]:
        # Cancel a common monomial factor.
        common: dict[str, int] | None = None
        for poly in (num, den):
            for mono, _ in poly.items():
                exps = dict(mono)
                if common is None:
                    common = exps
                else:
                    common = {n: min(e, exps.get(n, 0))
                              for n, e in common.items() if exps.get(n, 0)}
                if not common:
                    break
        if common:
            shift = tuple(sorted(common.items()))
            num = Poly({_mono_quotient(m, shift): c for m, c in num.items()})
            den = Poly({_mono_quotient(m, shift): c for m, c in den.items()})
        # Attempt exact division.
        q, r = poly_divmod(num, den)
        if not r:
            return q, _ONE
        # Normalise the denominator: integer coefficients, positive leading.
        scale = _content(den)
        if den.leading_coefficient() < 0:
            scale = -scale
        return num * (1 / scale), den * (1 / scale)

    def as_poly(self) -> Poly | None:
        return self.num if self.den == _ONE else None

    def __bool__(self):
        return bool(self.num)

    @staticmethod
    def _coerce(value):
        if isinstance(value, RatFunc):
            return value
        try:
            return RatFunc(as_poly(value))
        except TypeError:
            return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def substitute(self, assignment: Mapping[str, int | Fraction]) -> "RatFunc":
        den = self.den.substitute(assignment)
        if not den:
            raise ZeroDivisionError("denominator vanishes at this point")
        return RatFunc(self.num.substitute(assignment), den)

    def parameters(self) -> frozenset[str]:
        return self.num.parameters() | self.den.parameters()

    def __str__(self):
        if self.den == _ONE:
            return str(self.num)
        num = str(self.num)
        den = str(self.den)
        if " " in num or num.startswith("-"):
            num = f"({num})"
        if " " in den:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"RatFunc({self})"


def scalar_str(value) -> str:
    """Canonical rendering for any workbench scalar."""
    if isinstance(value, (Poly, RatFunc)):
        return str(value)
    return str(as_poly(value))
