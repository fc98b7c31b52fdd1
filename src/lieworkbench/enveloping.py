"""Truncated universal envelopes, twists, and R-matrices.

Elements live in the universal enveloping algebra of a Lie superalgebra
(or its tensor square/cube), with polynomial coefficients truncated at a
fixed total degree in designated deformation parameters.  Every product
is rewritten to the Poincare-Birkhoff-Witt normal form ordered by basis
declaration order; an odd generator squares to half its self-bracket, so
odd letters never repeat in a normal word.

One class, ``TensorUEA``, holds a sum in any tensor power; an enveloping
element is the rank-1 tensor, ``UEAElement``, whose ``terms`` are keyed
by the word alone.  Terms are stored on graded keys ``{(slot words...,
k): coeff}``, where ``k`` is the degree in the graded parameters of the
truncation order.  With a single graded parameter its power is implied
by ``k`` and factored out, so ``coeff`` is a ``Fraction``, or a ``Poly``
in the spectator (non-graded) parameters only.  Products and PBW
rewriting read the degrees off the keys and never multiply a pair, or
keep a rewrite term, whose degrees add up past the order; truncating
before multiplying is exactly truncating afterwards.  The public
``terms`` mapping ``{slot words: Poly}`` is assembled from the graded
keys on first use.

A product joins two normal words slot by slot.  When one side is empty,
or the left word's last letter precedes the right word's first, or the
two are the same even letter, the joined word is already normal: its
rewrite is the word itself with coefficient 1, so it is appended as it
is (one shared tuple per joined word) and never enters the rewriting
memo.  Only a junction that is out of order, or an odd letter meeting
itself (x x = [x, x] / 2), is rewritten.

The product runs on integers.  Each factor's coefficients are multiplied
by their least common denominator D, which turns a ``Fraction`` into an
``int`` and leaves a ``Poly`` a ``Poly`` with integral coefficients; the
pair loop multiplies and sums these, and each output term is divided by
D1*D2 once.  The rewriting and coproduct memos store integral
coefficients as ``int`` too; the 1/2 of an odd square stays a
``Fraction``, and sums mixing the two stay exact.  The twist cocycle and
quantum Yang-Baxter residuals scale their input once, form both sides
over one denominator, subtract in integers and divide back only the
residual's terms.  Every element and tensor the module returns holds
``Fraction`` or ``Poly`` coefficients only.  The memos keep bare terms,
never an element that points back at its algebra, so an algebra and its
memos are freed with their last user, without the cyclic garbage
collector.

On top of the arithmetic the module builds the jordanian twist
F = exp(h (x) sigma) with sigma = (1/2)log(1 + 2 xi x) over the solvable
pair {h, x | [h, x] = 2x}, its extension over sl(N), the twist 2-cocycle
residual, the triangular R-matrix R = F_21 F^{-1} with its quantum
Yang-Baxter residual, the slot-factored form of that R-matrix, and the
extraction of the classical r-matrix from the first deformation order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .catalog import cartan_name, make_borel, make_sl, pair_name
from .liealg import (
    Element,
    LieSuperAlgebra,
    SparseSum,
    Tensor,
    accumulate,
    render_sum,
)
from .scalars import (
    Poly,
    TruncationOrder,
    UnsupportedInputError,
    as_poly,
    param,
    scalar_str,
)

__all__ = [
    "UEA",
    "UEAElement",
    "TensorUEA",
    "pbw_normalize",
    "tensor_product",
    "coproduct",
    "counit",
    "exp_trunc",
    "log_trunc",
    "invert_trunc",
    "build_jordanian_twist",
    "build_extended_twist",
    "twist_cocycle_check",
    "twist_counit_ok",
    "universal_R",
    "classical_limit",
    "qybe_check",
    "factored_r_matrix",
]

Word = tuple[int, ...]
# A stored coefficient: the scalar at one graded degree (see the module
# docstring).  Inside the product kernel and the memos an integral one is
# an int.
Coeff = Union[Fraction, Poly]
# A graded key: the slot words followed by the graded degree.
Key = tuple


class UEA:
    """A universal enveloping algebra with a fixed truncation order.

    Words are tuples of basis indices; the normal form is weakly
    increasing in the basis declaration order with odd indices appearing
    at most once.  Rewriting results are memoised per instance, split by
    graded degree and untruncated.
    """

    def __init__(self, algebra: LieSuperAlgebra, order: TruncationOrder):
        self.algebra = algebra
        self.order = order
        graded = sorted(order.graded)
        # A lone graded parameter's power is implied by a term's degree,
        # so stored coefficients leave it out.
        self._factored = graded[0] if len(graded) == 1 else None
        self._odd = any(algebra.basis.parities)
        # Rewrites and coproducts of words, integral coefficients as ints.
        self._normal: dict[Word, dict[tuple[Word, int], Coeff]] = {}
        # One shared tuple per word that a product joins without rewriting.
        self._joined: dict[Word, Word] = {}
        # Coproducts of words as bare graded terms: a cached TensorUEA
        # would point back here and keep this instance alive in a cycle.
        self._delta: dict[Word, dict[Key, Coeff]] = {}

    def __repr__(self):
        return f"UEA({self.algebra.name}, order {self.order.degree})"

    # -- scalars ------------------------------------------------------------

    def _split(self, scalar) -> dict[int, Coeff]:
        """A scalar as {graded degree: stored coefficient}, every degree
        kept."""
        graded, factored = self.order.graded, self._factored
        parts: dict[int, dict] = {}
        for mono, c in as_poly(scalar).items():
            k = sum(e for name, e in mono if name in graded)
            if k and factored:
                mono = tuple(p for p in mono if p[0] != factored)
            parts.setdefault(k, {})[mono] = c
        return {k: monos[()] if len(monos) == 1 and () in monos else Poly(monos)
                for k, monos in parts.items()}

    def _monomials(self, k: int, coeff: Coeff) -> dict:
        """The monomials of the scalar stored at graded degree k."""
        items = coeff.items() if isinstance(coeff, Poly) else [((), coeff)]
        if not (k and self._factored):
            return dict(items)
        power = ((self._factored, k),)
        return {tuple(sorted(mono + power)): c for mono, c in items}

    # -- elements -----------------------------------------------------------

    def zero(self) -> "UEAElement":
        return UEAElement(self, {})

    def one(self) -> "UEAElement":
        return UEAElement(self, {(): Poly.one()})

    def gen(self, name: str) -> "UEAElement":
        return UEAElement(self, {(self.algebra.basis.index(name),): 1})

    def lift(self, x: Element) -> "UEAElement":
        """A Lie-algebra element as a degree-1 enveloping element."""
        if x.basis != self.algebra.basis:
            raise ValueError("element lives over a different basis")
        index = self.algebra.basis.index
        return UEAElement(self, {(index(n),): c for n, c in x.coeffs.items()})

    def word_parity(self, word: Word) -> int:
        parities = self.algebra.basis.parities
        return sum(parities[i] for i in word) % 2

    def render_word(self, word: Word) -> str:
        if not word:
            return "1"
        names = self.algebra.basis.names
        chunks = []
        i = 0
        while i < len(word):
            j = i
            while j < len(word) and word[j] == word[i]:
                j += 1
            name = names[word[i]]
            chunks.append(name if j - i == 1 else f"{name}^{j - i}")
            i = j
        return "*".join(chunks)

    # -- PBW rewriting -------------------------------------------------------

    def normalize_word(self, word: Word) -> Mapping[tuple[Word, int], Coeff]:
        """Expand a raw word as {(normal word, graded degree): coefficient},
        untruncated; an integral coefficient is an int."""
        cached = self._normal.get(word)
        if cached is None:
            cached = self._rewrite(word)
            self._normal[word] = cached
        return cached

    def _rewrite(self, word: Word) -> dict[tuple[Word, int], Coeff]:
        parities = self.algebra.basis.parities
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            if a < b or (a == b and parities[a] == 0):
                continue
            head, tail = word[:i], word[i + 2:]
            out: dict[tuple[Word, int], Coeff] = {}
            if a > b:
                # x_a x_b = (-1)^{|a||b|} x_b x_a + [x_a, x_b]
                odd_swap = parities[a] and parities[b]
                for key, c in self.normalize_word(head + (b, a) + tail).items():
                    accumulate(out, key, -c if odd_swap else c)
                scale = Fraction(1)
            else:
                # adjacent equal odd letters: x x = [x, x] / 2
                scale = Fraction(1, 2)
            for target, c in self.algebra.structure[a][b]:
                shorter = head + (target,) + tail
                for k, coeff in self._split(c * scale).items():
                    for (w, kw), c2 in self.normalize_word(shorter).items():
                        accumulate(out, (w, k + kw), c2 * coeff)
            return {key: _narrow(c) for key, c in out.items()}
        return {(word, 0): 1}

    def _word_coproduct(self, word: Word) -> dict[Key, Coeff]:
        """The memoised coproduct of one PBW word as rank-2 graded terms.
        Its slots join in order, so every coefficient is an int."""
        cached = self._delta.get(word)
        if cached is None:
            cached = {((), (), 0): 1}
            for i in word:
                cached = _product_terms(self, 2, cached,
                                        {((i,), (), 0): 1, ((), (i,), 0): 1})
            self._delta[word] = cached
        return cached

    def coproduct_of_word(self, word: Word) -> "TensorUEA":
        """The coproduct of one PBW word as a rank-2 tensor."""
        return TensorUEA._trusted(self, 2,
                                  _fractions(self._word_coproduct(word), 1))


# -- the shared term kernel ------------------------------------------------------


def _narrow(c: Coeff) -> Coeff:
    """An integral Fraction as an int; anything else as it is."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _integral(coeffs: Mapping[Key, Coeff]) -> tuple[dict[Key, Coeff], int]:
    """(terms times D, D) for the least common denominator D of the
    coefficients: a Fraction becomes an int, and a Poly stays a Poly with
    integral coefficients."""
    D = 1
    for c in coeffs.values():
        dens = ([v.denominator for _, v in c.items()] if isinstance(c, Poly)
                else (c.denominator,))
        for den in dens:
            if D % den:
                D = math.lcm(D, den)
    return {key: c * D if isinstance(c, Poly) else c.numerator * (D // c.denominator)
            for key, c in coeffs.items()}, D


def _fractions(coeffs: Mapping[Key, Coeff], D: int) -> dict[Key, Coeff]:
    """Terms over the common denominator D divided back, each coefficient
    a Fraction or a Poly."""
    scale = Fraction(1, D)
    return {key: c * scale if isinstance(c, Poly) else Fraction(c, D)
            for key, c in coeffs.items()}


def _extend(uea: UEA, partial: list, word: Word) -> list:
    """Append the normal form of one raw slot word to each partial key
    (words so far, degree, coefficient), dropping terms past the order."""
    top = uea.order.degree
    normal = uea.normalize_word(word).items()
    grown = []
    for words, d, c in partial:
        for (w, dw), nc in normal:
            if d + dw <= top:
                grown.append((words + (w,), d + dw, c * nc))
    return grown


def _normal_terms(uea: UEA, terms: Iterable[tuple[tuple[Word, ...], object]]
                  ) -> dict[Key, Coeff]:
    """Graded terms of {raw slot words: scalar} input: each scalar is
    truncated, split by degree, and every slot word normalised."""
    out: dict[Key, Coeff] = {}
    for words, coeff in terms:
        poly = as_poly(coeff).truncate(uea.order)
        for k, c in uea._split(poly).items():
            partial = [((), k, c)]
            for w in words:
                partial = _extend(uea, partial, w)
            for done, d, c2 in partial:
                accumulate(out, done + (d,), c2)
    return out


def _koszul_odd(uea: UEA, key1: Key, key2: Key, rank: int) -> bool:
    """Whether moving the right factor's slots past the left factor's
    later slots is an odd permutation of odd words."""
    parity = uea.word_parity
    crossings = sum(parity(key2[i]) * parity(key1[j])
                    for i in range(rank) for j in range(i + 1, rank))
    return crossings % 2 == 1


def _product_terms(uea: UEA, rank: int, left: Mapping[Key, Coeff],
                   right: Mapping[Key, Coeff]) -> dict[Key, Coeff]:
    """Slot-wise product of graded terms with Koszul signs, on their
    coefficients as given (ints over a common denominator, except in a
    tensor product, whose factors fill disjoint slots).
    The right factor's terms are visited by degree, so a pair whose
    degrees add up past the order is never formed.

    Both factors' words are normal, so a slot whose junction is already in
    order (one side empty, a[-1] < b[0], or an equal even letter) joins
    into a normal word with coefficient 1 and skips the rewriting; only
    the other slots go through ``_extend``."""
    top = uea.order.degree
    parities = uea.algebra.basis.parities
    joined = uea._joined
    by_degree: list[list] = [[] for _ in range(top + 1)]
    for item in right.items():
        by_degree[item[0][-1]].append(item)
    signed = uea._odd and rank > 1
    out: dict[Key, Coeff] = {}
    for key1, c1 in left.items():
        d1 = key1[-1]
        for bucket in by_degree[:top - d1 + 1]:
            for key2, c2 in bucket:
                coeff = c1 * c2
                if signed and _koszul_odd(uea, key1, key2, rank):
                    coeff = -coeff
                d = d1 + key2[-1]
                words: tuple = ()
                partial = None
                for i in range(rank):
                    a, b = key1[i], key2[i]
                    if not b:
                        w = a
                    elif not a:
                        w = b
                    else:
                        w = a + b
                        last, first = a[-1], b[0]
                        if last < first or (last == first and not parities[last]):
                            w = joined.setdefault(w, w)
                        else:
                            # x_a x_b with a > b, or an odd x x = [x, x] / 2
                            if partial is None:
                                partial = [(words, d, coeff)]
                            partial = _extend(uea, partial, w)
                            continue
                    if partial is None:
                        words += (w,)
                    else:
                        partial = [(ws + (w,), dw, c) for ws, dw, c in partial]
                if partial is None:
                    accumulate(out, words + (d,), coeff)
                else:
                    for ws, dw, c in partial:
                        accumulate(out, ws + (dw,), c)
    return out


def _product(left: "TensorUEA", right: "TensorUEA") -> dict[Key, Coeff]:
    """The product of two sums' terms: each factor is scaled to integers
    by its common denominator, multiplied by the integer kernel, and every
    output term is divided by both denominators once."""
    ints1, D1 = _integral(left.coeffs)
    ints2, D2 = _integral(right.coeffs)
    return _fractions(_product_terms(left.uea, left.rank, ints1, ints2), D1 * D2)


def _coproduct_terms(uea: UEA, data: Mapping[Key, Coeff], slot: int
                     ) -> dict[Key, Coeff]:
    """Apply the coproduct to one slot of graded terms."""
    top = uea.order.degree
    out: dict[Key, Coeff] = {}
    for key, c in data.items():
        k = key[-1]
        for dkey, c2 in uea._word_coproduct(key[slot]).items():
            d = k + dkey[-1]
            if d <= top:
                accumulate(out, key[:slot] + dkey[:2] + key[slot + 1:-1] + (d,),
                           c * c2)
    return out


def _embedded(coeffs: Mapping[Key, Coeff], rank: int, slots: tuple[int, ...]
              ) -> dict[Key, Coeff]:
    """Graded terms with their slots placed at the given positions of a
    larger rank, the rest filled with the empty word."""
    out: dict[Key, Coeff] = {}
    for key, c in coeffs.items():
        new_key: list = [()] * rank + [key[-1]]
        for pos, w in zip(slots, key):
            new_key[pos] = w
        out[tuple(new_key)] = c
    return out


def _by_size(words: tuple[Word, ...]):
    """Order slot words by their total number of letters, then by the
    words themselves."""
    return sum(map(len, words)), words


class TensorUEA(SparseSum):
    """A rank-n tensor power of the enveloping algebra (slot-wise PBW).

    Its terms are nonzero ``coeffs`` on graded keys (slot words...,
    degree), every word in normal form and every degree within the order.
    Multiplication is slot-wise with Koszul signs: moving the right
    factor's slot i past the left factor's slots j > i contributes
    (-1)^{|w_i||u_j|}.  For purely even algebras this is plain slot-wise
    multiplication.  ``terms`` maps each tuple of normal slot words to its
    coefficient.  Scaling is graded and ``*`` also multiplies two sums;
    the rest is :class:`SparseSum`.  An enveloping element is the rank-1
    case, :class:`UEAElement`.
    """

    __slots__ = ("uea", "rank", "_view")

    def __init__(self, uea: UEA, rank: int,
                 terms: Mapping[tuple[Word, ...], object]):
        if rank < 1:
            raise ValueError("tensor rank must be at least 1")
        keyed = []
        for key, coeff in terms.items():
            key = tuple(tuple(w) for w in key)
            if len(key) != rank:
                raise ValueError(f"key {key!r} does not have rank {rank}")
            keyed.append((key, coeff))
        self.uea = uea
        self.rank = rank
        self.coeffs = _normal_terms(uea, keyed)
        self._view = None

    @classmethod
    def _trusted(cls, uea: UEA, rank: int, coeffs: dict[Key, Coeff]):
        """Wrap terms that are already normal and truncated."""
        out = object.__new__(cls)
        out.uea = uea
        out.rank = rank
        out.coeffs = coeffs
        out._view = None
        return out

    @staticmethod
    def unit(uea: UEA, rank: int = 2) -> "TensorUEA":
        return TensorUEA(uea, rank, {((),) * rank: Poly.one()})

    def _one(self):
        """The unit of this sum's rank and class."""
        return self._like({((),) * self.rank + (0,): Fraction(1)})

    def _like(self, coeffs: dict[Key, Coeff]):
        return self._trusted(self.uea, self.rank, coeffs)

    def _same_space(self, other: "TensorUEA") -> bool:
        return self.rank == other.rank and (
            self.uea is other.uea
            or (self.uea.algebra == other.uea.algebra
                and self.uea.order == other.uea.order))

    @staticmethod
    def _slot_key(words: tuple[Word, ...]):
        """The ``terms`` key of a term's slot words."""
        return words

    @property
    def terms(self) -> Mapping:
        """{slot words: Poly}, assembled from the graded keys."""
        if self._view is None:
            groups: dict = {}
            for key, c in self.coeffs.items():
                groups.setdefault(self._slot_key(key[:-1]), {}).update(
                    self.uea._monomials(key[-1], c))
            self._view = {key: Poly(monos) for key, monos in groups.items()}
        return self._view

    # -- arithmetic -----------------------------------------------------------

    def scaled(self, scalar):
        top = self.uea.order.degree
        out: dict[Key, Coeff] = {}
        for ks, s in self.uea._split(scalar).items():
            for key, c in self.coeffs.items():
                d = key[-1] + ks
                if d <= top:
                    accumulate(out, key[:-1] + (d,), c * s)
        return self._like(out)

    def __mul__(self, other):
        if isinstance(other, TensorUEA):
            self._require_same_space(other)
            return self._like(_product(self, other))
        return self.scaled(other)

    # -- slot operations --------------------------------------------------------

    def flip(self) -> "TensorUEA":
        """a (x) b -> (-1)^{|a||b|} b (x) a (rank 2 only)."""
        if self.rank != 2:
            raise ValueError("flip is defined for rank-2 tensors")
        parity = self.uea.word_parity
        return self._like({
            (w2, w1, k): -c if parity(w1) and parity(w2) else c
            for (w1, w2, k), c in self.coeffs.items()})

    def embed(self, rank: int, slots: tuple[int, ...]) -> "TensorUEA":
        """Place the slots at the given (increasing) positions of a larger
        rank, filling the rest with the unit.  The unit is even, so no
        Koszul signs arise."""
        if len(slots) != self.rank:
            raise ValueError("need one target position per slot")
        if list(slots) != sorted(set(slots)) or slots[-1] >= rank:
            raise ValueError("positions must be strictly increasing and fit")
        return TensorUEA._trusted(self.uea, rank,
                                  _embedded(self.coeffs, rank, slots))

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.rank:
            raise ValueError(
                f"slot {slot} is out of range for a rank-{self.rank} tensor "
                f"(slots 0 to {self.rank - 1})")

    def coproduct_slot(self, slot: int) -> "TensorUEA":
        """Apply the coproduct to one slot, raising the rank by one."""
        self._check_slot(slot)
        return TensorUEA._trusted(self.uea, self.rank + 1,
                                  _coproduct_terms(self.uea, self.coeffs, slot))

    def counit_slot(self, slot: int):
        """Apply the counit to one slot (the rank drops by one); a rank-2
        tensor collapses to an enveloping-algebra element."""
        self._check_slot(slot)
        if self.rank == 1:
            raise ValueError("the counit of a rank-1 tensor is a scalar; "
                             "counit_slot needs rank at least 2")
        out = {key[:slot] + key[slot + 1:]: c
               for key, c in self.coeffs.items() if not key[slot]}
        kind = UEAElement if self.rank == 2 else TensorUEA
        return kind._trusted(self.uea, self.rank - 1, out)

    def leading_term(self) -> tuple[tuple[str, ...], Poly] | None:
        """(rendered slot words, coefficient) of the least term, or None."""
        words = min((key[:-1] for key in self.coeffs), key=_by_size,
                    default=None)
        if words is None:
            return None
        return (tuple(map(self.uea.render_word, words)),
                self.terms[self._slot_key(words)])

    # -- rendering ------------------------------------------------------------------

    def __str__(self):
        terms, render = self.terms, self.uea.render_word
        return render_sum(
            (scalar_str(terms[self._slot_key(words)]),
             "(x)".join(map(render, words)))
            for words in sorted({key[:-1] for key in self.coeffs},
                                key=_by_size))

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class UEAElement(TensorUEA):
    """A truncated enveloping-algebra element: the rank-1 tensor.

    The constructor accepts arbitrary words and normalises them, so any
    {word: scalar} mapping is a valid input.  ``terms`` maps each normal
    word to its coefficient.
    """

    __slots__ = ()

    def __init__(self, uea: UEA, terms: Mapping[Word, object]):
        super().__init__(uea, 1, {(word,): c for word, c in terms.items()})

    @staticmethod
    def _slot_key(words: tuple[Word, ...]):
        return words[0]

    # Each class owns its product entry point, so the two can be timed
    # apart.
    __mul__ = TensorUEA.__mul__

    def unit_coefficient(self) -> Poly:
        return self.terms.get((), Poly.zero())


# -- constructors -------------------------------------------------------------


def pbw_normalize(uea: UEA, factors: Iterable) -> UEAElement:
    """Product of the factors in the written order, in PBW normal form.

    Each factor is a generator name or a Lie-algebra element.
    """
    result = uea.one()
    for factor in factors:
        piece = uea.gen(factor) if isinstance(factor, str) else uea.lift(factor)
        result = result * piece
    return result


def tensor_product(*factors: UEAElement) -> TensorUEA:
    """u1 (x) u2 (x) ... over the common enveloping algebra."""
    if not factors:
        raise ValueError("tensor_product needs at least one factor")
    uea, rank = factors[0].uea, len(factors)
    terms: dict[Key, Coeff] = {((),) * rank + (0,): Fraction(1)}
    for slot, factor in enumerate(factors):
        factors[0]._require_same_space(factor)
        terms = _product_terms(uea, rank, terms,
                               _embedded(factor.coeffs, rank, (slot,)))
    return TensorUEA._trusted(uea, rank, terms)


def coproduct(u: UEAElement) -> TensorUEA:
    """The coproduct: an algebra map with every generator primitive."""
    return u.coproduct_slot(0)


def counit(u: UEAElement) -> Poly:
    """The counit: kills every generator, keeps the unit coefficient."""
    return u.unit_coefficient()


# -- truncated series ----------------------------------------------------------


def _power_series(what: str, start, v, coefficient):
    """start + sum over k >= 1 of coefficient(k) * v^k, truncated at the
    order; v must vanish at deformation degree 0, so the sum is finite."""
    if any(key[-1] == 0 for key in v.coeffs):
        raise UnsupportedInputError(
            f"{what} needs every term to carry positive deformation degree")
    result = start
    power = v._one()
    for k in range(1, v.uea.order.degree + 1):
        power = power * v
        if not power:
            break
        result = result + power.scaled(coefficient(k))
    return result


def exp_trunc(u):
    """Truncated exponential; u must vanish at deformation degree 0."""
    return _power_series("exp_trunc", u._one(), u,
                         lambda k: Fraction(1, math.factorial(k)))


def log_trunc(u):
    """Truncated logarithm; u - 1 must vanish at deformation degree 0."""
    v = u - u._one()
    return _power_series("log_trunc", v.scaled(0), v,
                         lambda k: Fraction((-1) ** (k + 1), k))


def invert_trunc(u):
    """Inverse of u = 1 + v by the geometric series; v must vanish at
    deformation degree 0."""
    one = u._one()
    return _power_series("invert_trunc", one, u - one, lambda k: (-1) ** k)


# -- twists ---------------------------------------------------------------------


def _deformation_order(degree: int) -> TruncationOrder:
    if degree < 1:
        raise ValueError("truncation order must be at least 1")
    return TruncationOrder(degree, frozenset({"xi"}))


def _half_log_shift(uea: UEA, x: UEAElement, xi: Poly) -> UEAElement:
    """sigma = (1/2) log(1 + 2 xi x)."""
    return log_trunc(uea.one() + x.scaled(xi * 2)).scaled(Fraction(1, 2))


def build_jordanian_twist(order: int) -> TensorUEA:
    """F = exp(h (x) sigma), sigma = (1/2)log(1 + 2 xi x), over {h, x}."""
    uea = UEA(make_borel(), _deformation_order(order))
    sigma = _half_log_shift(uea, uea.gen("x"), param("xi"))
    return exp_trunc(tensor_product(uea.gen("h"), sigma))


def _sl_twist_parts(N: int, order: int):
    """Shared ingredients of the extended twist over sl(N)."""
    uea = UEA(make_sl(N), _deformation_order(order))
    xi = param("xi")
    x = uea.gen(pair_name("E", 1, N, N))
    cartan = uea.zero()
    for k in range(1, N):
        cartan = cartan + uea.gen(cartan_name(k))
    sigma = _half_log_shift(uea, x, xi)
    return uea, xi, cartan, sigma


def build_extended_twist(N: int, order: int) -> TensorUEA:
    """F = exp{2 xi sum_i E_1i (x) E_iN e^{-sigma}} exp{H (x) sigma}
    over sl(N), with x = E_1N, H the Cartan element dual to that root,
    sigma = (1/2)log(1 + 2 xi x), and i running over 2..N-1."""
    if N < 3:
        raise ValueError("the extended twist needs N >= 3")
    uea, xi, cartan, sigma = _sl_twist_parts(N, order)
    damp = exp_trunc(-sigma)
    carrier = TensorUEA(uea, 2, {})
    for i in range(2, N):
        left = uea.gen(pair_name("E", 1, i, N))
        right = uea.gen(pair_name("E", i, N, N)) * damp
        carrier = carrier + tensor_product(left, right).scaled(xi * 2)
    return exp_trunc(carrier) * exp_trunc(tensor_product(cartan, sigma))


def factored_r_matrix(N: int, order: int) -> TensorUEA:
    """The slot-factored R-matrix of the extended twist:

    prod_j exp(2 xi E_jN e^{-sigma} (x) E_1j) * exp(sigma (x) H)
    * exp(-H (x) sigma) * prod_j exp(-2 xi E_1j (x) E_jN e^{-sigma}),

    with j ascending over 2..N-1 in both products.
    """
    if N < 3:
        raise ValueError("the factored R-matrix needs N >= 3")
    uea, xi, cartan, sigma = _sl_twist_parts(N, order)
    damp = exp_trunc(-sigma)
    pairs = [(uea.gen(pair_name("E", j, N, N)) * damp,
              uea.gen(pair_name("E", 1, j, N))) for j in range(2, N)]
    result = TensorUEA.unit(uea, 2)
    for lowered, raiser in pairs:
        result = result * exp_trunc(tensor_product(lowered, raiser).scaled(xi * 2))
    result = result * exp_trunc(tensor_product(sigma, cartan))
    result = result * exp_trunc(-tensor_product(cartan, sigma))
    for lowered, raiser in pairs:
        result = result * exp_trunc(tensor_product(raiser, lowered).scaled(xi * -2))
    return result


# -- checks ----------------------------------------------------------------------


def _residual(uea: UEA, lhs: dict[Key, Coeff], rhs: Mapping[Key, Coeff],
              D: int) -> TensorUEA:
    """lhs - rhs, both over the common denominator D, divided back."""
    for key, c in rhs.items():
        accumulate(lhs, key, c, -1)
    return TensorUEA._trusted(uea, 3, _fractions(lhs, D))


def twist_cocycle_check(F: TensorUEA) -> TensorUEA:
    """Residual F_12 (Delta (x) id)F - F_23 (id (x) Delta)F; zero iff F
    satisfies the twist 2-cocycle identity at the working order."""
    if F.rank != 2:
        raise ValueError("a twist must be a rank-2 tensor")
    uea = F.uea
    ints, D = _integral(F.coeffs)
    lhs = _product_terms(uea, 3, _embedded(ints, 3, (0, 1)),
                         _coproduct_terms(uea, ints, 0))
    rhs = _product_terms(uea, 3, _embedded(ints, 3, (1, 2)),
                         _coproduct_terms(uea, ints, 1))
    return _residual(uea, lhs, rhs, D * D)


def twist_counit_ok(F: TensorUEA) -> bool:
    """Counit normalisation: applying the counit to either slot gives 1."""
    one = F.uea.one()
    return F.counit_slot(0) == one and F.counit_slot(1) == one


def universal_R(F: TensorUEA) -> TensorUEA:
    """R = F_21 F^{-1} (flip, then geometric-series inverse)."""
    if F.rank != 2:
        raise ValueError("a twist must be a rank-2 tensor")
    return F.flip() * invert_trunc(F)


def classical_limit(R: TensorUEA) -> Tensor:
    """The deformation-degree-1 part of R - 1 (x) 1 as a tensor over the
    underlying Lie algebra.

    R must reduce to the unit tensor at deformation degree 0, and every
    first-order term must be a single generator in each slot; anything
    else signals a non-Lie first order and raises an error.
    """
    if R.rank != 2:
        raise ValueError("classical limits are taken of rank-2 tensors")
    uea = R.uea
    basis = uea.algebra.basis
    delta = R - TensorUEA.unit(uea, 2)
    if any(key[-1] == 0 for key in delta.coeffs):
        raise UnsupportedInputError(
            "R does not reduce to the unit tensor at deformation degree 0")
    coeffs: dict[tuple[str, str], Poly] = {}
    for (w1, w2, k), c in delta.coeffs.items():
        if k != 1:
            continue
        if len(w1) != 1 or len(w2) != 1:
            raise UnsupportedInputError(
                "first-order term is not linear in each tensor slot: "
                f"{uea.render_word(w1)}(x){uea.render_word(w2)}")
        coeffs[(basis.names[w1[0]], basis.names[w2[0]])] = Poly(
            uea._monomials(1, c))
    return Tensor(basis, 2, coeffs)


def qybe_check(R: TensorUEA) -> TensorUEA:
    """Residual R_12 R_13 R_23 - R_23 R_13 R_12 at the working order."""
    if R.rank != 2:
        raise ValueError("the quantum Yang-Baxter check needs a rank-2 tensor")
    uea = R.uea
    ints, D = _integral(R.coeffs)
    r12, r13, r23 = (_embedded(ints, 3, slots)
                     for slots in ((0, 1), (0, 2), (1, 2)))
    lhs = _product_terms(uea, 3, _product_terms(uea, 3, r12, r13), r23)
    rhs = _product_terms(uea, 3, _product_terms(uea, 3, r23, r13), r12)
    return _residual(uea, lhs, rhs, D ** 3)
