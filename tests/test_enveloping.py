"""Truncated enveloping algebras, twists, R-matrices, and classical limits."""

from __future__ import annotations

import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lieworkbench import enveloping
from lieworkbench.bialgebra import proportionality_constant
from lieworkbench.catalog import (
    catalog_get,
    make_borel,
    make_osp12,
    make_rborel,
    make_rjordan,
    make_sl,
)
from lieworkbench.enveloping import (
    TensorUEA,
    UEA,
    UEAElement,
    build_extended_twist,
    build_jordanian_twist,
    classical_limit,
    coproduct,
    counit,
    exp_trunc,
    factored_r_matrix,
    invert_trunc,
    log_trunc,
    pbw_normalize,
    qybe_check,
    tensor_product,
    twist_cocycle_check,
    twist_counit_ok,
    universal_R,
)
from lieworkbench.liealg import GradedBasis, LieSuperAlgebra, accumulate
from lieworkbench.scalars import (
    Poly,
    TruncationOrder,
    UnsupportedInputError,
    param,
)

XI = param("xi")
ETA = param("eta")
T = param("t")
VP, VM = 3, 4  # the odd letters of osp12

UNTRUNCATED = TruncationOrder(0, frozenset())


def _random_element(rng: random.Random, uea: UEA, terms: int = 2):
    out = uea.zero()
    names = uea.algebra.basis.names
    for _ in range(terms):
        word = tuple(rng.choice(names) for _ in range(rng.randint(0, 2)))
        out = out + pbw_normalize(uea, word).scaled(rng.randint(-2, 2))
    return out


# -- normal ordering -------------------------------------------------------------------


def test_pbw_reordering_on_the_borel_algebra():
    U = UEA(make_borel(), UNTRUNCATED)
    h, x = U.gen("h"), U.gen("x")
    assert str(x * h) == "-2*x + h*x"
    assert str(h * x) == "h*x"


def test_odd_squares_collapse_to_even_generators():
    A, _, _, _ = make_osp12()
    U = UEA(A, UNTRUNCATED)
    vp, vm = U.gen("vp"), U.gen("vm")
    assert str(vp * vp) == "1/4*Xp"
    assert str(vm * vm) == "-1/4*Xm"
    assert str(vm * vp) == "-1/4*h - vp*vm"


def test_multiplication_is_associative():
    rng = random.Random(41)
    for algebra in (make_sl(2), make_osp12()[0]):
        U = UEA(algebra, UNTRUNCATED)
        for _ in range(6):
            u, v, w = (_random_element(rng, U) for _ in range(3))
            assert (u * v) * w == u * (v * w)


ALGEBRAS = {
    "borel": make_borel,
    "osp12": lambda: make_osp12()[0],
    "sl3": lambda: make_sl(3),
    # a deformed bracket, so PBW rewrites themselves raise the degree
    "borel.xi": lambda: LieSuperAlgebra(
        "borel.xi", GradedBasis(("h", "x")), {("h", "x"): {"x": XI * 2}}),
}


@st.composite
def _products(draw):
    """An algebra, an order, and two raw operands of a common rank 1-3:
    lists of (slot words in any letter order, coefficient mixing the
    graded xi and the spectator t)."""
    algebra = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]()
    order = draw(st.integers(0, 3))
    rank = draw(st.integers(1, 3))
    letters = st.integers(0, len(algebra.basis.names) - 1)
    words = st.tuples(*[st.lists(letters, max_size=2).map(tuple)] * rank)
    monomials = st.tuples(st.integers(-2, 2), st.integers(0, 3),
                          st.integers(0, 1))
    coeffs = st.lists(monomials, min_size=1, max_size=3).map(
        lambda ms: sum((XI ** i * T ** j * c for c, i, j in ms), Poly.zero()))
    operand = st.lists(st.tuples(words, coeffs), min_size=1, max_size=3)
    return algebra, order, rank, draw(operand), draw(operand)


def _operand(uea: UEA, rank: int, raw):
    terms: dict = {}
    for key, coeff in raw:
        terms[key] = terms.get(key, Poly.zero()) + coeff
    if rank == 1:
        return UEAElement(uea, {key[0]: c for key, c in terms.items()})
    return TensorUEA(uea, rank, terms)


@settings(max_examples=60, deadline=None, database=None)
@given(_products())
def test_truncated_products_match_products_cut_afterwards(case):
    algebra, order, rank, left, right = case
    cut = UEA(algebra, TruncationOrder(order, frozenset({"xi"})))
    full = UEA(algebra, UNTRUNCATED)  # xi is a spectator here
    product = _operand(cut, rank, left) * _operand(cut, rank, right)
    reference = _operand(full, rank, left) * _operand(full, rank, right)
    expected = {key: c.truncate(cut.order)
                for key, c in reference.terms.items()}
    assert product.terms == {key: c for key, c in expected.items() if c}


def _ref_product(left, right):
    """The product that sends every slot through ``_extend``: the general
    code the in-order joins and the unit-coefficient skip short-cut."""
    uea, rank = left.uea, left.rank
    top = uea.order.degree
    by_degree: list[list] = [[] for _ in range(top + 1)]
    for key, c in right.coeffs.items():
        by_degree[key[-1]].append((key, c))
    signed = uea._odd and rank > 1
    out: dict = {}
    for key1, c1 in left.coeffs.items():
        d1 = key1[-1]
        for bucket in by_degree[:top - d1 + 1]:
            for key2, c2 in bucket:
                coeff = c1 * c2
                if signed and enveloping._koszul_odd(uea, key1, key2, rank):
                    coeff = -coeff
                partial = [((), d1 + key2[-1], coeff)]
                for i in range(rank):
                    partial = enveloping._extend(uea, partial,
                                                 key1[i] + key2[i])
                for words, d, c in partial:
                    accumulate(out, words + (d,), c)
    return out


def _normal_word(parities, letters) -> tuple[int, ...]:
    """The letters weakly increasing, an odd letter kept once."""
    word: list[int] = []
    for i in sorted(letters):
        if not (parities[i] and word and word[-1] == i):
            word.append(i)
    return tuple(word)


def _normal_words(algebra, size):
    parities = algebra.basis.parities
    return st.lists(st.integers(0, len(parities) - 1), max_size=size).map(
        lambda letters: _normal_word(parities, letters))


@st.composite
def _graded_products(draw):
    """Two sets of graded terms of a common rank 1-3 over borel, sl3 or
    osp12, with Fraction coefficients (one graded parameter, often 1) or
    Poly coefficients (two graded parameters, homogeneous in them)."""
    name = draw(st.sampled_from(("borel", "sl3", "osp12")))
    algebra = catalog_get(name)
    order = draw(st.integers(0, 3))
    rank = draw(st.integers(1, 3))
    two = draw(st.booleans())
    words = st.tuples(*[_normal_words(algebra, 3)] * rank)
    fractions = st.one_of(st.just(Fraction(1)),
                          st.fractions(max_denominator=4).filter(bool))

    def coeff(k):
        if not two:
            return draw(fractions)
        parts = draw(st.lists(st.tuples(st.integers(0, k), fractions),
                              min_size=1, max_size=2,
                              unique_by=lambda part: part[0]))
        return sum((XI ** i * ETA ** (k - i) * c for i, c in parts),
                   Poly.zero())

    def terms():
        out = {}
        for key in draw(st.lists(words, min_size=1, max_size=4)):
            k = draw(st.integers(0, order))
            out[key + (k,)] = coeff(k)
        return out

    return name, order, rank, two, terms(), terms()


def _graded_operand(uea, rank, coeffs):
    kind = UEAElement if rank == 1 else TensorUEA
    return kind._trusted(uea, rank, coeffs)


@settings(max_examples=150, deadline=None, database=None)
@given(_graded_products())
# equal odd letters at a junction: vp vp, and vm vm beside an in-order slot
@example(("osp12", 2, 2, False, {((VP,), (VM,), 0): Fraction(1)},
          {((VP, VM), (), 1): Fraction(3, 2)}))
@example(("osp12", 1, 3, True,
          {((0, VM), (), (VP,), 0): Poly.one(),
           ((VM,), (VP,), (), 1): XI * 2},
          {((VM,), (1, VP), (VP,), 0): Poly.one() * 5,
           ((), (VP,), (VP, VM), 1): ETA * -1}))
def test_product_matches_the_rewrite_every_slot_product(case):
    name, order, rank, two, left, right = case
    graded = frozenset({"xi", "eta"} if two else {"xi"})
    ours = UEA(catalog_get(name), TruncationOrder(order, graded))
    ref = UEA(catalog_get(name), TruncationOrder(order, graded))
    product = enveloping._product(_graded_operand(ours, rank, left),
                                  _graded_operand(ours, rank, right))
    expected = _ref_product(_graded_operand(ref, rank, left),
                            _graded_operand(ref, rank, right))
    assert list(product.items()) == list(expected.items())


def test_lift_is_linear():
    A = make_sl(2)
    U = UEA(A, UNTRUNCATED)
    x = A.gen("E12").scaled(2) + A.gen("H1").scaled(-1)
    assert U.lift(x) == U.gen("E12").scaled(2) - U.gen("H1")


# -- coalgebra structure ----------------------------------------------------------------


def test_coproduct_is_an_algebra_homomorphism():
    rng = random.Random(43)
    A, _, _, _ = make_osp12()
    U = UEA(A, UNTRUNCATED)
    for _ in range(6):
        u, v = _random_element(rng, U), _random_element(rng, U)
        assert coproduct(u * v) == coproduct(u) * coproduct(v)


def test_counit_axiom():
    rng = random.Random(47)
    U = UEA(make_sl(2), UNTRUNCATED)
    for _ in range(4):
        u = _random_element(rng, U)
        two_sided = coproduct(u)
        assert two_sided.counit_slot(0) == u
        assert two_sided.counit_slot(1) == u
        assert counit(U.one()) == Poly.one()


@pytest.mark.parametrize("slot", [2, -1])
def test_slot_operations_refuse_a_slot_out_of_range(slot):
    F = build_jordanian_twist(2)
    for apply in (F.counit_slot, F.coproduct_slot):
        with pytest.raises(ValueError,
                           match=rf"slot {slot} is out of range for a rank-2"):
            apply(slot)


def test_the_counit_of_a_rank_one_tensor_is_refused():
    unit = TensorUEA.unit(UEA(make_borel(), UNTRUNCATED), 1)
    with pytest.raises(ValueError, match="counit of a rank-1 tensor"):
        unit.counit_slot(0)


def test_coproduct_of_a_generator_is_primitive():
    U = UEA(make_borel(), UNTRUNCATED)
    x = U.gen("x")
    assert coproduct(x) == tensor_product(x, U.one()) + tensor_product(U.one(), x)


# -- truncated series --------------------------------------------------------------------


def test_exp_and_log_are_mutually_inverse():
    U = UEA(make_borel(), TruncationOrder(3, frozenset({"xi"})))
    u = U.gen("x").scaled(XI * 2) + (U.gen("h") * U.gen("x")).scaled(XI * XI)
    assert log_trunc(exp_trunc(u)) == u
    assert exp_trunc(log_trunc(U.one() + u)) == U.one() + u


def test_log_of_a_geometric_unit():
    U = UEA(make_borel(), TruncationOrder(3, frozenset({"xi"})))
    u = U.one() + U.gen("x").scaled(XI * 2)
    assert str(log_trunc(u)) == "2*xi*x - 2*xi^2*x^2 + 8/3*xi^3*x^3"


def test_truncated_inverse():
    U = UEA(make_borel(), TruncationOrder(3, frozenset({"xi"})))
    u = U.one() + U.gen("x").scaled(XI) + (U.gen("h") * U.gen("h")).scaled(XI * XI)
    assert u * invert_trunc(u) == U.one()
    assert invert_trunc(u) * u == U.one()


def test_series_require_the_right_leading_term():
    U = UEA(make_borel(), TruncationOrder(2, frozenset({"xi"})))
    with pytest.raises(ValueError):
        exp_trunc(U.one())  # constant term must sit in positive degree
    with pytest.raises(ValueError):
        log_trunc(U.gen("x").scaled(XI))  # needs unit leading term


# -- the jordanian twist -------------------------------------------------------------------


def test_jordanian_twist_at_second_order():
    F = build_jordanian_twist(2)
    assert str(F) == "1(x)1 + xi*h(x)x - xi^2*h(x)x^2 + 1/2*xi^2*h^2(x)x^2"


def test_jordanian_twist_satisfies_the_cocycle_and_counit_laws():
    for order in (1, 2, 3):
        F = build_jordanian_twist(order)
        assert twist_counit_ok(F)
        assert not twist_cocycle_check(F)


def test_jordanian_R_matrix_and_its_classical_limit():
    for order in (1, 2, 3):
        R = universal_R(build_jordanian_twist(order))
        assert not qybe_check(R)
        limit = classical_limit(R)
        assert proportionality_constant(limit, make_rborel()) == XI * -1


# -- the extended twist ----------------------------------------------------------------------


def test_extended_twist_produces_the_jordanian_limit_on_sl3():
    F = build_extended_twist(3, 2)
    assert twist_counit_ok(F)
    assert not twist_cocycle_check(F)
    R = universal_R(F)
    assert not qybe_check(R)
    assert classical_limit(R) == make_rjordan(3)


def test_unit_word_prints_its_bare_coefficient():
    U = UEA(make_borel(), UNTRUNCATED)
    assert str(U.one().scaled(3) - U.gen("x")) == "3 - x"
    assert str(U.one().scaled(T + 1) - U.gen("h")) == "(1 + t) - h"
    assert str(U.one().scaled(-1)) == "-1"


def test_twist_renderings_are_frozen():
    assert str(universal_R(build_jordanian_twist(3))) == (
        "1(x)1 - xi*h(x)x + xi*x(x)h + xi^2*h(x)x^2 + 2*xi^2*x(x)h*x"
        " - xi^2*x^2(x)h - 4/3*xi^3*h(x)x^3 + 1/2*xi^2*h^2(x)x^2"
        " - xi^2*h*x(x)h*x + 1/2*xi^2*x^2(x)h^2 - 4*xi^3*x^2(x)h*x"
        " + 4/3*xi^3*x^3(x)h - xi^3*h^2(x)x^3 - xi^3*h*x(x)h*x^2"
        " + xi^3*h*x^2(x)h*x + 2*xi^3*x^2(x)h^2*x - xi^3*x^3(x)h^2"
        " - 1/6*xi^3*h^3(x)x^3 + 1/2*xi^3*h^2*x(x)h*x^2"
        " - 1/2*xi^3*h*x^2(x)h^2*x + 1/6*xi^3*x^3(x)h^3")
    assert str(build_extended_twist(3, 2)) == (
        "1(x)1 + xi*H1(x)E13 + xi*H2(x)E13 + 2*xi*E12(x)E23"
        " - xi^2*H1(x)E13^2 - xi^2*H2(x)E13^2 - 4*xi^2*E12(x)E13*E23"
        " + 1/2*xi^2*H1^2(x)E13^2 + xi^2*H1*H2(x)E13^2"
        " + 2*xi^2*H1*E12(x)E13*E23 + 1/2*xi^2*H2^2(x)E13^2"
        " + 2*xi^2*H2*E12(x)E13*E23 + 2*xi^2*E12^2(x)E23^2")


def test_non_solution_fails_qybe_with_a_leading_witness():
    A, _, _, _ = make_osp12()
    U = UEA(A, TruncationOrder(2, frozenset({"xi"})))
    R = TensorUEA.unit(U, 2) + tensor_product(U.gen("vp"), U.gen("vm")).scaled(XI)
    residual = qybe_check(R)
    assert residual.leading_term() == (("Xp", "vm", "vm"),
                                       XI * XI * Fraction(-1, 2))
    assert str(residual) == ("-1/2*xi^2*Xp(x)vm(x)vm - 1/4*xi^2*vp(x)h(x)vm"
                             " + 1/2*xi^2*vp(x)vp(x)Xm")


@pytest.mark.parametrize("build", [lambda: build_jordanian_twist(3),
                                   lambda: build_extended_twist(3, 2)],
                         ids=["jordanian", "extended"])
def test_a_finished_check_frees_its_enveloping_algebra_without_the_gc(build):
    # The coproduct cache keeps bare terms, not tensors that point back at
    # the UEA, so reference counting alone frees the UEA and its caches.
    enabled = gc.isenabled()
    gc.disable()
    try:
        F = build()
        uea = weakref.ref(F.uea)
        R = universal_R(F)
        residuals = (qybe_check(R), twist_cocycle_check(F))
        assert uea()._delta  # the cocycle check filled the coproduct cache
        del F, R, residuals
        assert uea() is None
    finally:
        if enabled:
            gc.enable()


def test_factored_r_matrix_matches_the_twist_route():
    R_direct = universal_R(build_extended_twist(3, 2))
    R_factored = factored_r_matrix(3, 2)
    assert R_direct == R_factored


# -- negative controls -------------------------------------------------------------------------


def test_non_twist_fails_the_cocycle_law_with_a_leading_witness():
    U = UEA(make_borel(), TruncationOrder(2, frozenset({"xi"})))
    x = U.gen("x")
    candidate = TensorUEA.unit(U, 2) + tensor_product(x, x).scaled(XI)
    residual = twist_cocycle_check(candidate)
    assert residual
    key, coeff = residual.leading_term()
    assert key == ("x", "x", "x^2")
    assert coeff == XI * XI * -1


def test_classical_limit_rejects_a_unitless_tensor():
    U = UEA(make_borel(), TruncationOrder(2, frozenset({"xi"})))
    x = U.gen("x")
    with pytest.raises(UnsupportedInputError) as err:
        classical_limit(tensor_product(x, x))
    assert "does not reduce to the unit tensor" in str(err.value)


def test_classical_limit_rejects_nonlinear_first_order_terms():
    U = UEA(make_borel(), TruncationOrder(2, frozenset({"xi"})))
    x = U.gen("x")
    bad = TensorUEA.unit(U, 2) + tensor_product(x * x, x).scaled(XI)
    with pytest.raises(UnsupportedInputError) as err:
        classical_limit(bad)
    assert str(err.value) == (
        "first-order term is not linear in each tensor slot: x^2(x)x")


# -- tensor plumbing ------------------------------------------------------------------------------


def test_flip_reverses_slots_with_signs():
    A, _, _, _ = make_osp12()
    U = UEA(A, UNTRUNCATED)
    vp, vm = U.gen("vp"), U.gen("vm")
    assert tensor_product(vp, vm).flip() == tensor_product(vm, vp).scaled(-1)
    h = U.gen("h")
    assert tensor_product(h, vp).flip() == tensor_product(vp, h)


def test_embedding_into_three_slots():
    U = UEA(make_borel(), UNTRUNCATED)
    h, x = U.gen("h"), U.gen("x")
    r = tensor_product(h, x)
    r13 = r.embed(3, (0, 2))
    assert r13 == tensor_product(h, U.one(), x)

