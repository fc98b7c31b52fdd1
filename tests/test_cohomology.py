"""Differentials, cocycle checks, compatibility, and the coboundary solver."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieworkbench import cohomology, linsolve
from lieworkbench.bialgebra import check_invariant, cobracket_from_r, schouten
from lieworkbench.catalog import (
    catalog_get,
    catalog_names,
    make_borel,
    make_dual_jordanian,
    make_dual_standard,
    make_osp12,
    make_sl,
)
from lieworkbench.cohomology import (
    Cochain,
    Cochain1,
    Cochain2,
    cocycle2_witness,
    compare_cochain2,
    compatible_pair,
    d1,
    d2_residual,
    h2_dim,
    is_cocycle2,
    mixed_jacobiator,
    solve_coboundary,
)
from lieworkbench.cohomology import _ce_matrix, _coords
from lieworkbench.liealg import (Element, GradedBasis, LieSuperAlgebra,
                                 Tensor, accumulate, canonical_tuples,
                                 ce_terms, orient, pencil)
from lieworkbench.linsolve import rank_at_point
from lieworkbench.scalars import Poly, RatFunc, as_poly, param


def _random_cochain1(rng: random.Random, A: LieSuperAlgebra, parity: int) -> Cochain1:
    values = {}
    for name in A.basis.names:
        want = (A.basis.parity(name) + parity) % 2
        targets = [n for n in A.basis.names if A.basis.parity(n) == want]
        values[name] = {t: as_poly(rng.randint(-3, 3)) for t in targets}
    return Cochain1(A.basis, values, parity=parity)


# -- cochains ------------------------------------------------------------------------


def test_cochain1_rejects_parity_violations():
    A, _, _, _ = make_osp12()
    import pytest

    with pytest.raises(ValueError):
        Cochain1(A.basis, {"h": {"vp": 1}}, parity=0)
    Cochain1(A.basis, {"h": {"vp": 1}}, parity=1)  # declared odd: fine


def test_construction_errors_read_alike_at_every_degree():
    A, _, _, _ = make_osp12()
    odd = GradedBasis(("h", "v"), (0, 1))
    for build, message in (
            (lambda: Cochain1(A.basis, {"h": {"vp": 1}}),
             "value at h hits 'vp' of wrong parity"),
            (lambda: Cochain2(odd, {("v", "h"): {"v": 1}}, parity=1),
             "value at (v, h) hits 'v' of wrong parity"),
            (lambda: LieSuperAlgebra("bad", odd, {("h", "v"): {"h": 1}}),
             "value at (h, v) hits 'h' of wrong parity"),
            (lambda: LieSuperAlgebra("bad", odd, {("h", "h"): {"h": 1}}),
             "(h, h) repeats an even generator but has the value h"),
            (lambda: Cochain(odd, {("v", "h", "h"): {"v": 1}}, degree=3),
             "(v, h, h) repeats an even generator but has the value v"),
            (lambda: Cochain2(odd, {("h", "v"): {"v": 1},
                                    ("v", "h"): {"v": 1}}),
             "conflicting table entries at (v, h)"),
            (lambda: Cochain(odd, {("h", "v"): {"v": 1}}, degree=1),
             "(h, v) given to a degree-1 cochain"),
            (lambda: Cochain2(odd).apply_names("h"),
             "h given to a degree-2 cochain")):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def test_cochain1_table_lines():
    sl2 = make_sl(2)
    psi = Cochain1(sl2.basis, {"E12": {"H1": 2, "E12": -1}})
    assert psi.table_lines() == ["H1 -> 0", "E12 -> 2*H1 - E12", "E21 -> 0"]


def test_cochain2_rejects_an_explicit_zero_beside_a_nonzero_reversed_entry():
    sl2 = make_sl(2)
    for values in ({("E12", "E21"): {}, ("E21", "E12"): {"H1": 1}},
                   {("E21", "E12"): {"H1": 1}, ("E12", "E21"): {"H1": 0}}):
        with pytest.raises(ValueError, match="conflicting table entries"):
            Cochain2(sl2.basis, values)


def test_rational_scalars_equal_their_polynomial_values():
    # Comparison is == on the stored vectors: a RatFunc equals a Poly by
    # cross-multiplication, whatever normal form either one is kept in.
    h = param("h")
    twice_h, h_plus_1 = RatFunc(2 * h, 2), RatFunc(h * h - 1, h - 1)
    basis = make_sl(2).basis
    rational = {"H1": {"E12": twice_h}, "E12": {"E21": h_plus_1}}
    polynomial = {"H1": {"E12": h}, "E12": {"E21": h + 1}}
    assert Cochain1(basis, rational) == Cochain1(basis, polynomial)
    pairs = {("H1", "E12"): {"E12": twice_h}, ("E12", "E21"): {"H1": h_plus_1},
             ("E12", "H1"): {"E12": -h}}  # agrees with (H1, E12)
    left = Cochain2(basis, pairs)
    right = Cochain2(basis, {("H1", "E12"): {"E12": h},
                             ("E21", "E12"): {"H1": -h - 1}})
    assert left == right
    comparison = compare_cochain2(left, right)
    assert comparison.equal and comparison.mismatches == ()


def test_comparison_takes_only_2_cochains():
    # A 1-cochain has no value at a pair, so two different ones would
    # compare equal pair by pair.
    basis = make_sl(2).basis
    psi = Cochain1(basis, {"H1": {"E12": 1}})
    with pytest.raises(ValueError) as err:
        compare_cochain2(psi, Cochain1(basis))
    assert str(err.value) == "comparison requires 2-cochains over a shared basis"


# -- the shared table: brackets are 2-cochains ------------------------------------------


@st.composite
def _bracket_pairs(draw):
    """Two random graded-antisymmetric tables on one basis of 2 to 4
    generators, at most 2 of them odd, with coefficients a + b*s in a
    spectator parameter s.  Neither table need satisfy Jacobi."""
    n = draw(st.integers(2, 4))
    odd = draw(st.sets(st.integers(0, n - 1), max_size=2))
    basis = GradedBasis(tuple(f"e{i}" for i in range(n)),
                        tuple(int(i in odd) for i in range(n)))
    coeffs = st.tuples(st.integers(-2, 2), st.integers(-1, 1)).map(
        lambda ab: ab[0] + ab[1] * param("s"))

    def table():
        out = {}
        for (i, j) in canonical_tuples(basis, 2):
            parity = (basis.parities[i] + basis.parities[j]) % 2
            out[(basis.names[i], basis.names[j])] = {
                t: draw(coeffs) for t in basis.names
                if basis.parity(t) == parity and draw(st.booleans())}
        return out

    return (LieSuperAlgebra("mu1", basis, table()),
            LieSuperAlgebra("mu2", basis, table()))


@settings(max_examples=40, deadline=None, database=None)
@given(_bracket_pairs())
def test_d2_and_the_mixed_jacobiator_match_the_pencil_jacobiator(pair):
    # The oracle is the jacobiator of the pencil mu1 + t*mu2, computed with
    # brackets of elements: its t^1 part is the mixed jacobiator, which is
    # d2 of mu2 over mu1, and d2 of a bracket over itself is twice its
    # jacobiator.
    mu1, mu2 = pair
    basis, t = mu1.basis, param("t")
    joint = pencil(mu1, mu2, 1, t)
    for x, y, z in product(basis.names, repeat=3):
        gens = [mu1.gen(n) for n in (x, y, z)]
        jacobiator = joint.jacobiator(*gens)
        cross = Element(basis, {n: c.graded_part(frozenset({"t"}), 1)
                                for n, c in jacobiator.coeffs.items()})
        assert cross == mixed_jacobiator(mu1, mu2, x, y, z).scaled(t)
        for A in pair:
            assert (Element(basis, d2_residual(A, A, x, y, z))
                    == A.jacobiator(*gens).scaled(2))


@settings(max_examples=40, deadline=None, database=None)
@given(_bracket_pairs())
def test_pair_tables_read_reversed_pairs_through_graded_antisymmetry(pair):
    mu1, _ = pair
    basis = mu1.basis
    for a, b in product(basis.names, repeat=2):
        sign = -((-1) ** (basis.parity(a) * basis.parity(b)))
        expected = {n: c * sign for n, c in mu1.apply_names(a, b).items()}
        assert mu1.apply_names(b, a) == expected


@settings(max_examples=40, deadline=None, database=None)
@given(_bracket_pairs(), st.integers(-2, 2))
def test_the_index_table_is_the_basis_bracket_and_is_built_once(pair, s):
    # Each drawn table, with its spectator parameter and at a constant value
    # of it.  Two rounds of scans, matrices and bialgebra checks read the
    # table, which is built once, on the first read: one basis bracket per
    # ordered pair, and no bracket of elements.
    for A in (*pair, *(B.substitute({"s": s}) for B in pair)):
        basis = A.basis
        tensor = Tensor(basis, 2, dict.fromkeys(product(basis.names,
                                                        repeat=2), 1))
        even = Tensor(basis, 2, {key: 1 for key in tensor.coeffs
                                 if not tensor.key_parity(key)})
        with patch.object(LieSuperAlgebra, "bracket_basis", autospec=True,
                          side_effect=LieSuperAlgebra.bracket_basis) as spy, \
                patch.object(LieSuperAlgebra, "bracket", autospec=True,
                             side_effect=LieSuperAlgebra.bracket) as element:
            for parity in (0, 1):
                A.verify_jacobi()
                _ce_matrix(A, parity, _coords(basis, 2), _coords(basis, 1))
                cobracket_from_r(A, tensor)
                check_invariant(A, tensor)
                schouten(A, even)
        assert spy.call_count == A.dim ** 2
        assert element.call_count == 0
        # The table holds [x_a, x_b] at every ordered pair: an odd repeat
        # is read, an even one is empty.
        for a, b in product(range(A.dim), repeat=2):
            entry = A.structure[a][b]
            assert ({basis.names[t]: c for t, c in entry}
                    == A.bracket_basis(basis.names[a], basis.names[b]).coeffs)
            if a == b and not basis.parities[a]:
                assert entry == ()


# -- the k-ary reads against the two-argument code they replaced ----------------------


def _ref_orient(basis, a, b, vec):
    """The pair orientation the k-ary ``orient`` replaced."""
    i, j = basis.index(a), basis.index(b)
    odd = basis.parities
    if i == j and not odd[i]:
        return None
    if i > j and not (odd[i] and odd[j]):
        vec = {n: -c for n, c in vec.items()}
    return (min(i, j), max(i, j)), vec


def _ref_apply_names(table, a, b):
    """The pair read the k-ary ``apply_names`` replaced."""
    i, j = table.basis.index(a), table.basis.index(b)
    if i <= j:
        return dict(table.table.get((i, j), {}))
    entry = table.table.get((j, i), {})
    if table.basis.parities[i] and table.basis.parities[j]:
        return dict(entry)
    return {n: -c for n, c in entry.items()}


def _ref_canonical_pairs(basis):
    n = len(basis)
    return [(i, j) for i in range(n) for j in range(i, n)
            if i != j or basis.parities[i]]


def _ref_canonical_triples(basis):
    names = basis.names
    return [(names[i], names[j], names[k])
            for (i, j) in _ref_canonical_pairs(basis)
            for k in range(j, len(basis)) if j != k or basis.parities[j]]


def _brute_orientation(basis, names):
    """orient by brute force: the sign of every permutation that sorts the
    indices, as its sign times -1 for each pair of odd arguments it
    reorders.  Sorting permutations that disagree force the value to 0."""
    key = [basis.index(n) for n in names]
    signs = set()
    for perm in permutations(range(len(key))):
        if [key[p] for p in perm] != sorted(key):
            continue
        seen, cycles = set(), 0
        for start in perm:
            if start not in seen:
                cycles += 1
                while start not in seen:
                    seen.add(start)
                    start = perm[start]
        odd_swaps = sum(1 for l, m in combinations(range(len(key)), 2)
                        if perm[l] > perm[m] and basis.parities[key[perm[l]]]
                        and basis.parities[key[perm[m]]])
        signs.add((-1) ** (len(key) - cycles + odd_swaps))
    if signs == {1, -1}:
        return None
    return tuple(sorted(key)), signs == {-1}


@settings(max_examples=40, deadline=None, database=None)
@given(_bracket_pairs())
def test_reads_and_enumerators_match_the_pair_code(pair):
    mu1, mu2 = pair
    basis = mu1.basis
    assert canonical_tuples(basis, 2) == _ref_canonical_pairs(basis)
    assert _name_triples(basis) == _ref_canonical_triples(basis)
    for A in pair:
        table = {key: dict(vec) for key, vec in A.table.items()}
        for _ in range(2):  # the first read orients, the second is cached
            for a, b in product(basis.names, repeat=2):
                assert A.apply_names(a, b) == _ref_apply_names(A, a, b)
                oriented = orient(basis, map(basis.index, (a, b)))
                expected = _ref_orient(basis, a, b, {"v": 1})
                assert (oriented == expected if expected is None
                        else oriented == (expected[0], expected[1]["v"] == -1))
        for a, b in product(basis.names, repeat=2):
            read = A.apply_names(a, b)
            read["e0"] = param("s")
            read.pop(next(iter(read)))
            assert A.apply_names(a, b) == _ref_apply_names(A, a, b)
        assert A.table == table
    for k in (1, 3, 4):
        for names in product(basis.names, repeat=k):
            assert (orient(basis, map(basis.index, names))
                    == _brute_orientation(basis, names))


# -- the complex is a complex ---------------------------------------------------------


def test_d2_of_d1_vanishes_for_even_and_odd_cochains():
    rng = random.Random(23)
    algebras = [make_sl(2), make_osp12()[1]]
    for A in algebras:
        for parity in (0, 1):
            psi = _random_cochain1(rng, A, parity)
            assert cocycle2_witness(A, d1(A, psi)) is None


def _unit_cochains(basis, k, parity):
    """Every unit k-cochain of the given parity: e_t at one canonical
    argument tuple."""
    names, odd = basis.names, basis.parities
    return [Cochain(basis, {tuple(names[i] for i in key): {names[t]: 1}},
                    parity=parity, degree=k)
            for key in canonical_tuples(basis, k) for t in range(len(basis))
            if (sum(odd[i] for i in key) + parity) % 2 == odd[t]]


def test_d_of_d_vanishes_on_unit_cochains_of_degree_1_to_3():
    algebras = [A for A in map(catalog_get, catalog_names())
                if isinstance(A, LieSuperAlgebra) and A.dim <= 5]
    assert len(algebras) == 12 and any(any(A.basis.parities) for A in algebras)
    for A in algebras:
        for k in (1, 2, 3):
            for parity in (0, 1):
                for unit in _unit_cochains(A.basis, k, parity):
                    image = d1(A, d1(A, unit))
                    assert image.degree == k + 2 and not image, (
                        A.name, unit, image)


def test_bracket_cochain_is_a_cocycle():
    for A in (make_sl(2), make_sl(3), make_osp12()[0]):
        assert is_cocycle2(A, A)


def test_cocycle2_witness_flags_a_broken_table():
    sl2 = make_sl(2)
    bad = Cochain2(sl2.basis, {("E12", "E21"): {"E12": 1}})
    triple, residual = cocycle2_witness(sl2, bad)
    assert triple == ("H1", "E12", "E21")
    assert residual == {"E12": as_poly(2)}
    assert d2_residual(sl2, bad, *triple) == residual


# -- compatibility of bracket pairs ----------------------------------------------------


def test_osp_bracket_pair_is_compatible_both_ways():
    _, mu1, mu2, _ = make_osp12()
    assert compatible_pair(mu1, mu2)
    assert compatible_pair(mu2, mu1)


def test_incompatible_pair_has_an_explicit_witness():
    sl2 = make_sl(2)
    partial = LieSuperAlgebra("partial", sl2.basis, {("H1", "E12"): {"E12": 1}})
    assert partial.verify_jacobi().ok
    assert not compatible_pair(sl2, partial)
    value = mixed_jacobiator(sl2, partial, "H1", "E12", "E21")
    assert value == sl2.gen("H1").scaled(-1)


# -- canonical triple scans -------------------------------------------------------------


@st.composite
def _brackets_and_odd_cochain(draw):
    """A pair from :func:`_bracket_pairs` and a random odd 2-cochain on
    their basis."""
    mu1, mu2 = draw(_bracket_pairs())
    basis = mu1.basis
    values = {}
    for (i, j) in canonical_tuples(basis, 2):
        parity = (basis.parities[i] + basis.parities[j] + 1) % 2
        values[(basis.names[i], basis.names[j])] = {
            t: draw(st.integers(-2, 2)) for t in basis.names
            if basis.parity(t) == parity and draw(st.booleans())}
    return mu1, mu2, Cochain2(basis, values, parity=1)


def _name_triples(basis):
    """The name triples of ``canonical_tuples(basis, 3)``."""
    return [tuple(basis.names[i] for i in key)
            for key in canonical_tuples(basis, 3)]


def _ordered_scan(residual_at, names):
    """The reference: the first of all n^3 ordered triples with a nonzero
    residual, and that residual; or None."""
    for triple in product(names, repeat=3):
        residual = residual_at(*triple)
        if residual:
            return triple, residual
    return None


@settings(max_examples=60, deadline=None, database=None)
@given(_brackets_and_odd_cochain())
def test_canonical_scans_match_an_ordered_scan(drawn):
    mu1, mu2, odd_phi = drawn
    basis = mu1.basis
    triples = _name_triples(basis)

    expected = _ordered_scan(
        lambda *t: mu1.jacobiator(*(mu1.gen(n) for n in t)), basis.names)
    report = mu1.verify_jacobi()
    assert report.ok == (expected is None)
    if expected is None:
        assert report.triples_checked == len(triples)
    else:
        assert (report.witness, report.residual) == expected
        assert report.triples_checked == triples.index(report.witness) + 1

    for phi in (mu2, odd_phi):
        assert cocycle2_witness(mu1, phi) == _ordered_scan(
            lambda *t: d2_residual(mu1, phi, *t), basis.names)

    expected = _ordered_scan(
        lambda *t: mixed_jacobiator(mu1, mu2, *t), basis.names)
    assert compatible_pair(mu1, mu2) == (expected is None)
    witness = cocycle2_witness(mu1, mu2)
    assert (witness is None) == (expected is None)
    if witness is not None:
        assert (witness[0], Element(basis, witness[1])) == expected


# -- the term table against the signs written out ----------------------------------------


def _add_bracket(out, A, name, vec, sign):
    """out += sign * [e_name, vec], in place."""
    for target, scalar in vec.items():
        scalar = -scalar if sign < 0 else scalar
        for t, c in A.bracket_basis(name, target).coeffs.items():
            accumulate(out, t, c * scalar)


def _add_signed(out, vec, sign):
    """out += sign * vec, in place."""
    for name, value in vec.items():
        accumulate(out, name, -value if sign < 0 else value)


def _apply_vec(phi, vec, *names):
    """phi at (vec, names...), extended linearly in its first argument."""
    out = {}
    for name, scalar in vec.items():
        for target, value in phi.apply_names(name, *names).items():
            accumulate(out, target, value * scalar)
    return out


def _reference_d1(A, psi, a, b):
    """(d1 psi)(a, b) with its signs written out, apart from ``ce_terms``:

    (d1 psi)(x, y) = (-1)^{|x||psi|}[x, psi(y)]
                   - (-1)^{|y||psi| + |x||y|}[y, psi(x)] - psi([x, y]).
    """
    p = psi.parity
    pa, pb = A.basis.parity(a), A.basis.parity(b)
    term = {}
    _add_bracket(term, A, a, psi.apply_names(b), (-1) ** (pa * p))
    _add_bracket(term, A, b, psi.apply_names(a), -((-1) ** (pb * p + pa * pb)))
    _add_signed(term, _apply_vec(psi, A.bracket_basis(a, b).coeffs), -1)
    return term


def _reference_d2(A, phi, x, y, z):
    """(d2 phi)(x, y, z) with its signs written out, apart from ``ce_terms``:

    (d2 phi)(x,y,z) = (-1)^{|x|p}[x, phi(y,z)]
                    - (-1)^{|y|(p+|x|)}[y, phi(x,z)]
                    + (-1)^{|z|(p+|x|+|y|)}[z, phi(x,y)]
                    - phi([x,y], z) + (-1)^{|y||z|} phi([x,z], y)
                    - (-1)^{|x|(|y|+|z|)} phi([y,z], x).
    """
    p = phi.parity
    px, py, pz = map(A.basis.parity, (x, y, z))
    out = {}
    _add_bracket(out, A, x, phi.apply_names(y, z), (-1) ** (px * p))
    _add_bracket(out, A, y, phi.apply_names(x, z), -((-1) ** (py * (p + px))))
    _add_bracket(out, A, z, phi.apply_names(x, y), (-1) ** (pz * (p + px + py)))
    _add_signed(out, _apply_vec(phi, A.bracket_basis(x, y).coeffs, z), -1)
    _add_signed(out, _apply_vec(phi, A.bracket_basis(x, z).coeffs, y),
                (-1) ** (py * pz))
    _add_signed(out, _apply_vec(phi, A.bracket_basis(y, z).coeffs, x),
                -((-1) ** (px * (py + pz))))
    return out


def _reference_terms(parities, p):
    """The terms of :func:`_reference_d1` or :func:`_reference_d2`, in the
    form of ``ce_terms``."""
    if len(parities) == 2:
        px, py = parities
        return (((0, (1,), (-1) ** (px * p)),
                 (1, (0,), -((-1) ** (py * p + px * py)))),
                (((0, 1), (), -1),))
    px, py, pz = parities
    return (((0, (1, 2), (-1) ** (px * p)),
             (1, (0, 2), -((-1) ** (py * (p + px)))),
             (2, (0, 1), (-1) ** (pz * (p + px + py)))),
            (((0, 1), (2,), -1),
             ((0, 2), (1,), (-1) ** (py * pz)),
             ((1, 2), (0,), -((-1) ** (px * (py + pz))))))


def test_the_term_table_has_the_written_out_signs():
    keys = [(parities, p) for k in (2, 3)
            for parities in product((0, 1), repeat=k) for p in (0, 1)]
    assert len(keys) == 24
    for parities, p in keys:
        args = tuple(range(len(parities)))
        brackets, cochains = ce_terms(parities, p)
        read = (tuple((i, rest(args), sign) for i, rest, sign in brackets),
                tuple((ij, rest(args), sign) for ij, rest, sign in cochains))
        assert read == _reference_terms(parities, p), (parities, p)


@st.composite
def _cochain1s(draw, basis, parity):
    values = {}
    for name in basis.names:
        want = (basis.parity(name) + parity) % 2
        values[name] = {t: draw(st.integers(-2, 2)) for t in basis.names
                        if basis.parity(t) == want and draw(st.booleans())}
    return Cochain1(basis, values, parity=parity)


@settings(max_examples=60, deadline=None, database=None)
@given(_brackets_and_odd_cochain(), st.data())
def test_d1_and_d2_match_the_written_out_signs(drawn, data):
    mu1, mu2, odd_phi = drawn
    names = mu1.basis.names
    for phi in (mu2, odd_phi):
        for triple in product(names, repeat=3):
            assert (d2_residual(mu1, phi, *triple)
                    == _reference_d2(mu1, phi, *triple)), (phi.parity, triple)
    for parity in (0, 1):
        psi = data.draw(_cochain1s(mu1.basis, parity))
        image = d1(mu1, psi)
        for a, b in product(names, repeat=2):
            assert (image.apply_names(a, b)
                    == _reference_d1(mu1, psi, a, b)), (parity, a, b)


# -- the coboundary solver --------------------------------------------------------------


def test_solver_round_trips_random_coboundaries():
    rng = random.Random(31)
    for A in (make_sl(2), make_osp12()[1]):
        for parity in (0, 1):
            psi = _random_cochain1(rng, A, parity)
            phi = d1(A, psi)
            out = solve_coboundary(A, phi)
            assert out.status == "solved" and out.found
            assert compare_cochain2(d1(A, out.psi), phi).equal


def test_solved_case_with_explicit_certificate():
    _, mu1, mu2, _ = make_osp12()
    out = solve_coboundary(mu1, mu2)
    assert out.status == "solved"
    assert (out.rank, out.rank_augmented) == (9, 9)
    assert out.assumptions == ()
    assert out.psi.table_lines() == [
        "h_hat -> 0",
        "Xp_hat -> -h_hat",
        "Xm_hat -> 0",
        "vp_hat -> vm_hat",
        "vm_hat -> 0",
    ]
    assert compare_cochain2(d1(mu1, out.psi), mu2).equal


def test_published_candidate_differs_from_the_solver_answer_in_one_entry():
    # The shipped 1-cochain reproduces the target bracket except on the
    # (vm_hat, vm_hat) diagonal; the comparison table pinpoints the slot.
    _, mu1, mu2, psi = make_osp12()
    comparison = compare_cochain2(d1(mu1, psi), mu2)
    assert not comparison.equal
    assert comparison.mismatches == ("(vm_hat, vm_hat)",)
    table = comparison.table("candidate", "target")
    assert table.splitlines()[-1].endswith("<== differs")


def test_cochain_tables_parenthesise_bare_quotients():
    A = make_borel()
    psi = Cochain1(A.basis, {"h": {"h": Fraction(1, 2), "x": -1},
                             "x": {"x": Fraction(-1, 2)}})
    assert psi.table_lines() == ["h -> (1/2)*h - x", "x -> (-1/2)*x"]


def test_obstructed_case_reports_a_specialization_certificate():
    out = solve_coboundary(make_dual_standard(2),
                           make_dual_jordanian(2))
    assert out.status == "obstructed"
    assert not out.found
    assert out.psi is None
    assert (out.rank, out.rank_augmented) == (0, 1)
    assert out.assumptions == ("h",)
    assert out.obstruction == (
        "every solution inverts h; at h = 0, xi = 1 the system has rank 0 "
        "but augmented rank 1, so no solution regular there exists"
    )


def test_obstruction_search_tries_the_root_of_a_linear_denominator():
    # [x, y] = c*y with c vanishing away from h = 0: the only solution
    # inverts c, and at its root the system has no solution.  The rational
    # roots of c are tried in ascending order, linear c or not.
    basis = GradedBasis(("x", "y"))
    h = param("h")
    for c, root in ((h - 1, "h = 1"), (h + 2, "h = -2"),
                    ((h - 1) * (h - 3), "h = 1"),
                    ((2 * h - 1) * (h + 3), "h = -3")):
        A = LieSuperAlgebra("a", basis, {("x", "y"): {"y": c}})
        out = solve_coboundary(A, Cochain2(basis, {("x", "y"): {"y": 1}}))
        assert out.status == "obstructed" and out.psi is None
        assert (out.rank, out.rank_augmented) == (0, 1)
        assert f"at {root} the system has rank 0" in out.obstruction


def test_a_denominator_without_a_rational_root_leaves_the_solution():
    # h^2 - 2 vanishes at no rational point, so no point certifies an
    # obstruction and the rational solution is returned.
    basis = GradedBasis(("x", "y"))
    h = param("h")
    A = LieSuperAlgebra("a", basis, {("x", "y"): {"y": h * h - 2}})
    out = solve_coboundary(A, Cochain2(basis, {("x", "y"): {"y": 1}}))
    assert out.status == "solved"
    assert out.assumptions == ("-2 + h^2",)


def test_the_obstruction_search_eliminates_once_per_point():
    # rank(M) and rank(M|b) come from one elimination of M|b.  At h = 0
    # and at the roots 0 and 1 of h(h - 1) the system stays consistent,
    # so two points are tried and none certifies an obstruction.
    h = param("h")
    matrix = [[h, Poly.zero()], [Poly.zero(), h - 1]]
    rhs = [h, h - 1]
    tried = []

    def spy(matrix, point, *rest):
        tried.append(tuple(sorted(point.items())))
        return rank_at_point(matrix, point, *rest)

    with patch.object(cohomology, "rank_at_point", spy), \
            patch.object(linsolve, "_gauss_jordan",
                         wraps=linsolve._gauss_jordan) as eliminate:
        found = cohomology._obstruction_point(matrix, rhs, [h * (h - 1)], [])
    assert found is None
    assert tried == [(("h", 0),), (("h", 1),)]
    assert eliminate.call_count == len(tried)


def test_assuming_the_pivot_nonzero_unlocks_the_rational_solution():
    out = solve_coboundary(make_dual_standard(2),
                           make_dual_jordanian(2),
                           assume_nonzero=("h",))
    assert out.status == "solved" and out.found
    assert (out.rank, out.rank_augmented) == (3, 3)
    assert out.assumptions == ("h",)
    assert out.psi.table_lines() == [
        "H1_hat -> 0",
        "E12_hat -> (2*xi/h)*H1_hat",
        "E21_hat -> 0",
    ]


def test_non_cocycle_input_is_rejected_with_a_witness():
    sl2 = make_sl(2)
    bad = Cochain2(sl2.basis, {("E12", "E21"): {"E12": 1}})
    out = solve_coboundary(sl2, bad)
    assert out.status == "not-cocycle"
    assert not out.found
    assert out.psi is None
    assert out.witness == ("H1", "E12", "E21")


def test_a_bracket_that_fails_jacobi_is_scanned_on_a_consistent_system():
    # mu.prime is d1 of the identity over itself, so the system is
    # consistent; but it fails Jacobi, so d2 of d1 does not vanish and
    # phi is not closed.
    mu_prime = catalog_get("mu.prime")
    out = solve_coboundary(mu_prime, mu_prime)
    assert out.status == "not-cocycle"
    assert out.witness == ("Y11", "Y12", "Y23")


@st.composite
def _coboundary_problems(draw):
    """(algebra, phi): d1 of a random 1-cochain, the same plus a unit
    perturbation at one coordinate, the algebra's own bracket, or mu2star
    over mu1star.  The algebra is from the catalog, or a random table that
    need not satisfy Jacobi, with its spectator parameter set to an integer
    (elimination over Q(s) of a dense random table can take seconds)."""
    kind = draw(st.sampled_from(("coboundary", "perturbed", "own bracket",
                                 "mu2star")))
    if kind == "mu2star":
        return catalog_get("mu1star"), catalog_get("mu2star")
    name = draw(st.sampled_from(("sl2", "osp12", "borel", "mu1star",
                                 "dual.standard.sl2", "mu.prime", "random")))
    if name == "random":
        A = draw(_bracket_pairs())[0].substitute({"s": draw(st.integers(-2, 2))})
    else:
        A = catalog_get(name)
    if kind == "own bracket":
        return A, A
    basis, names = A.basis, A.basis.names
    # A purely even algebra has no odd cochain but zero.
    parity = draw(st.integers(0, 1)) if any(basis.parities) else 0
    h = param("h")
    coeffs = st.tuples(st.integers(-2, 2), st.integers(-1, 1)).map(
        lambda ab: ab[0] + (ab[1] * h if name == "dual.standard.sl2" else 0))
    values = {}
    for source in names:
        want = (basis.parity(source) + parity) % 2
        values[source] = {t: draw(coeffs) for t in names
                          if basis.parity(t) == want and draw(st.booleans())}
    phi = d1(A, Cochain1(basis, values, parity=parity))
    if kind == "coboundary":
        return A, phi
    table = {tuple(names[i] for i in key): dict(vec)
             for key, vec in phi.table.items()}
    i, j = draw(st.sampled_from(list(canonical_tuples(basis, 2))))
    want = (basis.parities[i] + basis.parities[j] + parity) % 2
    target = draw(st.sampled_from([t for t in names
                                   if basis.parity(t) == want]))
    vec = table.setdefault((names[i], names[j]), {})
    vec[target] = vec.get(target, Poly.zero()) + draw(st.sampled_from((-1, 1)))
    if not vec[target]:
        del vec[target]
    return A, Cochain2(basis, table, parity=parity)


@settings(max_examples=60, deadline=None, database=None)
@given(_coboundary_problems())
def test_not_cocycle_is_reported_exactly_where_the_d2_scan_finds_a_witness(
        problem):
    # The scan runs only on some paths of the solver; the verdict must be
    # the one a scan of every input would give.
    A, phi = problem
    out = solve_coboundary(A, phi)
    witness = cocycle2_witness(A, phi)
    assert (out.status == "not-cocycle") == (witness is not None)
    if witness is not None:
        assert out.witness == witness[0]


# -- the d1 and d2 matrices ----------------------------------------------------------------


def _slots(basis, parity):
    """(j, k) for each unit 1-cochain e_j -> e_k of the given parity."""
    odd, n = basis.parities, len(basis)
    return [(j, k) for j in range(n) for k in range(n)
            if (odd[j] + parity) % 2 == odd[k]]


def _unit_d1_matrix(A, parity, coords):
    """The d1 matrix column by column: the written-out d1 of each unit
    1-cochain."""
    basis, names = A.basis, A.basis.names
    columns = []
    for (j, k) in _slots(basis, parity):
        unit = Cochain1(basis, {names[j]: {names[k]: 1}}, parity=parity)
        columns.append([_reference_d1(A, unit, names[i], names[jj]).get(
                            names[t], Poly.zero())
                        for (i, jj, t) in coords])
    return [[col[r] for col in columns] for r in range(len(coords))]


def _unit_d2_matrix(A, parity, coords):
    """The d2 matrix column by column: the written-out d2 of each unit
    2-cochain."""
    basis = A.basis
    triples = _name_triples(basis)
    columns = []
    for (i, j, t) in coords:
        unit = Cochain2(basis, {(basis.names[i], basis.names[j]):
                                {basis.names[t]: 1}}, parity=parity)
        columns.append([_reference_d2(A, unit, *triple).get(m, Poly.zero())
                        for triple in triples for m in basis.names])
    return [[col[r] for col in columns]
            for r in range(len(triples) * len(basis))]


def _assert_assembly_matches_unit_cochains(A):
    basis = A.basis
    odd, n = basis.parities, len(basis)
    every_target = [(i, j, t) for (i, j) in canonical_tuples(basis, 2)
                    for t in range(n)]
    triples = [(*triple, m)
               for triple in canonical_tuples(basis, 3) for m in range(n)]
    for parity in (0, 1):
        coords = [(i, j, t) for (i, j, t) in every_target
                  if (odd[i] + odd[j] + parity) % 2 == odd[t]]
        for rows in (coords, every_target):
            assert (_ce_matrix(A, parity, rows, _slots(basis, parity))
                    == _unit_d1_matrix(A, parity, rows)), (A.name, parity)
        assert (_ce_matrix(A, parity, triples, coords)
                == _unit_d2_matrix(A, parity, coords)), (A.name, parity)


def test_matrices_from_the_bracket_table_match_unit_cochains_on_the_catalog():
    algebras = [catalog_get(name) for name in catalog_names()]
    small = [A for A in algebras
             if isinstance(A, LieSuperAlgebra) and A.dim <= 9]
    assert {A.basis.parities != (0,) * A.dim for A in small} == {False, True}
    for A in small:
        _assert_assembly_matches_unit_cochains(A)


@settings(max_examples=40, deadline=None, database=None)
@given(_bracket_pairs())
def test_matrices_from_the_bracket_table_match_unit_cochains_at_random(pair):
    for A in pair:
        _assert_assembly_matches_unit_cochains(A)


# -- cohomology dimensions ---------------------------------------------------------------


def test_h2_vanishes_for_the_simple_algebra():
    report = h2_dim(make_sl(2))
    assert (report.kernel_dim, report.image_dim, report.quotient_dim) == (6, 6, 0)
    assert report.parameter_assumptions == ()


def test_h2_dimensions_are_frozen():
    _, mu1, mu2, _ = make_osp12()
    expectations = [
        (make_borel(), (2, 2, 0), ()),
        (make_dual_standard(2), (6, 3, 3), ("h",)),
        (make_dual_jordanian(2), (6, 3, 3), ("2*xi",)),
        (mu1, (20, 19, 1), ()),
        (mu2, (21, 18, 3), ()),
    ]
    for algebra, dims, assumptions in expectations:
        report = h2_dim(algebra)
        assert (report.kernel_dim, report.image_dim, report.quotient_dim) == dims
        assert report.parameter_assumptions == assumptions
