"""Every text a check line can produce, frozen byte for byte.

Each case is one source text and what loading it gives: the ParseError or
LoadError it raises, or the label of the one check it declares.  The cases
cover each check form with its clauses present and absent, each syntax
error a form can raise, each name, basis, carrier and bound error met
while binding it, and each error a declaration or its expressions raise.
"""

from __future__ import annotations

import pytest

from lieworkbench import dsl, runner
from lieworkbench.dsl import ParseError, parse
from lieworkbench.runner import LoadError, load

CASES = [
    # syntax errors
    ("check;", "ParseError: line 1, col 6: expected a check kind, found ';'"),
    ("check bogus x;", "ParseError: line 1, col 7: unknown check kind 'bogus'"),
    ("check jacobi;", "ParseError: line 1, col 13: expected a name, found ';'"),
    ("check jacobi sl2 on sl2;",
     "ParseError: line 1, col 18: expected ';', found 'on'"),
    ("check jacobi sl2",
     "ParseError: line 1, col 17: expected ';', found 'end of file'"),
    ("check cybe;", "ParseError: line 1, col 11: expected a name, found ';'"),
    ("check cybe r.jordan on;",
     "ParseError: line 1, col 23: expected an algebra name, found ';'"),
    ("check cybe r.jordan order 3;",
     "ParseError: line 1, col 21: expected ';', found 'order'"),
    ("check mcybe r.dj on 3;",
     "ParseError: line 1, col 21: expected an algebra name, found '3'"),
    ("check cocycle;",
     "ParseError: line 1, col 14: expected a 2-cochain name, found ';'"),
    ("check cocycle mu2star mu1star;",
     "ParseError: line 1, col 23: expected 'over', found 'mu1star'"),
    ("check cocycle mu2star over;",
     "ParseError: line 1, col 27: expected an algebra name, found ';'"),
    ("check cocycle mu2star over mu1star compare psi;",
     "ParseError: line 1, col 36: expected ';', found 'compare'"),
    ("check coboundary mu2star over mu1star compare;",
     "ParseError: line 1, col 46: expected a 1-cochain name, found ';'"),
    ("check coboundary mu2star over mu1star on sl2;",
     "ParseError: line 1, col 39: expected ';', found 'on'"),
    ("check compatible mu1star;",
     "ParseError: line 1, col 25: expected an algebra name, found ';'"),
    ("check compatible mu1star over mu2star;",
     "ParseError: line 1, col 31: expected ';', found 'mu2star'"),
    ("check decompose = r.dj + r.jordan;",
     "ParseError: line 1, col 17: expected a tensor name, found '='"),
    ("check decompose r.full r.dj + r.jordan;",
     "ParseError: line 1, col 24: expected '=', found 'r.dj'"),
    ("check decompose r.full = r.dj r.jordan;",
     "ParseError: line 1, col 31: expected '+', found 'r.jordan'"),
    ("check decompose r.full = r.dj - r.jordan;",
     "ParseError: line 1, col 31: expected '+', found '-'"),
    ("check decompose r.full = r.dj + ;",
     "ParseError: line 1, col 33: expected a tensor name, found ';'"),
    ("check decompose r.full = r.dj + r.jordan on;",
     "ParseError: line 1, col 44: expected an algebra name, found ';'"),
    ("check twist;", "ParseError: line 1, col 12: expected 'jordanian' or "
     "'extended', found ';'"),
    ("check twist bogus;", "ParseError: line 1, col 13: twist kind must be "
     "'jordanian' or 'extended'"),
    ("check twist extended;",
     "ParseError: line 1, col 21: expected a size N, found ';'"),
    ("check twist extended x;",
     "ParseError: line 1, col 22: expected a size N, found 'x'"),
    ("check twist extended 3/2;",
     "ParseError: line 1, col 22: expected a size N, found '3/2'"),
    ("check twist jordanian 3;",
     "ParseError: line 1, col 23: expected ';', found '3'"),
    ("check twist jordanian order;",
     "ParseError: line 1, col 28: expected a truncation order, found ';'"),
    ("check twist jordanian order 1/2;",
     "ParseError: line 1, col 29: expected a truncation order, found '1/2'"),
    ("check twist jordanian order 3 order 4;",
     "ParseError: line 1, col 31: expected ';', found 'order'"),
    ("check twist extended 3 order 2 order 2;",
     "ParseError: line 1, col 32: expected ';', found 'order'"),
    ("cochain p:even over sl2 { H1 E12; }",
     "ParseError: line 1, col 30: expected '->', found 'E12'"),
    # name, basis, carrier and bound errors
    ("check jacobi nowhere;", "LoadError: line 1: unknown algebra 'nowhere'"),
    ("check cybe nowhere;", "LoadError: line 1: unknown tensor 'nowhere'"),
    ("check cybe r.dj on nowhere;",
     "LoadError: line 1: unknown algebra 'nowhere'"),
    ("check cybe r.dj on sl2;",
     "LoadError: line 1: tensor 'r.dj' is not over the basis of 'sl2'"),
    ("algebra sl3 { basis a:even; }\ncheck cybe r.jordan;",
     "LoadError: line 2: no known algebra carries this tensor (add an 'on "
     "ALGEBRA' clause)"),
    ("tensor t = h_hat (x) Xm_hat on mu2star;\ntensor u = t;\ncheck mcybe u;",
     "LoadError: line 3: algebras mu1star, mu2star all carry this tensor "
     "(add an 'on ALGEBRA' clause)"),
    ("check cocycle nowhere over sl2;",
     "LoadError: line 1: unknown 2-cochain 'nowhere' (name an algebra to use "
     "its bracket table)"),
    ("check cocycle sl2 over nowhere;",
     "LoadError: line 1: unknown algebra 'nowhere'"),
    ("check cocycle sl2 over sl3;",
     "LoadError: line 1: 2-cochain 'sl2' is not over the basis of 'sl3'"),
    ("check coboundary sl2 over sl3;",
     "LoadError: line 1: 2-cochain 'sl2' is not over the basis of 'sl3'"),
    ("check coboundary mu2star over mu1star compare nowhere;",
     "LoadError: line 1: unknown 1-cochain 'nowhere'"),
    ("cochain p:even over sl2 { H1 -> E12; }\n"
     "check coboundary mu2star over mu1star compare p;",
     "LoadError: line 2: 1-cochain 'p' is not over the basis of 'mu1star'"),
    ("check compatible sl2 nowhere;",
     "LoadError: line 1: unknown algebra 'nowhere'"),
    ("check compatible sl2 sl3;",
     "LoadError: line 1: algebra 'sl2' is not over the basis of 'sl3'"),
    ("check decompose nowhere = r.dj + r.jordan;",
     "LoadError: line 1: unknown tensor 'nowhere'"),
    ("check decompose r.full = r.dj + nowhere;",
     "LoadError: line 1: unknown tensor 'nowhere'"),
    ("tensor t = H1 (x) H1 on sl2;\ncheck decompose r.full = r.dj + t;",
     "LoadError: line 2: tensor 't' is not over the basis of 'sl3'"),
    ("check decompose r.full = r.dj + r.jordan on sl2;",
     "LoadError: line 1: tensor 'r.full' is not over the basis of 'sl2'"),
    ("check twist extended 2;",
     "LoadError: line 1: the extended twist needs N >= 3"),
    ("check twist jordanian order 0;",
     "LoadError: line 1: truncation order 0 is out of range: it must be "
     "between 1 and 12"),
    ("check twist jordanian order 13;",
     "LoadError: line 1: truncation order 13 is out of range: it must be "
     "between 1 and 12"),
    ("check twist extended 40 order 2;",
     "LoadError: line 1: the extended twist over sl(40) at truncation order "
     "2 is out of range: N may be at most 34, 34, 10, 5, 3, 3 at orders 1 "
     "to 6"),
    ("check twist extended 3 order 7;",
     "LoadError: line 1: the extended twist over sl(3) at truncation order "
     "7 is out of range: N may be at most 34, 34, 10, 5, 3, 3 at orders 1 "
     "to 6"),
    # declaration and expression errors
    ("param h;\nparam h;", "LoadError: line 2: parameter 'h' re-declared"),
    ("algebra A { basis x:even; }\nalgebra A { basis y:even; }",
     "LoadError: line 2: algebra 'A' re-declared"),
    ("algebra A { basis x:even x:odd; }",
     "LoadError: line 1: duplicate generator in basis"),
    ("algebra A { basis x:even; bracket [x,y] = x; }",
     "LoadError: line 1: unknown identifier 'y'"),
    ("param h;\nalgebra A { basis x:even y:even; bracket [x,y] = h; }",
     "LoadError: line 2: a bracket value must be an algebra element"),
    ("algebra B { basis h:even x:even; bracket [h,x] = 0; "
     "bracket [h,x] = 2*x; }",
     "LoadError: line 1: bracket [h,x] re-declared"),
    ("algebra B { basis h:even x:even; bracket [h,x] = 0; }\ncheck jacobi B;",
     "label: jacobi B"),
    ("tensor t = H1 (x) E12 on sl2;\ntensor t = H1 (x) E12 on sl2;",
     "LoadError: line 2: tensor 't' re-declared"),
    ("tensor t = H1 on sl2;",
     "LoadError: line 1: a tensor definition must produce a rank-2 tensor"),
    ("algebra A { basis x:even; }\nalgebra B { basis x:even; }\n"
     "tensor t = x (x) x;",
     "LoadError: line 3: generator 'x' is declared by both 'A' and 'B'; add "
     "an 'on ALGEBRA' clause"),
    ("tensor t = H1 (x) nowhere on sl2;",
     "LoadError: line 1: unknown identifier 'nowhere'"),
    ("algebra A { basis x:even; }\nalgebra B { basis y:even; }\n"
     "tensor t = x (x) y;",
     "LoadError: line 3: tensor factors live over different bases"),
    ("tensor t = H1 (x) E12 on sl2;\n"
     "tensor u = t + h_hat (x) h_hat on mu1star;",
     "LoadError: line 2: cannot add a tensor over basis (H1, E12, E21) and "
     "a tensor over basis (h_hat, Xp_hat, Xm_hat, vp_hat, vm_hat)"),
    ("algebra A { basis x:even; }\nalgebra B { basis y:even; }\n"
     "tensor t = (x - y) (x) x;",
     "LoadError: line 3: cannot subtract an algebra element over basis (x) "
     "and an algebra element over basis (y)"),
    ("tensor t = H1 (x) E12 * 2 on sl2;\ncheck cybe t;", "label: cybe t"),
    ("tensor t = H1 * E12 on sl2;",
     "LoadError: line 1: cannot multiply two algebra values; use ^ or (x)"),
    ("param h;\ntensor t = h ^ H1 on sl2;",
     "LoadError: line 2: both sides of ^ must be algebra elements"),
    ("tensor t = H1 + H1 (x) E12 on sl2;",
     "LoadError: line 1: cannot add an algebra element and a tensor"),
    ("param h;\ntensor t = h - H1 (x) E12 on sl2;",
     "LoadError: line 2: cannot subtract a scalar and a tensor"),
    ("param h;\ntensor t = (h + 1) * H1 (x) E12 on sl2;\ncheck cybe t;",
     "label: cybe t"),
    ("tensor t = 0 - H1 (x) E12 + 0 on sl2;\ncheck cybe t;", "label: cybe t"),
    ("cochain p:even over sl2 { H1 -> E12; }\n"
     "cochain p:even over sl2 { H1 -> E21; }",
     "LoadError: line 2: cochain 'p' re-declared"),
    ("cochain p:even over sl2 { X -> E12; }",
     "LoadError: line 1: unknown identifier 'X'"),
    ("cochain p:even over sl2 { H1 -> 2; }",
     "LoadError: line 1: a cochain value must be an algebra element"),
    ("cochain p:even over sl2 { H1 -> 0; H1 -> E12; }",
     "LoadError: line 1: cochain entry 'H1' re-declared"),
    ("cochain p:even over sl2 { H1 -> 0; }\n"
     "check coboundary sl2 over sl2 compare p;",
     "label: coboundary sl2 over sl2 compare p"),
    # accepted forms
    ("check jacobi sl2;", "label: jacobi sl2"),
    ("check cybe r.jordan;", "label: cybe r.jordan"),
    ("check cybe r.jordan on sl3;", "label: cybe r.jordan on sl3"),
    ("check mcybe r.dj;", "label: mcybe r.dj"),
    ("check   mcybe r.dj   on sl3 ;  # spaced",
     "label: mcybe r.dj on sl3"),
    ("check cocycle mu2star over mu1star;",
     "label: cocycle mu2star over mu1star"),
    ("check coboundary mu2star over mu1star;",
     "label: coboundary mu2star over mu1star"),
    ("check coboundary mu2star over mu1star compare psi;",
     "label: coboundary mu2star over mu1star compare psi"),
    ("check compatible mu1star mu2star;",
     "label: compatible mu1star mu2star"),
    ("check decompose r.full = r.dj + r.jordan;",
     "label: decompose r.full = r.dj + r.jordan"),
    ("check decompose r.full = r.dj + r.jordan on sl3;",
     "label: decompose r.full = r.dj + r.jordan on sl3"),
    ("check twist jordanian;", "label: twist jordanian"),
    ("check twist jordanian order 2;", "label: twist jordanian order 2"),
    ("check twist extended 3;", "label: twist extended 3"),
    ("check twist extended 4 order 2;", "label: twist extended 4 order 2"),
]


@pytest.mark.parametrize("source, text", CASES,
                         ids=[source for source, _ in CASES])
def test_check_form_texts(source, text):
    try:
        _, checks = load(parse(source))
    except (ParseError, LoadError) as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    else:
        (label,) = [label for label, _ in checks]
        outcome = f"label: {label}"
    assert outcome == text


def test_every_check_form_has_a_run():
    # A form row without a run would parse and then fail to bind.
    assert set(runner._RUNS) == set(dsl.CHECK_FORMS)
