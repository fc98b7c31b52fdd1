"""Parsing and canonical rendering of the workbench description language."""

from __future__ import annotations

import string
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieworkbench.dsl import (
    CHECK_FORMS,
    AlgebraDecl,
    BinOp,
    CheckDecl,
    Choice,
    CochainDecl,
    Name,
    Neg,
    Num,
    ParamDecl,
    ParseError,
    TensorDecl,
    WorkbenchFile,
    parse,
    render,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "golden"
BENCH_DATA = ROOT / "bench" / "data"


# -- expressions ---------------------------------------------------------------------


def test_sum_of_tensor_products_ast():
    decl = parse("tensor r = -2*xi*E12 (x) E23 + xi*H1 (x) E13 on sl3;").statements[0]
    assert isinstance(decl, TensorDecl)
    assert decl.name == "r" and decl.algebra == "sl3"
    left, right = decl.expr.left, decl.expr.right
    assert decl.expr.op == "+"
    assert left == BinOp("(x)",
                         BinOp("*",
                               BinOp("*", Neg(Num(Fraction(2))), Name("xi")),
                               Name("E12")),
                         Name("E23"))
    assert right == BinOp("(x)",
                          BinOp("*", Name("xi"), Name("H1")),
                          Name("E13"))


def test_juxtaposition_means_multiplication():
    text = "param xi; tensor t = 2 xi H1 (x) E12 on sl2;"
    assert "2*xi*H1 (x) E12" in render(parse(text))


def test_tensor_symbol_binds_looser_than_multiplication():
    decl = parse("tensor t = 2*a (x) 3*b;").statements[0]
    assert decl.expr.op == "(x)"
    assert decl.expr.left == BinOp("*", Num(Fraction(2)), Name("a"))
    assert decl.expr.right == BinOp("*", Num(Fraction(3)), Name("b"))


def test_parenthesised_x_is_a_name_only_when_spaced():
    decl = parse("tensor t = ( x ) (x) y;").statements[0]
    assert decl.expr == BinOp("(x)", Name("x"), Name("y"))


def test_rational_literals():
    decl = parse("tensor t = 1/2*h (x) h - 2/3*x (x) x;").statements[0]
    assert decl.expr.left.left.left == Num(Fraction(1, 2))


def test_power_is_non_associative():
    with pytest.raises(ParseError) as err:
        parse("tensor t = a ^ b ^ c;")
    assert str(err.value) == (
        "line 1, col 18: ^ is non-associative; parenthesise one side")


def test_dotted_identifiers_and_comments():
    text = "# leading comment\ncheck decompose r.full = r.dj + r.jordan; # trailing\n"
    decl = parse(text).statements[0]
    assert decl.args == ("r.full", "r.dj", "r.jordan", None)


def test_clause_keywords_terminate_expressions():
    decl = parse("tensor t = h (x) x on borel;").statements[0]
    assert decl.algebra == "borel"
    assert decl.expr == BinOp("(x)", Name("h"), Name("x"))


# -- statements ----------------------------------------------------------------------


def test_param_declaration_tolerates_commas():
    assert parse("param h, xi;").statements[0] == ParamDecl(("h", "xi"))
    assert parse("param h xi;").statements[0] == ParamDecl(("h", "xi"))
    assert render(parse("param h, xi;")).strip() == "param h xi;"


def test_algebra_block():
    text = "algebra B { basis h:even x:even; bracket [h,x] = 2*x; }"
    decl = parse(text).statements[0]
    assert isinstance(decl, AlgebraDecl)
    assert decl.name == "B"
    assert decl.basis == (("h", "even"), ("x", "even"))
    assert len(decl.brackets) == 1
    assert decl.brackets[0].left == "h" and decl.brackets[0].right == "x"


def test_algebra_block_with_odd_generators():
    text = "algebra S { basis v:odd w:odd; bracket [v,v] = 2*w; }"
    decl = parse(text).statements[0]
    assert decl.basis == (("v", "odd"), ("w", "odd"))


def test_cochain_block_round_trips():
    text = ("algebra B { basis h:even x:even; bracket [h,x] = 2*x; }\n"
            "cochain psi:even over B { h -> 0; x -> 2*h - x; }\n")
    f = parse(text)
    decl = f.statements[1]
    assert isinstance(decl, CochainDecl)
    assert decl.parity == "even" and decl.algebra == "B"
    rendered = render(f)
    assert "cochain psi:even over B {" in rendered
    assert "  x -> 2*h - x;" in rendered
    assert parse(rendered).statements == f.statements


def test_all_check_forms_parse_and_render_canonically():
    samples = [
        "check jacobi sl2;",
        "check cybe r.jordan on sl3;",
        "check mcybe r.dj on sl2;",
        "check cocycle psi over mu1star;",
        "check compatible mu1star mu2star;",
        "check coboundary mu2star over mu1star compare psi;",
        "check decompose r.full = r.dj + r.jordan;",
        "check twist jordanian order 3;",
        "check twist extended 3 order 2;",
    ]
    for text in samples:
        f = parse(text)
        assert isinstance(f.statements[0], CheckDecl)
        assert render(f).strip() == text


def test_check_fields():
    decl = parse("check coboundary mu2star over mu1star compare psi;").statements[0]
    assert (decl.kind, decl.args) == (
        "coboundary", ("mu2star", "mu1star", "psi"))
    decl = parse("check twist extended 4 order 3;").statements[0]
    assert decl.args == (("extended", 4), 3)


_WORD = string.ascii_letters + string.digits + "_"
# Dotted identifiers: [A-Za-z_][A-Za-z0-9_]*(.[A-Za-z0-9_]+)*
_NAMES = st.builds(
    lambda head, tail, parts: head + tail + "".join(f".{p}" for p in parts),
    st.sampled_from(string.ascii_letters + "_"), st.text(_WORD, max_size=5),
    st.lists(st.text(_WORD, min_size=1, max_size=3), max_size=2))


def _operand(slot):
    return st.integers(0, 10**30) if slot.kind == "int" else _NAMES


def _operand_value(item):
    """The value one operand of a check form gives, drawn at random."""
    if isinstance(item, Choice):
        return st.sampled_from(item.words).flatmap(
            lambda word: st.tuples(st.just(word), _operand(item.slot)
                                   if word == item.taker else st.none()))
    if item.clause is None:
        return _operand(item)
    return st.none() | _operand(item)


@st.composite
def _check_decls(draw):
    kind = draw(st.sampled_from(sorted(CHECK_FORMS)))
    return CheckDecl(kind, tuple(draw(_operand_value(item))
                                 for item in CHECK_FORMS[kind]
                                 if not isinstance(item, str)))


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(_check_decls(), max_size=3))
def test_every_check_form_round_trips(decls):
    f = WorkbenchFile(tuple(decls))
    assert parse(render(f)) == f


# -- errors ----------------------------------------------------------------------------


def test_error_positions_are_precise():
    cases = [
        ("param ;", "line 1, col 7: expected a parameter name, found ';'"),
        ("algebra A { basis x:weird; }",
         "line 1, col 21: parity must be 'even' or 'odd'"),
        ("tensor t = 1 +;", "line 1, col 15: expected a value, found ';'"),
        ("check bogus x;", "line 1, col 7: unknown check kind 'bogus'"),
        ("check jacobi sl2 on nowhere;",
         "line 1, col 18: expected ';', found 'on'"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message
        assert err.value.line == 1


def test_error_on_later_lines_reports_the_line():
    with pytest.raises(ParseError) as err:
        parse("param h;\nparam ;")
    assert err.value.line == 2


# -- canonical form --------------------------------------------------------------------


def test_render_parse_is_idempotent_on_golden_files():
    files = sorted(GOLDEN.glob("*.wb"))
    assert len(files) == 22
    bench_files = sorted(BENCH_DATA.glob("*.wb"))
    assert len(bench_files) == 2
    for path in files + bench_files:
        text = path.read_text()
        first = parse(text)
        rendered = render(first)
        assert text == rendered, f"{path.name} is not in canonical spelling"
        assert parse(rendered).statements == first.statements
        assert render(parse(rendered)) == rendered


def test_canonical_rendering_avoids_noise_parentheses():
    f = parse("param xi; tensor t = (((-2)*xi)*E12) (x) E23;")
    assert "tensor t = -2*xi*E12 (x) E23;" in render(f)
