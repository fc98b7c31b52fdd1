"""A small definition-file language for algebras, tensors, and checks.

The grammar is line-oriented with explicit ``;`` terminators:

    param h xi;
    algebra B { basis h:even x:even; bracket [h,x] = 2*x; }
    tensor r = h ^ x;
    tensor t = H1 ^ E12 on sl3;
    cochain psi:even over mu1star { Xp_hat -> -h_hat; }
    check coboundary mu2star over mu1star compare psi;

The ``check`` forms are the rows of ``CHECK_FORMS``, which the parser,
the renderer and the runner all walk.

Expression operators: ``+``/``-`` bind loosest, then the wedge ``^`` and
tensor ``(x)`` (non-associative, at the same level: chaining either
requires parentheses), then ``*``.  A bare space also multiplies
(``2 x`` means ``2*x``).  Rational literals are written ``p/q``.  The
three-character sequence ``(x)`` is always the tensor operator, so a
parenthesised lone generator needs an inner space: ``( x )``.
``#`` starts a comment running to the end of the line.

Rendering produces canonical text whose reparse is structurally equal to
the original file (statement positions are not part of equality).
"""

from __future__ import annotations

import re
from typing import ClassVar
from fractions import Fraction

from .record import Record

__all__ = [
    "ParseError",
    "Num",
    "Name",
    "Neg",
    "BinOp",
    "ParamDecl",
    "AlgebraDecl",
    "BracketDecl",
    "TensorDecl",
    "CochainDecl",
    "CheckDecl",
    "Slot",
    "Choice",
    "CHECK_FORMS",
    "WorkbenchFile",
    "parse",
    "render",
    "render_check",
]


class ParseError(ValueError):
    """Syntax or resolution error with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# -- expressions ------------------------------------------------------------------


class Num(Record):
    value: Fraction

    def __str__(self):
        return str(self.value)


class Name(Record):
    ident: str

    def __str__(self):
        return self.ident


class Neg(Record):
    operand: "Expr"

    def __str__(self):
        return f"-{_wrap(self.operand, above='*')}"


class BinOp(Record):
    op: str  # "+", "-", "*", "^", "(x)"
    left: "Expr"
    right: "Expr"

    def __str__(self):
        if self.op in ("+", "-"):
            right = _wrap(self.right, above="+") \
                if isinstance(self.right, BinOp) and self.right.op in ("+", "-") \
                else str(self.right)
            return f"{str(self.left)} {self.op} {right}"
        if self.op == "*":
            # Left-associative chains and leading negated atoms reparse
            # identically without parentheses.
            if ((isinstance(self.left, BinOp) and self.left.op == "*")
                    or _atomic_neg(self.left)):
                left = str(self.left)
            else:
                left = _wrap(self.left, above="*")
            return f"{left}*{_wrap(self.right, above='*')}"
        return (f"{_wrap(self.left, above='^')} {self.op} "
                f"{_wrap(self.right, above='^')}")


Expr = Num | Name | Neg | BinOp

_LEVEL = {"+": 0, "-": 0, "^": 1, "(x)": 1, "*": 2}


def _atomic_neg(expr: Expr) -> bool:
    return isinstance(expr, Neg) and isinstance(expr.operand, (Num, Name))


def _wrap(expr: Expr, above: str) -> str:
    """Parenthesise sub-expressions whose operator binds no tighter."""
    if isinstance(expr, BinOp) and _LEVEL[expr.op] <= _LEVEL[above]:
        return f"( {expr} )"
    if isinstance(expr, Neg) and above == "*":
        return f"( {expr} )"
    return str(expr)


# -- statements -------------------------------------------------------------------


class ParamDecl(Record):
    names: tuple[str, ...]
    line: int = 0
    _uncompared = ("line",)


class BracketDecl(Record):
    left: str
    right: str
    rhs: Expr
    line: int = 0
    _uncompared = ("line",)


class AlgebraDecl(Record):
    name: str
    basis: tuple[tuple[str, str], ...]  # (generator, "even" | "odd")
    brackets: tuple[BracketDecl, ...]
    line: int = 0
    _uncompared = ("line",)


class TensorDecl(Record):
    name: str
    expr: Expr
    algebra: str | None = None  # explicit carrier: "on ALG"
    line: int = 0
    _uncompared = ("line",)


class CochainDecl(Record):
    name: str
    parity: str  # "even" | "odd"
    algebra: str
    entries: tuple[tuple[str, Expr], ...]
    line: int = 0
    _uncompared = ("line",)


class CheckDecl(Record):
    kind: str
    args: tuple  # the values of the operands of the kind's row, in order
    line: int = 0
    _uncompared = ("line",)


Statement = ParamDecl | AlgebraDecl | TensorDecl | CochainDecl | CheckDecl


class WorkbenchFile(Record):
    statements: tuple[Statement, ...]


# -- check forms ------------------------------------------------------------------


class Slot(Record):
    """An operand: a name the runner resolves as ``kind`` ("algebra",
    "tensor", "1-cochain" or "2-cochain"), or a whole number (kind "int").
    ``what`` names it in a syntax error.  With a ``clause`` word it is
    optional, written after that word, and None when absent."""
    kind: str
    what: str
    clause: str | None = None


class Choice(Record):
    """One of ``words``, the word ``taker`` followed by ``slot``.  Its value
    is the pair of the word and the operand, None after any other word."""
    words: tuple[str, ...]
    taker: str
    slot: Slot
    kind: ClassVar[str] = "word"  # a kind the runner does not resolve


_ALGEBRA = Slot("algebra", "an algebra name")
_TENSOR = Slot("tensor", "a tensor name")
_ON = Slot("algebra", "an algebra name", clause="on")
_COCHAIN = Slot("2-cochain", "a 2-cochain name")

# What follows ``check KIND``, per kind: a string is a literal word or
# symbol, and each Slot or Choice gives the next value of the check's args.
CHECK_FORMS: dict[str, tuple[str | Slot | Choice, ...]] = {
    "jacobi": (Slot("algebra", "a name"),),
    "cybe": (Slot("tensor", "a name"), _ON),
    "mcybe": (Slot("tensor", "a name"), _ON),
    "cocycle": (_COCHAIN, "over", _ALGEBRA),
    "compatible": (_ALGEBRA, _ALGEBRA),
    "coboundary": (_COCHAIN, "over", _ALGEBRA,
                   Slot("1-cochain", "a 1-cochain name", clause="compare")),
    "decompose": (_TENSOR, "=", _TENSOR, "+", _TENSOR, _ON),
    "twist": (Choice(("jordanian", "extended"), "extended",
                     Slot("int", "a size N")),
              Slot("int", "a truncation order", clause="order")),
}


# -- tokenizer --------------------------------------------------------------------

_TOKEN = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<otimes>\(x\))
  | (?P<arrow>->)
  | (?P<rational>\d+(?:/\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*)
  | (?P<punct>[{}\[\];,:=^*+()-])
""", re.VERBOSE)


class _Token(Record):
    kind: str  # "rational" | "ident" | "otimes" | "arrow" | punct text
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(source):
        match = _TOKEN.match(source, pos)
        if match is None:
            raise ParseError(f"unexpected character {source[pos]!r}",
                             line, pos - line_start + 1)
        kind = match.lastgroup
        text = match.group()
        col = pos - line_start + 1
        if kind == "nl":
            line += 1
            line_start = match.end()
        elif kind not in ("ws", "comment"):
            if kind == "punct":
                kind = text
            tokens.append(_Token(kind, text, line, col))
        pos = match.end()
    tokens.append(_Token("eof", "", line, len(source) - line_start + 1))
    return tokens


# -- parser -----------------------------------------------------------------------


# The words of the check forms end a juxtaposition chain, as the ``on`` of
# "tensor t = h (x) x on sl2" does.
_VALUE_STOPWORDS = frozenset(
    item if isinstance(item, str) else item.clause
    for form in CHECK_FORMS.values() for item in form
    if isinstance(item, str) or (isinstance(item, Slot) and item.clause))


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0

    # token plumbing

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, message: str, token: _Token | None = None):
        token = token or self.peek()
        raise ParseError(message, token.line, token.col)

    def expect(self, kind: str, what: str | None = None) -> _Token:
        token = self.peek()
        if token.kind != kind:
            self.fail(f"expected {what or repr(kind)}, found {token.text or 'end of file'!r}")
        return self.advance()

    def accept(self, word: str) -> bool:
        """Consume the next token if its text is ``word``; say whether it was."""
        if self.peek().text != word:
            return False
        self.advance()
        return True

    def expect_word(self, word: str):
        if not self.accept(word):
            self.fail(f"expected {word!r}, found {self.peek().text or 'end of file'!r}")

    def number(self, token: _Token) -> Fraction:
        """The value of a rational literal, or a ParseError at the literal
        when it divides by zero or has too many digits to convert."""
        try:
            return Fraction(token.text)
        except ZeroDivisionError:
            self.fail(f"zero denominator in {token.text!r}", token)
        except ValueError:
            self.fail(f"number literal of {len(token.text)} characters is "
                      "too long", token)

    # statements

    def parse_file(self) -> WorkbenchFile:
        statements: list[Statement] = []
        while self.peek().kind != "eof":
            statements.append(self.parse_statement())
        return WorkbenchFile(tuple(statements))

    def parse_statement(self) -> Statement:
        token = self.peek()
        if token.kind != "ident":
            self.fail(f"expected a statement, found {token.text!r}")
        if token.text == "param":
            return self.parse_param()
        if token.text == "algebra":
            return self.parse_algebra()
        if token.text == "tensor":
            return self.parse_tensor()
        if token.text == "cochain":
            return self.parse_cochain()
        if token.text == "check":
            return self.parse_check()
        self.fail(f"unknown statement {token.text!r}")

    def parse_param(self) -> ParamDecl:
        start = self.advance()
        names = [self.expect("ident", "a parameter name").text]
        while True:
            if self.peek().kind == ",":
                self.advance()
                names.append(self.expect("ident", "a parameter name").text)
            elif self.peek().kind == "ident":
                names.append(self.advance().text)
            else:
                break
        self.expect(";")
        return ParamDecl(tuple(names), line=start.line)

    def parse_algebra(self) -> AlgebraDecl:
        start = self.advance()
        name = self.expect("ident", "an algebra name").text
        self.expect("{")
        basis: list[tuple[str, str]] = []
        brackets: list[BracketDecl] = []
        while not self.peek().kind == "}":
            inner = self.peek()
            if self.accept("basis"):
                if basis:
                    self.fail("duplicate basis line", inner)
                while self.peek().kind == "ident":
                    gen = self.advance().text
                    self.expect(":")
                    parity = self.expect("ident", "'even' or 'odd'")
                    if parity.text not in ("even", "odd"):
                        self.fail("parity must be 'even' or 'odd'", parity)
                    basis.append((gen, parity.text))
                    if self.peek().kind == ",":
                        self.advance()
                self.expect(";")
                if not basis:
                    self.fail("basis line declares no generators", inner)
            elif self.accept("bracket"):
                self.expect("[")
                left = self.expect("ident", "a generator name").text
                self.expect(",")
                right = self.expect("ident", "a generator name").text
                self.expect("]")
                self.expect("=")
                rhs = self.parse_expr()
                self.expect(";")
                brackets.append(BracketDecl(left, right, rhs, line=inner.line))
            else:
                self.fail(f"expected 'basis' or 'bracket', found {inner.text!r}")
        self.expect("}")
        if not basis:
            self.fail("algebra block has no basis line", start)
        return AlgebraDecl(name, tuple(basis), tuple(brackets), line=start.line)

    def parse_tensor(self) -> TensorDecl:
        start = self.advance()
        name = self.expect("ident", "a tensor name").text
        self.expect("=")
        expr = self.parse_expr()
        algebra = self.parse_slot(_ON)
        self.expect(";")
        return TensorDecl(name, expr, algebra, line=start.line)

    def parse_cochain(self) -> CochainDecl:
        start = self.advance()
        name = self.expect("ident", "a cochain name").text
        self.expect(":")
        parity = self.expect("ident", "'even' or 'odd'")
        if parity.text not in ("even", "odd"):
            self.fail("parity must be 'even' or 'odd'", parity)
        self.expect_word("over")
        algebra = self.expect("ident", "an algebra name").text
        self.expect("{")
        entries: list[tuple[str, Expr]] = []
        while self.peek().kind != "}":
            source = self.expect("ident", "a generator name").text
            self.expect("arrow", "'->'")
            entries.append((source, self.parse_expr()))
            self.expect(";")
        self.expect("}")
        return CochainDecl(name, parity.text, algebra, tuple(entries),
                           line=start.line)

    def parse_check(self) -> CheckDecl:
        start = self.advance()
        token = self.expect("ident", "a check kind")
        kind = token.text
        if kind not in CHECK_FORMS:
            self.fail(f"unknown check kind {kind!r}", token)
        args = []
        for item in CHECK_FORMS[kind]:
            if isinstance(item, str):
                self.expect_word(item)
            elif isinstance(item, Choice):
                words = " or ".join(map(repr, item.words))
                token = self.expect("ident", words)
                word = token.text
                if word not in item.words:
                    self.fail(f"{kind} kind must be {words}", token)
                args.append((word, self.parse_slot(item.slot)
                             if word == item.taker else None))
            else:
                args.append(self.parse_slot(item))
        self.expect(";")
        return CheckDecl(kind, tuple(args), line=start.line)

    def parse_slot(self, slot: Slot) -> str | int | None:
        """The operand ``slot`` reads, or None for an absent clause."""
        if slot.clause is not None and not self.accept(slot.clause):
            return None
        if slot.kind != "int":
            return self.expect("ident", slot.what).text
        token = self.expect("rational", slot.what)
        if "/" in token.text:
            self.fail(f"expected {slot.what}, found {token.text!r}", token)
        return int(self.number(token))

    # expressions

    def parse_expr(self) -> Expr:
        expr = self.parse_wedge()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            expr = BinOp(op, expr, self.parse_wedge())
        return expr

    def parse_wedge(self) -> Expr:
        expr = self.parse_product()
        token = self.peek()
        if token.kind in ("^", "otimes"):
            op = "^" if token.kind == "^" else "(x)"
            self.advance()
            expr = BinOp(op, expr, self.parse_product())
            again = self.peek()
            if again.kind in ("^", "otimes"):
                self.fail(f"{'^' if again.kind == '^' else '(x)'} is "
                          "non-associative; parenthesise one side")
        return expr

    def parse_product(self) -> Expr:
        expr = self.parse_atom()
        while True:
            token = self.peek()
            if token.kind == "*":
                self.advance()
                expr = BinOp("*", expr, self.parse_atom())
            elif token.kind == "rational" or token.kind == "(" or (
                    token.kind == "ident"
                    and token.text not in _VALUE_STOPWORDS):
                # juxtaposition multiplies ("2 x"), up to a clause keyword
                expr = BinOp("*", expr, self.parse_atom())
            else:
                return expr

    def parse_atom(self) -> Expr:
        token = self.peek()
        if token.kind == "-":
            self.advance()
            return Neg(self.parse_atom())
        if token.kind == "rational":
            return Num(self.number(self.advance()))
        if token.kind == "ident":
            # statement keywords terminate juxtaposition chains via callers;
            # here any identifier is a value name
            self.advance()
            return Name(token.text)
        if token.kind == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        self.fail(f"expected a value, found {token.text or 'end of file'!r}")


def parse(source: str) -> WorkbenchFile:
    """Parse DSL text into a workbench file, or raise ParseError."""
    return _Parser(source).parse_file()


# -- renderer --------------------------------------------------------------------


def _render_statement(stmt: Statement) -> list[str]:
    if isinstance(stmt, ParamDecl):
        return [f"param {' '.join(stmt.names)};"]
    if isinstance(stmt, AlgebraDecl):
        lines = [f"algebra {stmt.name} {{"]
        basis = " ".join(f"{name}:{parity}" for name, parity in stmt.basis)
        lines.append(f"  basis {basis};")
        for br in stmt.brackets:
            lines.append(f"  bracket [{br.left},{br.right}] = {br.rhs};")
        lines.append("}")
        return lines
    if isinstance(stmt, TensorDecl):
        carrier = f" on {stmt.algebra}" if stmt.algebra else ""
        return [f"tensor {stmt.name} = {stmt.expr}{carrier};"]
    if isinstance(stmt, CochainDecl):
        lines = [f"cochain {stmt.name}:{stmt.parity} over {stmt.algebra} {{"]
        for source, expr in stmt.entries:
            lines.append(f"  {source} -> {expr};")
        lines.append("}")
        return lines
    if isinstance(stmt, CheckDecl):
        return [f"check {render_check(stmt)};"]
    raise TypeError(f"cannot render {stmt!r}")  # pragma: no cover


def render_check(stmt: CheckDecl) -> str:
    """A check's canonical text between ``check`` and ``;``: its kind, then
    its row of ``CHECK_FORMS`` with its args in place."""
    words, args = [stmt.kind], iter(stmt.args)
    for item in CHECK_FORMS[stmt.kind]:
        if isinstance(item, str):
            words.append(item)
        elif isinstance(item, Choice):
            word, value = next(args)
            words += [word] if value is None else [word, str(value)]
        else:
            value = next(args)
            if value is not None:
                words += [str(value)] if item.clause is None \
                    else [item.clause, str(value)]
    return " ".join(words)


def render(file: WorkbenchFile) -> str:
    """Canonical DSL text; ``parse(render(f))`` is structurally equal to f."""
    lines: list[str] = []
    for stmt in file.statements:
        lines.extend(_render_statement(stmt))
    return "\n".join(lines) + ("\n" if lines else "")
