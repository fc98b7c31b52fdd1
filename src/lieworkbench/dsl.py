"""A small definition-file language for algebras, tensors, and checks.

The grammar is line-oriented with explicit ``;`` terminators:

    param h xi;
    algebra B { basis h:even x:even; bracket [h,x] = 2*x; }
    tensor r = h ^ x;
    tensor t = H1 ^ E12 on sl3;
    cochain psi:even over mu1star { Xp_hat -> -h_hat; }
    check jacobi B;
    check cybe r;
    check mcybe r.dj;
    check decompose r.full = r.dj + r.jordan on sl3;
    check cocycle mu2star over mu1star;
    check compatible mu1star mu2star;
    check coboundary mu2star over mu1star compare psi;
    check twist jordanian order 3;
    check twist extended 3 order 2;

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
from dataclasses import dataclass, field
from fractions import Fraction

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
    "WorkbenchFile",
    "parse",
    "render",
]


class ParseError(ValueError):
    """Syntax or resolution error with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# -- expressions ------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Fraction

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class Name:
    ident: str

    def __str__(self):
        return self.ident


@dataclass(frozen=True)
class Neg:
    operand: "Expr"

    def __str__(self):
        return f"-{_wrap(self.operand, above='*')}"


@dataclass(frozen=True)
class BinOp:
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


@dataclass(frozen=True)
class ParamDecl:
    names: tuple[str, ...]
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BracketDecl:
    left: str
    right: str
    rhs: Expr
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class AlgebraDecl:
    name: str
    basis: tuple[tuple[str, str], ...]  # (generator, "even" | "odd")
    brackets: tuple[BracketDecl, ...]
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class TensorDecl:
    name: str
    expr: Expr
    algebra: str | None = None  # explicit carrier: "on ALG"
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class CochainDecl:
    name: str
    parity: str  # "even" | "odd"
    algebra: str
    entries: tuple[tuple[str, Expr], ...]
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class CheckDecl:
    kind: str
    subject: str | None = None
    over: str | None = None
    on: str | None = None
    compare: str | None = None
    parts: tuple[str, str] | None = None
    pair: str | None = None
    twist_kind: str | None = None
    twist_n: int | None = None
    order: int | None = None
    line: int = field(default=0, compare=False)


Statement = ParamDecl | AlgebraDecl | TensorDecl | CochainDecl | CheckDecl


@dataclass(frozen=True)
class WorkbenchFile:
    statements: tuple[Statement, ...]


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


@dataclass(frozen=True)
class _Token:
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


# Clause keywords that end a juxtaposition chain: "check cybe r on sl2".
_VALUE_STOPWORDS = frozenset({"on", "over", "compare", "order"})


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
            self.fail(f"expected {what or kind!r}, found {token.text or 'end of file'!r}")
        return self.advance()

    def expect_ident(self, what: str = "an identifier") -> _Token:
        token = self.peek()
        if token.kind != "ident":
            self.fail(f"expected {what}, found {token.text or 'end of file'!r}")
        return self.advance()

    def expect_word(self, word: str) -> _Token:
        token = self.peek()
        if token.kind != "ident" or token.text != word:
            self.fail(f"expected {word!r}, found {token.text or 'end of file'!r}")
        return self.advance()

    def at_word(self, word: str) -> bool:
        token = self.peek()
        return token.kind == "ident" and token.text == word

    def expect_int(self, what: str) -> int:
        token = self.expect("rational", what)
        if "/" in token.text:
            self.fail(f"expected {what}, found {token.text!r}", token)
        return int(token.text)

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
        names = [self.expect_ident("a parameter name").text]
        while True:
            if self.peek().kind == ",":
                self.advance()
                names.append(self.expect_ident("a parameter name").text)
            elif self.peek().kind == "ident":
                names.append(self.advance().text)
            else:
                break
        self.expect(";")
        return ParamDecl(tuple(names), line=start.line)

    def parse_algebra(self) -> AlgebraDecl:
        start = self.advance()
        name = self.expect_ident("an algebra name").text
        self.expect("{")
        basis: list[tuple[str, str]] = []
        brackets: list[BracketDecl] = []
        while not self.peek().kind == "}":
            inner = self.peek()
            if self.at_word("basis"):
                if basis:
                    self.fail("duplicate basis line", inner)
                self.advance()
                while self.peek().kind == "ident":
                    gen = self.advance().text
                    self.expect(":")
                    parity = self.expect_ident("'even' or 'odd'")
                    if parity.text not in ("even", "odd"):
                        self.fail("parity must be 'even' or 'odd'", parity)
                    basis.append((gen, parity.text))
                    if self.peek().kind == ",":
                        self.advance()
                self.expect(";")
                if not basis:
                    self.fail("basis line declares no generators", inner)
            elif self.at_word("bracket"):
                self.advance()
                self.expect("[")
                left = self.expect_ident("a generator name").text
                self.expect(",")
                right = self.expect_ident("a generator name").text
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
        name = self.expect_ident("a tensor name").text
        self.expect("=")
        expr = self.parse_expr()
        algebra = None
        if self.at_word("on"):
            self.advance()
            algebra = self.expect_ident("an algebra name").text
        self.expect(";")
        return TensorDecl(name, expr, algebra, line=start.line)

    def parse_cochain(self) -> CochainDecl:
        start = self.advance()
        name = self.expect_ident("a cochain name").text
        self.expect(":")
        parity = self.expect_ident("'even' or 'odd'")
        if parity.text not in ("even", "odd"):
            self.fail("parity must be 'even' or 'odd'", parity)
        self.expect_word("over")
        algebra = self.expect_ident("an algebra name").text
        self.expect("{")
        entries: list[tuple[str, Expr]] = []
        while self.peek().kind != "}":
            source = self.expect_ident("a generator name").text
            self.expect("arrow", "'->'")
            entries.append((source, self.parse_expr()))
            self.expect(";")
        self.expect("}")
        return CochainDecl(name, parity.text, algebra, tuple(entries),
                           line=start.line)

    def parse_check(self) -> CheckDecl:
        start = self.advance()
        kind = self.expect_ident("a check kind").text
        decl: CheckDecl
        if kind in ("jacobi", "cybe", "mcybe"):
            subject = self.expect_ident("a name").text
            on = None
            if kind != "jacobi" and self.at_word("on"):
                self.advance()
                on = self.expect_ident("an algebra name").text
            decl = CheckDecl(kind, subject, on=on, line=start.line)
        elif kind in ("cocycle", "coboundary"):
            subject = self.expect_ident("a 2-cochain name").text
            self.expect_word("over")
            over = self.expect_ident("an algebra name").text
            compare = None
            if kind == "coboundary" and self.at_word("compare"):
                self.advance()
                compare = self.expect_ident("a 1-cochain name").text
            decl = CheckDecl(kind, subject, over=over, compare=compare,
                             line=start.line)
        elif kind == "compatible":
            subject = self.expect_ident("an algebra name").text
            pair = self.expect_ident("an algebra name").text
            decl = CheckDecl(kind, subject, pair=pair, line=start.line)
        elif kind == "decompose":
            subject = self.expect_ident("a tensor name").text
            self.expect("=")
            first = self.expect_ident("a tensor name").text
            self.expect("+")
            second = self.expect_ident("a tensor name").text
            on = None
            if self.at_word("on"):
                self.advance()
                on = self.expect_ident("an algebra name").text
            decl = CheckDecl(kind, subject, parts=(first, second), on=on,
                             line=start.line)
        elif kind == "twist":
            twist_kind = self.expect_ident("'jordanian' or 'extended'").text
            if twist_kind not in ("jordanian", "extended"):
                self.fail("twist kind must be 'jordanian' or 'extended'")
            twist_n = None
            if twist_kind == "extended":
                twist_n = self.expect_int("a size N")
            order = None
            if self.at_word("order"):
                self.advance()
                order = self.expect_int("a truncation order")
            decl = CheckDecl(kind, twist_kind=twist_kind, twist_n=twist_n,
                             order=order, line=start.line)
        else:
            self.fail(f"unknown check kind {kind!r}")
        self.expect(";")
        return decl

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
            self.advance()
            return Num(Fraction(token.text))
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
        words = ["check", stmt.kind]
        if stmt.kind in ("jacobi", "cybe", "mcybe"):
            words.append(stmt.subject)
            if stmt.on:
                words += ["on", stmt.on]
        elif stmt.kind in ("cocycle", "coboundary"):
            words += [stmt.subject, "over", stmt.over]
            if stmt.compare:
                words += ["compare", stmt.compare]
        elif stmt.kind == "compatible":
            words += [stmt.subject, stmt.pair]
        elif stmt.kind == "decompose":
            words += [stmt.subject, "=", stmt.parts[0], "+", stmt.parts[1]]
            if stmt.on:
                words += ["on", stmt.on]
        elif stmt.kind == "twist":
            words.append(stmt.twist_kind)
            if stmt.twist_n is not None:
                words.append(str(stmt.twist_n))
            if stmt.order is not None:
                words += ["order", str(stmt.order)]
        return [" ".join(words) + ";"]
    raise TypeError(f"cannot render {stmt!r}")  # pragma: no cover


def render(file: WorkbenchFile) -> str:
    """Canonical DSL text; ``parse(render(f))`` is structurally equal to f."""
    lines: list[str] = []
    for stmt in file.statements:
        lines.extend(_render_statement(stmt))
    return "\n".join(lines) + ("\n" if lines else "")
