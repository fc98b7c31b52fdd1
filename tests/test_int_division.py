"""No true division of an int literal in the package.

A ``Poly`` stores an integral coefficient as an ``int``, so ``1 / x`` on a
coefficient x is a float.  Each module of ``src/lieworkbench`` is parsed,
not imported, and no ``/`` may have an int literal on its left; a
reciprocal is written ``Fraction(1) / x``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lieworkbench"


def _int_literal_divisions(tree: ast.Module) -> list[int]:
    """The line of every ``n / x`` whose left operand is an int literal."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.left, ast.Constant)
            and type(node.left.value) is int]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_int_literal_is_divided(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    assert _int_literal_divisions(tree) == []


def test_the_lint_finds_a_reciprocal_of_an_int_literal():
    tree = ast.parse("def f(x):\n    return (1 / x, Fraction(1) / x, x / 2)\n")
    assert _int_literal_divisions(tree) == [2]
