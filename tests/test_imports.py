"""Import hygiene: every name a module imports is used or re-exported.

Each module of ``src/lieworkbench`` is parsed, not imported.  A name bound
by an import statement must be read somewhere in that module or be listed
in its ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lieworkbench"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = set()
    loaded = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - loaded - exported)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_imported_name_is_used_or_exported(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    assert _unused_imports(tree) == []
