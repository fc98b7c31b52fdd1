"""Import hygiene and dead definitions.

Each module of ``src/lieworkbench`` is parsed, not imported.  A name bound
by an import statement must be read somewhere in that module or be listed
in its ``__all__``, and no import binds a name that another already
binds.  Every ``__all__`` entry is bound at module level in its module,
and listed once.  A private definition must be read somewhere in the
package, and a public function, class or method somewhere in ``src``,
``tests`` or ``bench``: an import or an ``__all__`` entry is not a use.
Every absolute import names a standard-library module: the package
depends on nothing else.  No module imports ``dataclasses``: the
package's value types derive from ``record.Record``, and a fresh
``import lieworkbench, lieworkbench.cli`` loads neither ``dataclasses``
nor the ``inspect`` it would pull in.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lieworkbench"


def _import_bindings(tree: ast.Module) -> list[str]:
    """The names bound by import statements, once per binding."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.extend((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend(alias.asname or alias.name for alias in node.names)
    return bound


def _unused_imports(tree: ast.Module) -> list[str]:
    loaded = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return sorted(set(_import_bindings(tree)) - loaded - exported)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_imported_name_is_used_or_exported(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    assert _unused_imports(tree) == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_name_is_imported_twice(module):
    bound = _import_bindings(
        ast.parse((PACKAGE / module).read_text(), filename=module))
    assert sorted({name for name in bound if bound.count(name) > 1}) == []


def _exports(tree: ast.Module) -> list[str]:
    """The entries of the module's ``__all__``, once per listing."""
    return [name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for name in ast.literal_eval(node.value)]


def _module_bindings(tree: ast.Module) -> set[str]:
    """The names a module binds at module level: by a definition, an
    assignment or an import."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(_import_bindings(ast.Module([node], [])))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
    return bound


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_export_is_bound_and_listed_once(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    exported = _exports(tree)
    assert sorted(set(exported) - _module_bindings(tree)) == []
    assert sorted({name for name in exported if exported.count(name) > 1}) == []


def _imported_modules(tree: ast.Module) -> set[str]:
    """Top-level names of the modules an import statement loads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_dataclasses():
    importers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if "dataclasses" in _imported_modules(
                     ast.parse(path.read_text(), filename=path.name))]
    assert importers == []


def test_the_package_imports_only_the_standard_library():
    # The tests install sympy and hypothesis, so importing one of them from
    # the package would not fail here; read the import statements instead.
    outside = {path.name: sorted(_imported_modules(
        ast.parse(path.read_text(), filename=path.name))
        - sys.stdlib_module_names)
        for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in outside.items() if found} == {}


def test_importing_the_package_and_cli_loads_no_code_generators():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    probe = ("import sys, lieworkbench, lieworkbench.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _definitions(tree: ast.Module):
    """(name, node) for each definition at module level or in a class body."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else ()
        for item in (node, *body):
            if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                yield item.name, item
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = (item.targets if isinstance(item, ast.Assign)
                           else [item.target])
                yield from ((t.id, item) for t in targets
                            if isinstance(t, ast.Name))


def _private_definitions(tree: ast.Module) -> set[str]:
    """Private names a module defines at module level or as methods."""
    return {name for name, _ in _definitions(tree)
            if name.startswith("_") and not name.startswith("__")}


def _public_definitions(tree: ast.Module) -> set[str]:
    """Public functions, classes and methods; a constant or field is data."""
    return {name for name, node in _definitions(tree)
            if not name.startswith("_")
            and isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _references(tree: ast.Module) -> set[str]:
    """Names read in a module, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_private_definition_is_referenced():
    trees = [ast.parse(path.read_text(), filename=path.name)
             for path in sorted(PACKAGE.glob("*.py"))]
    defined = set().union(*map(_private_definitions, trees))
    referenced = set().union(*map(_references, trees))
    assert sorted(defined - referenced) == []


def test_every_public_definition_is_referenced():
    package = [ast.parse(path.read_text(), filename=path.name)
               for path in sorted(PACKAGE.glob("*.py"))]
    readers = [ast.parse(path.read_text(), filename=path.name)
               for folder in ("src", "tests", "bench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    defined = set().union(*map(_public_definitions, package))
    referenced = set().union(*map(_references, readers))
    assert sorted(defined - referenced) == []
