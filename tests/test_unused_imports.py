"""No module of the package, no test module and no demo imports a name it
never reads.

A stdlib ``ast`` scan, in place of a lint dependency: every name a module
binds by ``import`` or ``from ... import`` must be read somewhere in that
module, or be re-exported through its ``__all__``.  The package's
``__init__`` (re-exports only) and ``from __future__`` imports are skipped.
"""

import ast
from pathlib import Path

import hspde

MODULES = sorted(
    [p for p in Path(hspde.__file__).resolve().parent.glob("*.py")
     if p.name != "__init__.py"]
    + list(Path(__file__).resolve().parent.glob("*.py"))
    + list((Path(__file__).resolve().parents[1] / "demos").glob("*.py")))

#: (module, name) pairs imported on purpose and never read: harness never
#: calls verify_region, but perfbench's tracer patches that name on harness,
#: so it must exist there.
ALLOWED = {("harness", "verify_region")}


def unread_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(name for name in imported
                  if name not in read and name not in exported)


def test_the_scan_sees_an_unread_import():
    assert unread_imports("import math\nimport os\nos.sep\n") == ["math"]
    assert unread_imports("from x import a, b as c\n__all__ = ['a']\n") \
        == ["c"]
    assert unread_imports("from __future__ import annotations\n") == []


def test_no_module_imports_a_name_it_never_reads():
    unread = {(path.stem, name) for path in MODULES
              for name in unread_imports(path.read_text(encoding="utf-8"))}
    assert unread == ALLOWED
