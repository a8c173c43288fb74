"""Every public module-level function or class of the package has a caller.

A name counts as called when it appears as a ``Name``, an ``Attribute`` or
an imported name anywhere in ``src/subshift_lab`` or ``bench/*.py`` outside
its own definition.  Tests do not count: code that only tests read goes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_public_definition_has_a_caller_outside_the_tests():
    files = sorted((ROOT / "src" / "subshift_lab").glob("*.py"))
    files += sorted((ROOT / "bench").glob("*.py"))
    assert files
    definitions = []  # (file, name, index of the defining statement)
    uses: dict[str, set[tuple[Path, int]]] = {}
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for index, stmt in enumerate(tree.body):
            for name in _referenced_names(stmt):
                uses.setdefault(name, set()).add((path, index))
            defines = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            if isinstance(stmt, defines) and not stmt.name.startswith("_"):
                definitions.append((path, stmt.name, index))
    uncalled = [
        f"{path.relative_to(ROOT)}:{name}"
        for path, name, index in definitions
        if not uses.get(name, set()) - {(path, index)}
    ]
    assert uncalled == []
