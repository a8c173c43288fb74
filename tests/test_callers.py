"""Every public module-level function or class of the package, and every
public method of a public class, has a caller.

A name counts as called when it appears as a ``Name``, an ``Attribute`` or
an imported name anywhere in ``src/subshift_lab`` or ``bench/*.py`` outside
its own definition.  Tests do not count: code that only tests read goes.
Names are matched, not resolved, so a method shares its callers with every
other definition or attribute of its name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def _public(stmt: ast.stmt) -> bool:
    return isinstance(stmt, DEFINES) and not stmt.name.startswith("_")


def test_every_public_definition_has_a_caller_outside_the_tests():
    files = sorted((ROOT / "src" / "subshift_lab").glob("*.py"))
    files += sorted((ROOT / "bench").glob("*.py"))
    assert files
    # a site is (file, top-level statement, class-body statement or None);
    # a definition's own site and the sites inside it do not count as uses
    definitions = []  # (label, name, site)
    uses: dict[str, set[tuple]] = {}
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for index, stmt in enumerate(tree.body):
            parts = [(None, stmt)]
            if isinstance(stmt, ast.ClassDef):
                # decorators and bases, then each statement of the body
                parts = [(None, node) for node in stmt.decorator_list + stmt.bases]
                parts += enumerate(stmt.body)
            for j, part in parts:
                for name in _referenced_names(part):
                    uses.setdefault(name, set()).add((path, index, j))
                if j is not None and _public(stmt) and _public(part):
                    label = f"{path.relative_to(ROOT)}:{stmt.name}.{part.name}"
                    definitions.append((label, part.name, (path, index, j)))
            if _public(stmt):
                label = f"{path.relative_to(ROOT)}:{stmt.name}"
                definitions.append((label, stmt.name, (path, index)))
    uncalled = [
        label
        for label, name, site in definitions
        if not {use for use in uses.get(name, ()) if use[: len(site)] != site}
    ]
    assert uncalled == []
