"""Every public module-level function or class of the package, and every
public method of a public class, has a caller; so does every private
module-level function, every name a module-level assignment binds has
a reader, and every annotated field of a package class is read as an
attribute.

A name counts as called or read when it appears as a ``Name`` that is not
assigned to, an ``Attribute`` or an imported name anywhere in
``src/subshift_lab`` or ``bench/*.py`` outside its own definition or
assignment; a private function needs its caller in ``src/subshift_lab``,
and a field counts as read only as an ``Attribute`` that is loaded.
Tests do not count: code that only tests read goes.  Names are matched, not
resolved, so a method shares its callers with every other definition or
attribute of its name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _attribute_reads(node: ast.AST) -> set[str]:
    return {
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }


def _public(stmt: ast.stmt) -> bool:
    return isinstance(stmt, DEFINES) and not stmt.name.startswith("_")


def _private_function(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and stmt.name.startswith("_")
        and not stmt.name.startswith("__")
    )


def _assignment(stmt: ast.stmt) -> bool:
    return isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign))


def _field(cls: ast.ClassDef, part: ast.AST) -> bool:
    return isinstance(part, ast.AnnAssign) and isinstance(part.target, ast.Name)


def _bound_names(stmt: ast.stmt) -> list[str]:
    """The name a definition binds, or the names an assignment stores to;
    dunders such as ``__all__`` are read by the import system, not by code."""
    if isinstance(stmt, DEFINES):
        return [stmt.name]
    return [
        sub.id
        for sub in ast.walk(stmt)
        if isinstance(sub, ast.Name)
        and isinstance(sub.ctx, ast.Store)
        and not sub.id.startswith("__")
    ]


def _uncalled(files, top, method=None, referenced=_referenced_names) -> list[str]:
    """Labels of the definitions in ``files`` whose name has no use there
    outside their own site: every name bound by a top-level statement that
    ``top`` accepts, and every name bound by a class-body statement part of
    a class stmt for which ``method(stmt, part)`` holds.  ``referenced``
    gives the names a node uses."""
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
                for name in referenced(part):
                    uses.setdefault(name, set()).add((path, index, j))
                if j is not None and method is not None and method(stmt, part):
                    for name in _bound_names(part):
                        label = f"{path.relative_to(ROOT)}:{stmt.name}.{name}"
                        definitions.append((label, name, (path, index, j)))
            if top(stmt):
                for name in _bound_names(stmt):
                    label = f"{path.relative_to(ROOT)}:{name}"
                    definitions.append((label, name, (path, index)))
    return [
        label
        for label, name, site in definitions
        if not {use for use in uses.get(name, ()) if use[: len(site)] != site}
    ]


SRC = sorted((ROOT / "src" / "subshift_lab").glob("*.py"))


def test_every_public_definition_has_a_caller_outside_the_tests():
    files = SRC + sorted((ROOT / "bench").glob("*.py"))
    assert _uncalled(files, _public, lambda cls, part: _public(cls) and _public(part)) == []


def test_every_private_function_has_a_caller_in_the_package():
    # a merge that leaves a private helper without its caller leaves dead code
    assert _uncalled(SRC, _private_function) == []


def test_every_module_level_assignment_in_the_package_has_a_reader():
    # a constant or alias left behind by a deletion is dead code too; the
    # readers may sit in bench, the assignments checked are the package's
    files = SRC + sorted((ROOT / "bench").glob("*.py"))
    unread = _uncalled(files, _assignment)
    assert [label for label in unread if label.startswith("src/")] == []


def test_every_field_of_a_package_class_is_read_as_an_attribute():
    # a field that only tests read echoes an input, a constant or another
    # field; a constructor keyword or a local of the same name is no read.
    # EmpiricalSample.t_digits is exempt while bench/workloads.py passes
    # monte_carlo(t_digits=...) (ROADMAP item 12)
    files = SRC + sorted((ROOT / "bench").glob("*.py"))
    unread = _uncalled(files, lambda stmt: False, _field, _attribute_reads)
    exempt = {"src/subshift_lab/limitdist.py:EmpiricalSample.t_digits"}
    assert [label for label in unread if label.startswith("src/") and label not in exempt] == []
