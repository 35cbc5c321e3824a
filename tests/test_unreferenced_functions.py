"""No function or module-level name in the package is there only for the
tests.

Every function and method defined in the package, nested ones included,
must be referenced in the package. A method, one defined straight in a
class body, counts as referenced when a module loads an attribute of its
name or passes the name as a string to `getattr`. A module-level or
nested function counts through those and through a loaded name too. Its
own `def` does not count, and neither do the tests. Dunder methods are
called by Python itself and are exempt. Like the scan in
`test_write_only_fields.py`, this one matches by name, not by binding: it
can miss an unused function that shares its name with a used one, but it
never flags a function that is used.

The same holds for each name a module binds at its top level, by an
assignment or a `class` statement: a module of the package must load it,
as a name or as an attribute. Dunder names are exempt.
"""

from __future__ import annotations

import ast

from test_write_only_fields import _modules, _read_names

# referenced by no module of the package, kept on purpose
ALLOWED: dict[str, str] = {}


def _functions(tree: ast.Module):
    """(name, is a method) for each function the module defines."""
    methods = {id(stmt) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for stmt in cls.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, id(node) in methods


def _module_names(tree: ast.Module):
    """Each name the module binds at its top level by an assignment or a
    `class` statement."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            yield stmt.name
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            yield from (node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name))


def _loaded(modules: list[ast.Module]) -> tuple[set[str], set[str]]:
    """The attribute names the package loads, and those together with the
    plain names it loads."""
    attributes = {name for tree in modules for name in _read_names(tree)}
    names = attributes | {
        node.id
        for tree in modules
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return attributes, names


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreferenced_functions() -> set[str]:
    modules = _modules()
    attributes, names = _loaded(modules)
    return {
        name
        for tree in modules
        for name, method in _functions(tree)
        if name not in (attributes if method else names) and not _dunder(name)
    }


def unloaded_module_names() -> set[str]:
    modules = _modules()
    _, names = _loaded(modules)
    return {name for tree in modules for name in _module_names(tree) if name not in names and not _dunder(name)}


def test_every_function_is_referenced_by_the_package_or_allowed_with_a_reason():
    assert unreferenced_functions() == set(ALLOWED)


def test_every_module_level_name_is_loaded_by_the_package():
    assert unloaded_module_names() == set()
