"""No function in the package is there only for the tests.

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


def unreferenced_functions() -> set[str]:
    modules = _modules()
    attributes = {name for tree in modules for name in _read_names(tree)}
    names = attributes | {
        node.id
        for tree in modules
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return {
        name
        for tree in modules
        for name, method in _functions(tree)
        if name not in (attributes if method else names) and not (name.startswith("__") and name.endswith("__"))
    }


def test_every_function_is_referenced_by_the_package_or_allowed_with_a_reason():
    assert unreferenced_functions() == set(ALLOWED)
