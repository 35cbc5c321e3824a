"""No function in the package is there only for the tests.

Every function and method defined in the package, nested ones included,
must be referenced by name in the package: a module loads a name or an
attribute of that name, or passes the name as a string to `getattr`. Its
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


def _referenced(tree: ast.Module):
    yield from _read_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id


def unreferenced_functions() -> set[str]:
    modules = _modules()
    used = {name for tree in modules for name in _referenced(tree)}
    return {
        node.name
        for tree in modules
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name not in used
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def test_every_function_is_referenced_by_the_package_or_allowed_with_a_reason():
    assert unreferenced_functions() == set(ALLOWED)
