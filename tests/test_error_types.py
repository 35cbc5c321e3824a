"""No error type in the package is there only for the tests.

Every exception class defined in `floodloop/errors.py` must be raised or
caught by name somewhere in the package: a `raise X` or `raise X(...)`
statement, or an `except` clause that names it, alone or in a tuple. A
class that nothing raises or catches is one whose rule was deleted, and
it goes with its rule. Like `test_unreferenced_functions.py`, the scan
matches by name, not by binding.
"""

from __future__ import annotations

import ast

from test_write_only_fields import PACKAGE, _modules


def _raised_or_caught(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            yield from (n.id for n in names if isinstance(n, ast.Name))


def unused_error_types() -> set[str]:
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    used = {name for tree in _modules() for name in _raised_or_caught(tree)}
    return defined - used


def test_every_error_type_is_raised_or_caught_by_the_package():
    assert unused_error_types() == set()
