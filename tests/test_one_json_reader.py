"""The package reads JSON text in one place.

`json.loads` may appear only inside `errors.parse_json`, which turns text
that is not JSON, or that nests too deep to parse, into a `ValueError`
that names the document. A reader that called `json.loads` itself would
let a `RecursionError` or a decode error that names no file out of the
CLI. A `from json import loads` counts as an appearance too.
"""

from __future__ import annotations

import ast

from test_write_only_fields import PACKAGE, _modules


def _is_loads(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.module == "json" and any(alias.name == "loads" for alias in node.names)
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "loads"
        and isinstance(node.value, ast.Name)
        and node.value.id == "json"
    )


def json_readers() -> list[str]:
    """`module.function` around each `json.loads` in the package, in file
    order; the innermost function wins, and `<module>` stands for none."""
    readers = []
    for path, tree in zip(sorted(PACKAGE.glob("*.py")), _modules()):
        owner = {}
        # `ast.walk` is breadth first, so a nested function overwrites its outer one
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(fn), fn.name))
        readers += [f"{path.stem}.{owner.get(node, '<module>')}" for node in ast.walk(tree) if _is_loads(node)]
    return readers


def test_json_loads_appears_only_in_parse_json():
    assert json_readers() == ["errors.parse_json"]
