"""No class in the package keeps a field that nothing reads.

A field is a name annotated in a class body or assigned as
`self.<name>` in one of the class's methods. It counts as read when a
module of the package loads an attribute of that name, or passes the
name as a string to `getattr`. The scan matches by name, not by type:
it can miss a write-only field whose name some other class reads, but
it never flags a field that is read.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "floodloop"

# written and read by no production path, kept on purpose
ALLOWED = {
    "CycleReport.accumulator": "bench/layers.py expects floodloop.feedback:aggregate to be entered on every workload",
    "RunArtifacts.loop": "bench/run.py reads the loop of a run",
    "ConfigError.field": "a public attribute for callers of the error",
}


def _modules() -> list[ast.Module]:
    return [ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))]


def _fields(tree: ast.Module):
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                yield f"{cls.name}.{stmt.target.id}", stmt.target.id
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(stmt):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                    ):
                        yield f"{cls.name}.{node.attr}", node.attr


def _read_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            yield node.args[1].value


def write_only_fields() -> set[str]:
    modules = _modules()
    read = {name for tree in modules for name in _read_names(tree)}
    return {field for tree in modules for field, name in _fields(tree) if name not in read}


def test_every_field_is_read_or_allowed_with_a_reason():
    assert write_only_fields() == set(ALLOWED)
