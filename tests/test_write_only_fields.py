"""No class in the package keeps a field that nothing reads.

A field is a name annotated in a class body or assigned as
`self.<name>` in one of the class's methods. A `self.<name>` load in a
method of class C reads the field of that name of C or of one of C's
bases in the package, and no other class's. Any other attribute load,
and a name passed as a string to `getattr`, reads every field of that
name. Reads through other names (`summary.flood`, `other.queue`) are
matched by name alone, not by type: the scan can miss a write-only field
whose name is read that way for another class, but it never flags a
field that is read.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "floodloop"

# written and read by no production path, kept on purpose
ALLOWED = {
    "CycleReport.accumulator": "bench/layers.py expects floodloop.feedback:aggregate to be entered on every workload",
    "RunArtifacts.loop": "bench/run.py reads the loop of a run",
    "ConfigError.field": "a public attribute for callers of the error",
    "InstructionBoard.noops": "bench/layers.py counts it in translate.board_size",
}


def _modules() -> list[ast.Module]:
    return [ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))]


def _self_attributes(tree: ast.Module):
    """(class, node) for each `self.<name>` in a method of the class; a
    nested class is walked after its outer one."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self":
                        yield cls, node


def _fields(tree: ast.Module):
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield f"{cls.name}.{stmt.target.id}", stmt.target.id
    for cls, node in _self_attributes(tree):
        if isinstance(node.ctx, ast.Store):
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


def _lineage(modules: list[ast.Module]) -> dict[str, set[str]]:
    """Each class of the package with the names of its bases, theirs in
    turn, and its own."""
    bases = {
        cls.name: [base.id for base in cls.bases if isinstance(base, ast.Name)]
        for tree in modules
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
    }

    def lineage(name: str) -> set[str]:
        return {name}.union(*(lineage(base) for base in bases.get(name, ())))

    return {name: lineage(name) for name in bases}


def write_only_fields() -> set[str]:
    modules = _modules()
    lineage = _lineage(modules)
    by_name: Counter[str] = Counter()
    by_class: set[tuple[str, str]] = set()
    for tree in modules:
        # a nested class's methods come last, so their class wins
        owner = {node: cls.name for cls, node in _self_attributes(tree) if isinstance(node.ctx, ast.Load)}
        # `_read_names` yields every self load too; what is left is read by name
        by_name += Counter(_read_names(tree)) - Counter(node.attr for node in owner)
        by_class |= {(base, node.attr) for node, cls in owner.items() for base in lineage[cls]}
    return {
        field
        for tree in modules
        for field, name in _fields(tree)
        if name not in by_name and (field.partition(".")[0], name) not in by_class
    }


def test_every_field_is_read_or_allowed_with_a_reason():
    assert write_only_fields() == set(ALLOWED)
