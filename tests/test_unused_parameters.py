"""No function in the package takes a parameter that it never reads.

Every parameter of every function and method defined in the package,
nested ones included, must be loaded by name somewhere in that
function's body; a nested function or lambda that loads it counts. A
parameter that nothing reads is one that its callers fill in for
nothing, as a leftover of a deleted rule. Methods that implement a
shared interface may ignore part of its signature; only the `propose`
overrides of `StrategyBackend` are allowed to.
"""

from __future__ import annotations

import ast

from test_write_only_fields import _modules

# qualified function name -> why it may leave parameters unread
ALLOWED = {
    f"{cls}.propose": "implements StrategyBackend.propose(prompt, n_regions, tau, cycle)"
    for cls in ("StrategyBackend", "EmptyBackend", "RuledBackend", "ScriptedBackend")
}


def _functions(node: ast.AST, prefix: str = ""):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, f"{name}.")
        else:
            yield from _functions(child, prefix)


def _parameters(fn: ast.FunctionDef | ast.AsyncFunctionDef):
    args = fn.args
    yield from (a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs))
    yield from (a.arg for a in (args.vararg, args.kwarg) if a is not None)


def unused_parameters() -> dict[str, set[str]]:
    unused = {}
    for tree in _modules():
        for name, fn in _functions(tree):
            loaded = {
                node.id
                for stmt in fn.body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            missing = set(_parameters(fn)) - loaded
            if missing:
                unused[name] = missing
    return unused


def test_every_parameter_is_read_by_its_function_or_allowed_with_a_reason():
    assert set(unused_parameters()) == set(ALLOWED)
