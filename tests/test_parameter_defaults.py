"""A default in a signature is a setting of its own: keep only those that
some caller takes.

Run settings have one home, `config.py`, and a value that the package
uses in one way only is a module constant. So every defaulted parameter
of every function and method defined in the package, and every defaulted
field of a dataclass (a parameter of its generated `__init__`), must be
passed at some call site in the package, by keyword or by position, and
omitted at another one. The fields of the `RunConfig` sections are
exempt: their defaults are the settings' one home. A default that every
call overrides hides a second copy of a setting; one that no call
overrides is a constant in disguise. A call counts for a function when it
names it, `f(...)` or `obj.f(...)`, and for a class's `__init__` when it
names the class; a method's positions skip `self`. Like the other scans
here, this one matches by name, not by binding. A parameter whose second
caller lives outside the package is allowed, with the reason.
"""

from __future__ import annotations

import ast

from test_write_only_fields import _modules

# function.parameter -> the caller that omits or passes it outside the package
ALLOWED = {
    "run.keep_loop": "bench/run.py passes it; every package call omits it",
    "main.argv": "the console script omits it; the tests pass it",
}


# the sections of `RunConfig`, whose fields the scan skips
SETTINGS = {"RunConfig", "WorldConfig", "MobilityConfig", "PolicyConfig", "KnowledgeConfig", "FeedbackConfig"}


def _functions(node: ast.AST, cls: str | None = None, prefix: str = ""):
    """(qualified name, enclosing class or None, def) of every function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _functions(child, child.name, f"{prefix}{child.name}.")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{child.name}", cls, child
            yield from _functions(child, None, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, cls, prefix)


def _defaulted(fn: ast.FunctionDef | ast.AsyncFunctionDef, is_method: bool):
    """(name, position or None) of each parameter with a default; a
    method's positions do not count `self`."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args][1 if is_method else 0 :]
    first = len(positional) - len(args.defaults)
    yield from ((a.arg, i) for i, a in enumerate(positional) if i >= first)
    yield from ((a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)


def _callee(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    if any(k.arg in (name, None) for k in call.keywords):  # None: a `**mapping`
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)
    )


def _passed_and_omitted(sites: list[ast.Call], name: str, position: int | None) -> bool:
    passed = [_passes(call, name, position) for call in sites]
    return any(passed) and not all(passed)


def defaults_without_both_callers() -> set[str]:
    modules = _modules()
    calls: dict[str, list[ast.Call]] = {}
    for tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    found = set()
    for tree in modules:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or cls.name in SETTINGS:
                continue
            if any(_is_dataclass(d) for d in cls.decorator_list):
                sites = calls.get(cls.name, [])
                for name, position in _defaulted_fields(cls):
                    if not _passed_and_omitted(sites, name, position):
                        found.add(f"{cls.name}.{name}")
        for qualified, cls, fn in _functions(tree):
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
            sites = calls.get(cls if fn.name == "__init__" else fn.name, [])
            for name, position in _defaulted(fn, cls is not None and not static):
                if not _passed_and_omitted(sites, name, position):
                    found.add(f"{qualified}.{name}")
    return found


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def _field_options(value: ast.expr | None) -> dict[str, ast.expr] | None:
    """The keywords of a `field(...)` value, or None for a plain value."""
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id == "field":
        return {k.arg: k.value for k in value.keywords}
    return None


def _defaulted_fields(cls: ast.ClassDef):
    """(name, position) of each dataclass field with a default that the
    generated `__init__` takes; a field with `init=False` is not a
    parameter."""
    position = 0
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        options = _field_options(stmt.value)
        if options is None:
            has_default = stmt.value is not None
        else:
            init = options.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            has_default = "default" in options or "default_factory" in options
        if has_default:
            yield stmt.target.id, position
        position += 1


def test_every_default_is_passed_by_one_caller_and_omitted_by_another_or_allowed_with_a_reason():
    assert defaults_without_both_callers() == set(ALLOWED)
