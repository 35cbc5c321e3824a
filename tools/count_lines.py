"""Count the lines of Python modules by kind: raw, code, docstring, comment
and blank, per module and in total.

    python tools/count_lines.py [path ...]

A path is a module or a directory searched for `*.py`; the default is
`src/floodloop`. Each line is counted once, in the first kind that holds:
- docstring: inside the docstring of a module, class or function (`ast`);
- code: carries a token other than a comment (`tokenize`), so a string
  literal that is not a docstring is code on every line it spans;
- comment: carries a comment and nothing else;
- blank: whitespace only.
Standard library only, so any checkout gives the same figures.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("raw", "code", "docstring", "comment", "blank")
# tokens that carry no code of their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The line count of each kind in `source`."""
    docs = docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        counts["raw"] += 1
        if number in docs:
            counts["docstring"] += 1
        elif number in code:
            counts["code"] += 1
        elif number in comments:
            counts["comment"] += 1
        elif not line.strip():
            counts["blank"] += 1
        else:  # a line that only continues the one before it
            counts["code"] += 1
    return counts


def modules(paths: list[str]) -> list[Path]:
    found = []
    for path in map(Path, paths):
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv: list[str]) -> int:
    files = modules(argv or ["src/floodloop"])
    width = max([len(str(f)) for f in files] + [len("total")])
    print(f"{'module':<{width}}" + "".join(f"{kind:>11}" for kind in KINDS))
    total = dict.fromkeys(KINDS, 0)
    for path in files:
        counts = count(path.read_text())
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{str(path):<{width}}" + "".join(f"{counts[kind]:>11,}" for kind in KINDS))
    print(f"{'total':<{width}}" + "".join(f"{total[kind]:>11,}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
