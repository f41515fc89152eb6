"""
Count the code lines of a Python package, per module and in total.

    python3 tools/code_lines.py [DIR]      (default: src/adlv)

A code line is a non-blank line that is not a comment and lies outside
every docstring, a docstring being the first string statement of a module,
class or function.  Only the standard library is used.
"""

from __future__ import annotations

import ast
import os
import sys


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every docstring of the module."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(1 for n, line in enumerate(source.splitlines(), 1)
               if n not in skip and line.strip() and not line.strip().startswith("#"))


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join("src", "adlv")
    total = 0
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            count = code_lines(fh.read())
        print(f"{count:6d}  {name}")
        total += count
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
