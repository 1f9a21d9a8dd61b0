#!/usr/bin/env python3
"""Count the code lines of the Python modules under a directory.

A code line holds at least one token that is neither a comment nor a
docstring, so blank lines, comment-only lines and the docstrings of
modules, classes and functions are not counted. This is the count that
CHANGES.md and ROADMAP.md quote for ``src/hetsim``.

Usage: ``python3 scripts/code_lines.py [DIR]`` (default ``src/hetsim``).
It prints one ``<lines>  <module>`` row per module, then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT_DIR = Path(__file__).resolve().parent.parent / "src" / "hetsim"
_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python ``source`` text."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def count_dir(root):
    """{module path relative to ``root``: code lines}, in path order."""
    root = Path(root)
    return {
        path.relative_to(root).as_posix(): code_lines(
            path.read_text(encoding="utf-8")
        )
        for path in sorted(root.rglob("*.py"))
    }


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    counts = count_dir(argv[0] if argv else DEFAULT_DIR)
    for name, lines in counts.items():
        print(f"{lines:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
