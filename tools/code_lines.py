"""Count the code lines of Python files: lines holding a token that is not a comment or a docstring.

Blank lines, comment-only lines and the lines of module, class and function
docstrings do not count; a line that holds code and a comment counts once.
Only the standard library's ``ast`` and ``tokenize`` are used.

Usage: ``python tools/code_lines.py [PATH ...]`` (default ``src/symtomo``).
Each path is a file or a directory searched for ``*.py``; the script prints
one line per file and the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold a code token outside its docstrings."""
    source = path.read_bytes()
    docstrings = _docstring_lines(ast.parse(source))
    with path.open("rb") as handle:
        tokens = list(tokenize.tokenize(handle.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> None:
    paths = [Path(p) for p in argv] or [Path("src/symtomo")]
    # a file named twice, or inside a directory also named, counts once
    files = {f.resolve(): f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py"))}
    total = 0
    for _, f in sorted(files.items()):
        count = code_lines(f)
        total += count
        print(f"{count:6d}  {f}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
