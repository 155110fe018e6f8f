"""Count the code lines of the commro package, per module and in total.

A code line holds at least one token that is not a comment, a
docstring or a line break; blank lines, comment lines and the lines of
module, class and function docstrings are not counted.  The lines in
all are every line of the file.

    python tools/code_lines.py [package directory, default src/commro]
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> set[int]:
    """The line numbers of the code lines of one Python file."""
    code: set[int] = set()
    with path.open("rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type not in _NOT_CODE:
                code.update(range(token.start[0], token.end[0] + 1))
    return code - docstring_lines(ast.parse(path.read_text()))


def count(path: Path) -> tuple[int, int]:
    """(code lines, lines in all) of one Python file."""
    return len(code_lines(path)), len(path.read_text().splitlines())


def main(argv: list[str]) -> None:
    package = Path(argv[0] if argv else Path(__file__).resolve().parent.parent / "src" / "commro")
    total_code = total_lines = 0
    print(f"{'module':<16} {'code':>6} {'lines':>6}")
    for path in sorted(package.glob("*.py")):
        code, lines = count(path)
        total_code, total_lines = total_code + code, total_lines + lines
        print(f"{path.name:<16} {code:>6} {lines:>6}")
    print(f"{'total':<16} {total_code:>6} {total_lines:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
