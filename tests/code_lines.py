"""Count the code lines of each module in src/qident, and their total.

Run from anywhere as ``python tests/code_lines.py``; it uses the standard
library only.  A code line is a line that holds a token other than a
comment, a newline, an indent or dedent token, or a docstring.  A docstring
is the first statement of a module, class or function when that statement
is a bare string, or any bare string statement at module level (such as
the one after a type alias).  A token that spans several lines, like a
multi-line string, holds each of them.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qident"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _is_string(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def _docstrings(tree: ast.Module) -> list:
    # The (start, end) positions of every docstring statement.
    found = [node for node in tree.body if _is_string(node)]
    for scope in ast.walk(tree):
        if isinstance(scope, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and _is_string(scope.body[0]):
            found.append(scope.body[0])
    return [((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset)) for node in found]


def code_lines(source: str) -> int:
    """The number of code lines in source, by the rule of the module docstring."""
    docstrings = _docstrings(ast.parse(source))
    rows = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in SKIPPED:
            continue
        if token.type == tokenize.STRING and any(start <= token.start < end for start, end in docstrings):
            continue
        rows.update(range(token.start[0], token.end[0] + 1))
    return len(rows)


def main() -> int:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.stem:12} {count:5}")
    print(f"{'total':12} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
