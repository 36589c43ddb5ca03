"""Count code lines: the lines of Python source that hold code.

A comment, a docstring or a blank line is not code; a line that holds
code and a comment is.  Run from a checkout:

    python tools/loc.py

It prints the code lines of each module of ``src/mcusynth``, then the
totals for ``src/`` and ``tests/``.  ``python tools/loc.py ROOT`` counts
the tree at ROOT instead.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold a token of code outside
    its docstrings."""
    lines = set()
    with path.open("rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type not in NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    docstrings = set()
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    return len(lines - docstrings)


def main(root: Path) -> None:
    package = root / "src" / "mcusynth"
    for path in sorted(package.glob("*.py")):
        print(f"{path.relative_to(root)}\t{code_lines(path)}")
    for top in ("src", "tests"):
        print(f"{top}/\t{sum(code_lines(path) for path in (root / top).rglob('*.py'))}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1])
