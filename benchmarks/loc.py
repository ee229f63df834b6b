"""Print the tracked source size: ``src/`` and ``simkit/network.py``.

Two counts per target: all lines, and code lines — lines holding a token
other than a comment, with blank lines and docstrings left out.

Run from the repository root::

    python benchmarks/loc.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NETWORK = SRC / "repro" / "simkit" / "network.py"

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(path: Path) -> tuple[int, int]:
    """``(all lines, code lines)`` of one Python file."""
    text = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOC_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docstrings)


def main() -> None:
    files = sorted(SRC.rglob("*.py"))
    totals = [sum(col) for col in zip(*(count(p) for p in files))]
    rows = [
        (f"src/ ({len(files)} files)", *totals),
        ("src/repro/simkit/network.py", *count(NETWORK)),
    ]
    print(f"{'':<30}{'lines':>8}{'code':>8}")
    for name, lines, code in rows:
        print(f"{name:<30}{lines:>8}{code:>8}")


if __name__ == "__main__":
    main()
