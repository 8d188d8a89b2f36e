"""Count the code lines of each ``src/bimotif`` module, and their total.

Usage:
    python3 tools/code_lines.py [FILE ...]

A code line holds at least one token outside docstrings and comments,
so blank lines, comment lines and docstrings do not count; a statement
or string spread over several lines counts each of them.  Without
arguments it reads every ``src/bimotif/*.py`` of this checkout.  It
prints one ``lines path`` row per file, then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token outside docstrings and comments."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(paths: list[str]) -> int:
    root = Path(__file__).resolve().parents[1]
    files = [Path(p) for p in paths] or sorted((root / "src" / "bimotif").glob("*.py"))
    total = 0
    for path in files:
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d} {path if paths else path.relative_to(root)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
