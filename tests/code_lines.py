"""Print the code lines of every module under ``src/``, and their total.

A code line is a source line that holds a token of code: blank lines,
comment lines and the lines of docstrings (a string literal that is the
first statement of a module, class or function) do not count. This is
the tracked size of the library, so that a change's claim about it can
be reproduced on both trees:

    python tests/code_lines.py ../parent/src > a.txt
    python tests/code_lines.py > b.txt
    diff a.txt b.txt

The optional argument is the source directory, ``src`` next to this
file's directory by default. It prints ``count  path`` per module,
sorted by path, then ``count  total``. pytest does not collect this
file; it is a script, not a test.
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(root: Path) -> None:
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:5d}  {path.relative_to(root).as_posix()}")
    print(f"{total:5d}  total")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src")
