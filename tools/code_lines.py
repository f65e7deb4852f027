"""Count the lines of ``src/zdinfty``, module by module and in total.

For each module the script prints its line count, as ``wc -l`` gives it,
and its code lines.  A code line holds a token other than a comment, a
newline or an indent, outside module, class and function docstrings.

Run it from anywhere, with no options::

    python tools/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zdinfty"
SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers taken by the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python ``source`` text."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main():
    total = code = 0
    print(f"{'module':16} {'lines':>6} {'code':>6}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        n, c = source.count("\n"), code_lines(source)
        total, code = total + n, code + c
        print(f"{path.name:16} {n:6} {c:6}")
    print(f"{'total':16} {total:6} {code:6}")


if __name__ == "__main__":
    main()
