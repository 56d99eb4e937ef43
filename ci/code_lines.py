"""Count the code lines of each module under ``src/mfkit`` and their total.

A line counts when it holds a token that is not a comment (``tokenize``)
and it is not part of a module, class or function docstring (``ast``).
Blank lines, comment lines and docstrings are thus not counted; a line
inside any other multi-line string is.  Run from the root of a
checkout::

    python ci/code_lines.py [DIRECTORY]

The directory defaults to ``src/mfkit``.
"""
import ast, io, sys, tokenize
from pathlib import Path

# Tokens that are no code of their own: comments, line ends and layout.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(directory: str = "src/mfkit") -> None:
    total = 0
    for path in sorted(Path(directory).glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6} {path.name}")
    print(f"{total:6} total")


if __name__ == "__main__":
    main(*sys.argv[1:])
