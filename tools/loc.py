"""Count the code lines of Python files.

A code line is a non-blank line that holds a token other than a
comment; lines of module, class and function docstrings do not count.
This is the rule ``ROADMAP.md`` and ``CHANGES.md`` use for ``src/``.

Usage: ``python tools/loc.py [PATH ...]`` prints the total over every
``.py`` file under each directory PATH and each file PATH (default
``src``).  ``make loc`` runs it on ``src``.
"""

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = frozenset({
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
})


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers covered by the module's, classes' and functions'
    docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_file(path: str) -> int:
    with open(path, "rb") as handle:
        source = handle.read()
    code = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source)))


def python_files(path: str):
    if not os.path.isdir(path):
        yield path
        return
    for directory, _subdirs, files in os.walk(path):
        for name in files:
            if name.endswith(".py"):
                yield os.path.join(directory, name)


if __name__ == "__main__":
    print(sum(count_file(path) for root in sys.argv[1:] or ["src"]
              for path in python_files(root)))
