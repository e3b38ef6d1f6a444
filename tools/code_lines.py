"""Count code lines of Python files: lines holding a token, not counting
blank lines, comment-only lines and docstrings.

Usage: python tools/code_lines.py PATH [PATH ...]

A directory counts every ``.py`` file below it. Prints one line per
path and, for several paths, their total.
"""

import ast
import io
import os
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def file_code_lines(path: str) -> int:
    src = open(path, encoding="utf-8").read()
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(src)))


def code_lines(path: str) -> int:
    if os.path.isfile(path):
        return file_code_lines(path)
    return sum(file_code_lines(os.path.join(root, f))
               for root, _, files in os.walk(path)
               for f in files if f.endswith(".py"))


def main(paths: list[str]) -> None:
    if not paths:
        sys.exit(__doc__)
    counts = [(p, code_lines(p)) for p in paths]
    width = max(len(p) for p, _ in counts)
    for p, n in counts:
        print(f"{p:{width}s} {n:7,d}")
    if len(counts) > 1:
        print(f"{'total':{width}s} {sum(n for _, n in counts):7,d}")


if __name__ == "__main__":
    main(sys.argv[1:])
