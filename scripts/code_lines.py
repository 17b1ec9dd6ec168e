#!/usr/bin/env python3
"""Count the lines of Python source that hold code.

A line holds code when it is not blank, not comment-only, and not inside a
module, class or function docstring.  A line that holds both code and the
start or end of a docstring (``def f(): \"\"\"Doc.\"\"\"``) holds code.  A
string that is not a docstring is code on every line it spans.

    python scripts/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for them (default:
src/typelink next to this script).  Prints each file's count and the total.
"""

import argparse
import ast
import io
import pathlib
import tokenize

DEFAULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "src" / "typelink"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold code."""
    spans = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE:
            continue
        if tok.type == tokenize.STRING and any(start <= tok.start and tok.end <= end
                                               for start, end in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(paths: list[pathlib.Path]) -> list[pathlib.Path]:
    return [f for path in paths
            for f in (sorted(path.rglob("*.py")) if path.is_dir() else [path])]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=pathlib.Path, default=[DEFAULT_PATH])
    total = 0
    for path in python_files(parser.parse_args().paths):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
