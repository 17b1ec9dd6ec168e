#!/usr/bin/env python3
"""Count the lines of Python source that hold code.

A line holds code when it is not blank, not comment-only, and not inside a
module, class or function docstring.  A line that holds both code and the
start or end of a docstring (``def f(): \"\"\"Doc.\"\"\"``) holds code.  A
string that is not a docstring is code on every line it spans.

    python scripts/code_lines.py [--since REV] [PATH ...]

Each PATH is a .py file or a directory searched for them (default:
src/typelink next to this script).  Prints each file's count and the total.
With --since REV, each PATH must lie in a git work tree: each .py file
there now or at REV gets its count at REV (read with ``git show``; a file
missing at REV counts 0), its count now and the difference, with totals.
"""

import argparse
import ast
import io
import pathlib
import subprocess
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


def _git(top: pathlib.Path, *args: str) -> str:
    """The stdout of a git command run in `top`; CalledProcessError when it fails."""
    return subprocess.run(["git", *args], cwd=top, capture_output=True, text=True,
                          check=True).stdout


def compare(rev: str, paths: list[pathlib.Path]) -> list[tuple[str, int, int]]:
    """(path from the work tree's top, code lines at `rev`, code lines now)
    for each .py file under `paths` at `rev` or now, sorted by path."""
    paths = [path.resolve() for path in paths]
    top = pathlib.Path(_git(paths[0] if paths[0].is_dir() else paths[0].parent,
                            "rev-parse", "--show-toplevel").strip())
    rels = [str(path.relative_to(top)) for path in paths]
    then = {name for name in _git(top, "ls-tree", "-r", "--name-only", rev, "--", *rels)
            .splitlines() if name.endswith(".py")}
    now = {str(f.relative_to(top)) for f in python_files(paths)}
    return [(name,
             code_lines(_git(top, "show", f"{rev}:{name}")) if name in then else 0,
             code_lines((top / name).read_text(encoding="utf-8")) if name in now else 0)
            for name in sorted(then | now)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=pathlib.Path, default=[DEFAULT_PATH])
    parser.add_argument("--since", metavar="REV",
                        help="also count each file at this git revision, and the difference")
    args = parser.parse_args()
    if args.since is None:
        total = 0
        for path in python_files(args.paths):
            n = code_lines(path.read_text(encoding="utf-8"))
            total += n
            print(f"{n:6d}  {path}")
        print(f"{total:6d}  total")
        return
    try:
        rows = compare(args.since, args.paths)
    except subprocess.CalledProcessError as err:
        parser.error(err.stderr.strip() or f"git failed on revision {args.since}")
    for name, old, new in [*rows, ("total", sum(r[1] for r in rows), sum(r[2] for r in rows))]:
        print(f"{old:6d} {new:6d} {new - old:+6d}  {name}")


if __name__ == "__main__":
    main()
