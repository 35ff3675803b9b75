#!/usr/bin/env python3
"""Code lines per file and in total: non-blank lines outside comments and docstrings.

Python files are read with tokenize and ast: a line counts if a token other
than a comment or a docstring covers it, a docstring being the first string
statement of a module, class or function. C files count the non-blank lines
left once /* */ and // comments are stripped. PATH is a file or a directory,
searched recursively for *.py and *.c files.

Example:
    python scripts/code_lines.py src/ctvoter
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def python_code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.add((first.lineno, first.col_offset))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    source = text.splitlines()
    return sum(1 for i in lines if source[i - 1].strip())


def strip_c_comments(text: str) -> str:
    """text with every /* */ and // comment removed; newlines and string literals are kept."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            out.append("\n" * text.count("\n", i, end))
            i = end
        elif text.startswith("//", i):
            end = text.find("\n", i)
            i = n if end < 0 else end
        elif ch in "\"'":
            j = i + 1
            while j < n and text[j] != ch and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            out.append(text[i : j + 1])
            i = j + 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def c_code_lines(text: str) -> int:
    return sum(1 for line in strip_c_comments(text).splitlines() if line.strip())


def count(path: Path) -> int:
    text = path.read_text()
    return python_code_lines(text) if path.suffix == ".py" else c_code_lines(text)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("path", type=Path)
    args = ap.parse_args(argv)
    if args.path.is_dir():
        files = sorted(p for p in args.path.rglob("*") if p.suffix in (".py", ".c") and p.is_file())
    else:
        files = [args.path]
    total = 0
    for path in files:
        lines = count(path)
        total += lines
        print(f"{lines:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
