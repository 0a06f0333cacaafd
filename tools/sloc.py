"""Code lines of the holocurve package, module by module and in total.

    python3 tools/sloc.py [SRC_DIR] [--against OLD_SRC_DIR]

A code line holds at least one token other than a comment, whitespace or a
module, class or function docstring.  SRC_DIR defaults to src/holocurve next
to this script's directory.  With --against, each line reads
"old -> new (+-n)", a module missing from one tree counting 0 there.
Standard library only.
"""
from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) where each module, class or function docstring
    begins."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a code token."""
    docs = docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP or (tok.type == tokenize.STRING
                                 and tok.start in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def counts(src: Path) -> dict[str, int]:
    """Code lines of each module of the package directory `src`, and their
    total."""
    found = {path.stem: code_lines(path.read_text())
             for path in sorted(src.glob("*.py"))}
    return found | {"total": sum(found.values())}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="sloc.py")
    parser.add_argument("src", nargs="?", type=Path, default=Path(
        __file__).resolve().parents[1] / "src" / "holocurve")
    parser.add_argument("--against", type=Path, metavar="OLD_SRC_DIR")
    args = parser.parse_args(argv)
    new = counts(args.src)
    old = counts(args.against) if args.against else {}
    modules = sorted((new.keys() | old.keys()) - {"total"},
                     key=lambda m: (-new.get(m, 0), m))
    for name in modules + ["total"]:
        n, was = new.get(name, 0), old.get(name, 0)
        print(f"{was:6d} -> {n:6d}  ({n - was:+d})  {name}" if args.against
              else f"{n:6d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
