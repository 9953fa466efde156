#!/usr/bin/env python3
"""List the library statements that no bundled scenario executes.

    python scripts/traffic.py [NAME ...]

Runs each named bundled scenario (all of them by default) through the command
line, `cli.main(["bench", NAME, ...])`, with its outputs in a temporary
directory, under a `sys.settrace` hook that records the lines executed in
`src/se3shell`.  The hook is installed before the package is imported, so
module-level code counts too.  It then prints, per module, the statements
that no scenario executed, each as `module.py:LINE function: source`.  A
statement is its header alone for a compound statement (`if`, `for`, `def`,
...), and docstrings, `try:` headers and `global` declarations, which run no
code of their own, are not listed.  Exits 0 when every scenario converged,
else with the command line's exit code.
"""

import argparse
import ast
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "se3shell"
# compound statements, whose own lines are the header up to the first body line
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith) + _DEFS
_NO_CODE = (ast.Try, ast.Global, ast.Nonlocal)


def statements(source: str) -> list[tuple[range, str]]:
    """(lines, enclosing definition) of every statement that runs code."""
    out = []

    def visit(body, owner):
        for i, node in enumerate(body):
            docstring = (i == 0 and isinstance(node, ast.Expr)
                         and isinstance(node.value, ast.Constant)
                         and isinstance(node.value.value, str))
            if isinstance(node, _COMPOUND):
                first = min([node.lineno] + [d.lineno for d in
                                             getattr(node, "decorator_list", [])])
                out.append((range(first, node.body[0].lineno), owner))
            elif not (docstring or isinstance(node, _NO_CODE)):
                out.append((range(node.lineno, node.end_lineno + 1), owner))
            inner = owner
            if isinstance(node, _DEFS):
                inner = node.name if owner == "<module>" else f"{owner}.{node.name}"
            for name in ("body", "orelse", "finalbody"):
                visit(getattr(node, name, []), inner)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, inner)

    visit(ast.parse(source).body, "<module>")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="bundled scenarios (default: all)")
    args = parser.parse_args(argv)

    executed = defaultdict(set)
    package = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(call)
    try:
        from se3shell import cli, scenario

        worst = 0
        with tempfile.TemporaryDirectory() as out:
            for name in args.names or scenario.list_bundled():
                worst = max(worst, cli.main(["bench", name, "--out", out, "--quiet"]))
    finally:
        sys.settrace(None)

    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        seen = executed[str(path)]
        stmts = statements(source)
        missed = [(span, owner) for span, owner in stmts if not seen.intersection(span)]
        print(f"{path.name}: {len(missed)} of {len(stmts)} statements not executed")
        for span, owner in missed:
            print(f"  {path.name}:{span.start} {owner}: {lines[span.start - 1].strip()}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
