"""The statements of ``src/ecclab`` that a pytest run never executes.

    python3 tools/line_coverage.py tests                    # all of tier-1
    python3 tools/line_coverage.py tests/test_readme.py -q  # one file

Runs pytest in this process with the given arguments, under
``sys.settrace`` and ``threading.settrace``, tracing only frames whose code
lies in ``src/ecclab``, so it needs no coverage package.  It then prints,
for each module of the package, the statements that never ran, with their
source line.  Docstrings, ``def`` and ``class`` lines, imports and
``global`` / ``nonlocal`` declarations are not counted.  A simple statement
counts as run when any of its lines ran; a compound one when a line of its
header (up to its first body statement) ran.  The exit code is pytest's.

Code that tests run in a subprocess is not traced.  The trace costs about
five times the plain run: 4.5 min against 1 min over all of tier-1 on
2 CPUs.
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "ecclab")

SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
           ast.ImportFrom, ast.Global, ast.Nonlocal)


def _is_docstring(node, parent):
    return (isinstance(parent, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def statements(source):
    """(first line, lines that count as the statement) for each counted
    statement of ``source``, in source order."""
    out = []

    def visit(parent):
        # In source order: try, except, else, finally.
        for field in ("body", "handlers", "orelse", "finalbody", "cases"):
            for node in getattr(parent, field, ()):
                if isinstance(node, ast.stmt) and not (
                        isinstance(node, SKIPPED) or _is_docstring(node, parent)):
                    body = getattr(node, "body", None)
                    last = body[0].lineno - 1 if body else node.end_lineno
                    out.append((node.lineno, range(node.lineno, max(last, node.lineno) + 1)))
                visit(node)

    visit(ast.parse(source))
    return out


def main(argv):
    import pytest

    sys.path.insert(0, os.path.join(ROOT, "src"))
    prefix = PACKAGE + os.sep
    ran = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = ran.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as f:
            source = f.read()
        lines = ran.get(path, set())
        counted = statements(source)
        missed = [first for first, span in counted if lines.isdisjoint(span)]
        print(f"src/ecclab/{name}: {len(missed)} of {len(counted)} statements never ran")
        text = source.splitlines()
        for first in missed:
            print(f"  {first}: {text[first - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
