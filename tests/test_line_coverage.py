import importlib
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_line_coverage_lists_every_module():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "line_coverage.py"),
                           str(ROOT / "tests" / "test_readme.py"), "-q", "-p", "no:cacheprovider"],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    named = re.findall(r"^src/ecclab/(\w+\.py): \d+ of \d+ statements never ran$",
                       proc.stdout, re.M)
    assert named == sorted(p.name for p in (ROOT / "src" / "ecclab").glob("*.py"))


def test_statements_skip_docstrings_definitions_and_imports(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    statements = importlib.import_module("line_coverage").statements
    source = '''"""Module docstring."""
import os
from sys import path


def f(x):
    """Docstring."""
    global g
    if (x and
            path):
        return os.sep
    try:
        y = (1 +
             2)
    except ValueError:
        pass
    return y


class C:
    """Class docstring."""
    a = 1
'''
    spans = {first: list(span) for first, span in statements(source)}
    # A compound statement counts by its header, a simple one by all its lines.
    assert spans == {9: [9, 10], 11: [11], 12: [12], 13: [13, 14], 16: [16], 17: [17], 22: [22]}
