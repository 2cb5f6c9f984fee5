"""README's examples under every installed Python 3.10+, compared by output.

    python3 tools/pyversions.py
    python3 tools/pyversions.py --python python3.10 /opt/python3.13/bin/python3

``pyproject.toml`` promises Python 3.10 or later, while the test suite needs
pytest and hypothesis and so usually runs under one interpreter.  This tool
needs neither: each interpreter imports ``ecclab`` from ``src/`` of this
checkout and, in a fresh temporary directory, runs README's examples in
order, the steps:

- every ``ecclab ...`` line of README's ``sh`` blocks, through
  ``ecclab.cli.main``;
- README's ``python`` block, the library example.

A step's digest covers its exit code, what it printed and every file in the
directory after it.  The interpreter running this script gives the reference
digests, each other one is compared with them step by step, and the script
exits 1 when any step differs.

The interpreters are the ones given with ``--python``, else every
``python3.N`` (N >= 10) on PATH that runs and every ``bin/python3`` under
pyenv's ``versions`` directory (``$PYENV_ROOT``, by default ``~/.pyenv``),
one per Python version.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def steps():
    """README's CLI lines, in order, then its library block."""
    text = README.read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
             for line in block.splitlines() if line.startswith("ecclab ")]
    (library,) = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    return lines + [library]


def digests():
    """One digest per step, run in this interpreter."""
    sys.path.insert(0, str(ROOT / "src"))
    from ecclab.cli import main

    out = []
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for step in steps():
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                if step.startswith("ecclab "):
                    code = main(shlex.split(step)[1:])
                else:
                    exec(compile(step, "README.md", "exec"), {})
                    code = 0
            digest = hashlib.sha256(f"{code}\n{printed.getvalue()}".encode())
            for name in sorted(os.listdir(work)):
                digest.update(f"\n{name}\n".encode() + Path(name).read_bytes())
            out.append(digest.hexdigest()[:12])
        os.chdir(ROOT)
    return out


def interpreters():
    """Every installed Python 3.10+, as {version: path}."""
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 20)]
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
    candidates += sorted(map(str, pyenv.glob("*/bin/python3")))
    found = {}
    for path in filter(None, candidates):
        version = _version(path)
        if version and tuple(map(int, re.findall(r"\d+", version)[:2])) >= (3, 10):
            found.setdefault(version, path)
    return found


def _version(path):
    """The Python version of the interpreter at path, or None if it does not
    run (a pyenv shim for a version not selected exits non-zero)."""
    try:
        proc = subprocess.run([path, "-c", "import platform; print(platform.python_version())"],
                              capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(path):
    """The step digests of the interpreter at path, or its error text."""
    proc = subprocess.run([path, __file__, "--digests"], capture_output=True, text=True)
    if proc.returncode != 0:
        return proc.stderr.strip().splitlines()[-1:] or ["failed"]
    return json.loads(proc.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--python", nargs="+", metavar="PATH",
                    help="interpreters to compare (default: every installed Python 3.10+)")
    ap.add_argument("--digests", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.digests:
        print(json.dumps(digests()))
        return 0

    others = {path: _version(path) for path in args.python} if args.python else {
        path: version for version, path in interpreters().items()}
    want = run(sys.executable)
    count = len(steps())
    print(f"# {count} README steps; reference Python {platform.python_version()} ({sys.executable})")
    ok = len(want) == count
    for path, version in others.items():
        got = run(path) if version else ["does not run"]
        same = sum(map(str.__eq__, got, want)) if len(got) == count else 0
        print(f"{version or '-':<10} {same:>2}/{count} steps match  {path}"
              + ("" if len(got) == count else f"  ({got[0]})"), flush=True)
        ok = ok and same == count
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
