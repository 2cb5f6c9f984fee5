"""README's examples run as written: the library block as Python, and each
`ecclab ...` line of the CLI block through `cli.main`.  Its per-subcommand
flag list matches the parser, and the package top exports exactly the names
the library block imports."""

import inspect
import re
import shlex
import subprocess
import sys
from pathlib import Path

import ecclab
from conftest import cli_flags
from ecclab.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def test_readme_python_block_runs():
    (code,) = blocks("python")
    exec(compile(code, "README.md", "exec"), {})


def test_package_top_exports_only_the_library_block_names():
    (code,) = blocks("python")
    imported = re.search(r"^from ecclab import \((.*?)\)", code, re.M | re.S).group(1)
    public = {name for name, value in vars(ecclab).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(re.findall(r"\w+", imported))


def test_readme_cli_lines_exit_zero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = [line for block in blocks("sh") for line in block.splitlines()
             if line.startswith("ecclab ")]
    assert lines
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line


def test_readme_flag_list_matches_the_parser():
    items = re.findall(r"^- `(\w+)`: (.*?)\.\n(?=-|\n)", README, re.M | re.S)
    listed = {name: set(re.findall(r"`(--[\w-]+)", flags)) for name, flags in items}
    assert listed == cli_flags()


def test_pyversions_tool_compares_the_readme_steps():
    # This interpreter against itself, in a second process: every step of
    # README's examples gives the same digest.
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "pyversions.py"),
                           "--python", sys.executable], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, row = proc.stdout.splitlines()
    steps = len(blocks("python")) + sum(line.startswith("ecclab ")
                                        for block in blocks("sh") for line in block.splitlines())
    assert header.startswith(f"# {steps} README steps; reference Python ")
    assert re.fullmatch(rf"\d+\.\d+\.\d+\S*\s+{steps}/{steps} steps match  \S+", row), row
