"""The benchmark under perfbench/ drives the program through names it binds
from outside: its tracer wraps functions at their callers' module names, and
its job lists are ecclab command lines.  These tests read perfbench and
change nothing under it, so a rename or a dropped flag fails here too."""

import importlib
from pathlib import Path

import pytest

from ecclab import cli, oracle
from ecclab.graph import Graph, write_graph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


def test_tracer_installs_and_uninstalls(perfbench, tmp_path, capsys):
    tracing = perfbench("tracing")
    plain = (cli.exact_eccentricities, cli.exact_median, oracle.shortest_paths)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cli.exact_eccentricities is not plain[0]
        # Weights above the sweep's limit send exact to the matrix path,
        # which the tracer sees at cli's names.
        path = tmp_path / "heavy.graph"
        path.write_text(write_graph(Graph(3, [(0, 1, 40), (1, 2, 50), (2, 0, 60)])))
        assert cli.main(["exact", "--input", str(path), "--variant", "roundtrip"]) == 0
        assert cli.main(["exact", "--input", str(path), "--quantity", "median"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert (cli.exact_eccentricities, cli.exact_median, oracle.shortest_paths) == plain
    spans = {tracer.names[i] for i in tracer.name}
    assert {"oracle.ecc:cli", "oracle.median", "cli.io"} <= spans


def test_every_benchmark_command_line_exits_zero(perfbench, tmp_path, capsys):
    inputs = perfbench("inputs")
    for workload, make in inputs.WORKLOAD_INPUTS.items():
        workdir = tmp_path / workload
        workdir.mkdir()
        inp = make(1, str(workdir))
        for job in inp.jobs + inp.probes:
            assert cli.main(job.argv) == 0, job.argv
    capsys.readouterr()
