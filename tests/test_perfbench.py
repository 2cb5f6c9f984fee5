"""The benchmark under perfbench/ drives the program through names it binds
from outside: its tracer wraps functions at their callers' module names, and
its job lists are ecclab command lines.  These tests read perfbench and
change nothing under it, so a rename or a dropped flag fails here too."""

import importlib
import json
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


def test_tracer_sees_the_dag_routines(perfbench, tmp_path, capsys):
    # approx calls approximate_center, condense_scc and
    # truncated_shortest_paths by its module names, where the tracer wraps
    # them.
    tracing = perfbench("tracing")
    prefix = str(tmp_path / "mr")
    assert cli.main(["gen", "--kind", "min-radius-dag", "--na", "4", "--nb", "4", "--d", "3",
                     "--seed", "1", "--output", prefix]) == 0
    weighted = tmp_path / "weighted.graph"
    weighted.write_text(write_graph(Graph(4, [(0, 1, 2), (1, 2, 3), (2, 3, 1), (3, 0, 4), (0, 2, 7)])))
    runs = [(f"{prefix}.graph", "min-radius-dag"), (f"{prefix}.graph", "finite-min-ecc"),
            (str(weighted), "source-radius")]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for path, algorithm in runs:
            assert cli.main(["approx", "--input", path, "--algorithm", algorithm]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    spans = {tracer.names[i] for i in tracer.name}
    assert {"approx.center", "graph.scc", "graph.truncated"} <= spans


def test_tracer_sees_the_radius_fallback(perfbench, tmp_path, capsys):
    # Weights above the sweep's limit make a radius verify fall back to the
    # matrix path, which it calls by cli's name, where the tracer wraps it.
    tracing = perfbench("tracing")
    path, sidecar = tmp_path / "heavy.graph", tmp_path / "heavy.json"
    path.write_text(write_graph(Graph(3, [(0, 1, 40), (1, 2, 50), (2, 0, 60)])))
    sidecar.write_text(json.dumps({"quantity": "radius", "variant": "source", "answer": True,
                                   "eq_side": "yes", "yes_value": 90, "no_bound": 91}))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cli.main(["verify", "--input", str(path), "--sidecar", str(sidecar)]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == "PASS radius eq 90, computed 90\n"
    assert "oracle.ecc:cli" in {tracer.names[i] for i in tracer.name}
