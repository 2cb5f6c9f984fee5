import gc
import json
from argparse import Namespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import cli_flags, floyd_warshall, reference_report
from ecclab import cli, oracle, treewidth
from ecclab.cli import (
    APPROX_ALGORITHMS,
    GADGET_KINDS,
    QUANTITIES,
    SHARED_FLAGS,
    SystemExit2,
    _read_sidecar,
    build_parser,
    main,
)
from ecclab.gadgets import GadgetError
from ecclab.graph import Graph, write_graph
from ecclab.oracle import VARIANTS, sweep_ecc
from ecclab.seeds import substream
from ecclab.setsystem import random_instance, solve_set_system
from ecclab.treewidth import generate_partial_ktree, min_degree_decomposition, write_td


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_usage_error_on_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_usage_error_on_unknown_flag(capsys):
    assert main(["exact", "--input", "x", "--bogus", "1"]) == 2


def test_gen_and_verify_gadget(tmp_path, capsys):
    prefix = str(tmp_path / "g")
    code, out, _ = run(
        ["gen", "--kind", "roundtrip-radius", "--na", "4", "--nb", "4",
         "--d", "3", "--seed", "1", "--output", prefix], capsys)
    assert code == 0 and "roundtrip-radius" in out
    assert (tmp_path / "g.graph").exists() and (tmp_path / "g.json").exists()
    code, out, _ = run(
        ["verify", "--input", prefix + ".graph", "--sidecar", prefix + ".json"], capsys)
    assert code == 0 and out.startswith("PASS")


def test_verify_fails_on_tampered_sidecar(tmp_path, capsys):
    prefix = str(tmp_path / "g")
    run(["gen", "--kind", "radius-23", "--na", "4", "--nb", "4", "--d", "3",
         "--seed", "2", "--output", prefix], capsys)
    sidecar = json.loads((tmp_path / "g.json").read_text())
    if sidecar["answer"]:
        sidecar["yes_value"] += 1
    else:
        # Flip to YES: the gadget's true value is >= no_bound > yes_value,
        # so the claimed exact value cannot hold.
        sidecar["answer"] = True
    (tmp_path / "g.json").write_text(json.dumps(sidecar))
    code, out, _ = run(
        ["verify", "--input", prefix + ".graph", "--sidecar", prefix + ".json"], capsys)
    assert code == 1 and out.startswith("FAIL")
    # Both values appear in the report.
    assert "computed" in out


def test_gen_partial_ktree_and_tw_verify(tmp_path, capsys):
    prefix = str(tmp_path / "kt")
    code, out, _ = run(
        ["gen", "--kind", "partial-ktree", "--n", "40", "--k", "3",
         "--seed", "3", "--output", prefix], capsys)
    assert code == 0
    code, tw_out, _ = run(
        ["tw", "--input", prefix + ".graph", "--td", prefix + ".td",
         "--variant", "undirected"], capsys)
    assert code == 0
    code, exact_out, _ = run(
        ["exact", "--input", prefix + ".graph", "--variant", "undirected"], capsys)
    assert code == 0
    assert tw_out == exact_out


def test_gen_dg(tmp_path, capsys):
    prefix = str(tmp_path / "dg")
    code, out, _ = run(["gen", "--kind", "dg", "--size", "4", "--output", prefix], capsys)
    assert code == 0 and out.startswith("dg n=")
    code, _, _ = run(["exact", "--input", prefix + ".graph", "--variant", "source"], capsys)
    assert code == 0


def test_exact_median_quantity(tmp_path, capsys):
    prefix = str(tmp_path / "m")
    run(["gen", "--kind", "median", "--na", "3", "--nb", "3", "--d", "3",
         "--seed", "4", "--output", prefix], capsys)
    sidecar = json.loads((tmp_path / "m.json").read_text())
    code, out, _ = run(
        ["exact", "--input", prefix + ".graph", "--quantity", "median",
         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    if sidecar["answer"]:
        assert payload["sum"] == sidecar["yes_value"]
    else:
        assert payload["sum"] >= sidecar["no_bound"]


def test_reduce_round_trips_on_gadget(tmp_path, capsys):
    prefix = str(tmp_path / "u")
    run(["gen", "--kind", "undirected-diameter-23", "--na", "5", "--nb", "5",
         "--d", "3", "--seed", "5", "--output", prefix], capsys)
    code, out, _ = run(
        ["reduce", "--input", prefix + ".graph", "--target", "diameter",
         "--seed", "6", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["value"] in (2, 3)


def test_approx_runs(tmp_path, capsys):
    prefix = str(tmp_path / "kt2")
    run(["gen", "--kind", "partial-ktree", "--n", "30", "--k", "2",
         "--seed", "7", "--directed", "--output", prefix], capsys)
    code, out, _ = run(
        ["approx", "--input", prefix + ".graph", "--algorithm", "source-radius",
         "--seed", "8", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert "estimate" in payload and payload["guarantee"] == ["1", "2"]
    code, out, _ = run(
        ["approx", "--input", prefix + ".graph", "--algorithm", "finite-min-ecc"],
        capsys)
    assert code == 0 and out.startswith("vertex\tfinite")


def test_capacity_cap_exit_code(tmp_path, capsys):
    prefix = str(tmp_path / "big")
    run(["gen", "--kind", "partial-ktree", "--n", "50", "--k", "2",
         "--seed", "9", "--output", prefix], capsys)
    code, _, err = run(
        ["exact", "--input", prefix + ".graph", "--cap", "10"], capsys)
    assert code == 3


def _garbage_after(argv):
    """main's exit code on argv, and the number of unreachable objects the
    call left, counted with the cyclic collector off throughout."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        code = main(argv)
        return code, gc.collect()
    finally:
        if enabled:
            gc.enable()


# The gadget each verify quantity is checked on.
GC_GADGETS = {"radius": "radius-23", "diameter": "undirected-diameter-23",
              "eccentricities": "all-eccentricities", "median": "median"}


def test_commands_leave_no_cyclic_garbage(tmp_path, monkeypatch, capsys):
    # main pauses the cyclic collector while a command runs, which is safe
    # only while no command builds a reference cycle.
    monkeypatch.chdir(tmp_path)
    build_parser()  # Built once, before the pause; its argparse formatters are garbage.
    gens = [["gen", "--kind", "partial-ktree", "--n", "30", "--k", "2", "--seed", "1",
             "--output", "kt"],
            ["gen", "--kind", "partial-ktree", "--n", "30", "--k", "2", "--seed", "2",
             "--directed", "--output", "dkt"],
            ["gen", "--kind", "dg", "--size", "4", "--output", "dg"]]
    for argv in gens:
        assert _garbage_after(argv) == (0, 0), argv
    # A gadget's sidecar is written by json.dumps(..., indent=2), whose
    # pure-Python encoder leaves its own closures as garbage, and nothing else.
    gc.collect()
    json.dumps({"a": [1]}, sort_keys=True, indent=2)
    encoder_garbage = gc.collect()
    for kind in [*GC_GADGETS.values(), "min-diameter-dag", "min-radius-dag"]:
        argv = ["gen", "--kind", kind, "--na", "4", "--nb", "4", "--d", "3", "--seed", "1",
                "--output", kind]
        assert _garbage_after(argv) == (0, encoder_garbage), argv
    commands = [
        ["exact", "--input", "kt.graph", "--format", "json"],
        ["exact", "--input", "kt.graph", "--quantity", "median", "--format", "json"],
        ["tw", "--input", "kt.graph", "--format", "json"],
        ["tw", "--input", "kt.graph", "--td", "kt.td", "--format", "json"],
        *(["verify", "--input", f"{kind}.graph", "--sidecar", f"{kind}.json"]
          for kind in GC_GADGETS.values()),
        *(["approx", "--input", f"{alg}.graph" if alg.endswith("-dag") else "dkt.graph",
           "--algorithm", alg, "--format", "json"] for alg in APPROX_ALGORITHMS),
        ["reduce", "--input", "undirected-diameter-23.graph", "--target", "diameter"],
        ["reduce", "--input", "radius-23.graph", "--target", "radius"],
    ]
    for argv in commands:
        assert _garbage_after(argv) == (0, 0), argv
    printed = capsys.readouterr().out
    assert printed.count("PASS") == len(GC_GADGETS)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_restores_the_collector_state(tmp_path, monkeypatch, capsys, enabled):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.graph").write_text(PATH3)
    # The command itself runs with the collector off.
    during = []
    read_graph = cli.read_graph
    monkeypatch.setattr(cli, "read_graph",
                        lambda text: during.append(gc.isenabled()) or read_graph(text))
    was = gc.isenabled()
    try:
        for argv, code in [(["exact", "--input", "p.graph"], 0),
                           (["exact", "--input", "missing.graph"], 2),
                           (["exact", "--input", "p.graph", "--cap", "1"], 3)]:
            (gc.enable if enabled else gc.disable)()
            assert main(argv) == code
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False]


def test_gen_output_help_names_the_prefix(capsys):
    assert main(["gen", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--output OUTPUT path prefix of the files written (required)" in help_text
    assert "default stdout" not in help_text
    assert main(["exact", "--help"]) == 0
    assert "output file (default stdout)" in capsys.readouterr().out


# The flags each subcommand reads: the shared ones it names, then its own.
SUBCOMMAND_FLAGS = {
    "gen": ("seed", "output", "kind", "na", "nb", "d", "density", "t", "sparsify", "n", "k",
            "edge-keep-prob", "size", "directed"),
    "exact": ("input", "output", "variant", "format", "cap", "quantity"),
    "approx": ("input", "output", "seed", "format", "algorithm", "epsilon"),
    "tw": ("input", "output", "variant", "format", "td"),
    "reduce": ("input", "output", "seed", "format", "target", "delta", "rounds"),
    "verify": ("input", "cap", "sidecar", "td"),
}
# Arguments that get each subcommand past its required flags.
REQUIRED = {
    "gen": ["--kind", "dg"],
    "exact": [],
    "approx": ["--algorithm", "source-radius"],
    "tw": [],
    "reduce": ["--target", "radius"],
    "verify": [],
}
SHARED_VALUES = {"input": "g.graph", "output": "out", "variant": "max", "seed": "1",
                 "format": "json", "cap": "5"}
DROPPED = [(name, flag) for name, flags in SUBCOMMAND_FLAGS.items()
           for flag in SHARED_FLAGS if flag not in flags]


def test_each_subcommand_takes_only_the_flags_it_reads():
    assert cli_flags() == {name: {f"--{f}" for f in flags}
                           for name, flags in SUBCOMMAND_FLAGS.items()}
    assert len(DROPPED) == 15


@pytest.mark.parametrize("name, flag", DROPPED, ids=[f"{n}--{f}" for n, f in DROPPED])
def test_a_flag_the_subcommand_does_not_read_exits_2(capsys, name, flag):
    assert main([name, *REQUIRED[name], f"--{flag}", SHARED_VALUES[flag]]) == 2
    assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["exact", "--in", "k.graph"],
    ["exact", "--input", "k.graph", "--var", "max", "--form", "json", "--out", "o.json"],
    ["gen", "--kind", "dg", "--out", "x"],
    ["verify", "--input", "k.graph", "--side", "k.json"],
], ids=["exact-in", "exact-var-form-out", "gen-out", "verify-side"])
def test_an_abbreviated_flag_exits_2(tmp_path, monkeypatch, capsys, argv):
    # Only a flag's full spelling is accepted.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.graph").write_text(write_graph(Graph(3, [(0, 1), (1, 2)], undirected=True)))
    assert main(argv) == 2
    assert "unrecognized arguments: --" in capsys.readouterr().err


def test_tw_json_is_byte_equal_to_exact_json(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ktree, _ = generate_partial_ktree(40, 2, 1.0, substream(1, "tw-vs-exact"))
    graphs = {
        "ktree": ktree,
        "one-vertex": Graph(1, [], undirected=True),
        # Two components each: every eccentricity and the diameter are INF.
        "disconnected": Graph(5, [(0, 1), (2, 3), (3, 4)], undirected=True),
        "disconnected-directed": Graph(4, [(0, 1, 2), (1, 0, 1), (2, 3, 3)]),
    }
    for name, g in graphs.items():
        (tmp_path / f"{name}.graph").write_text(write_graph(g))
        for variant in VARIANTS if g.undirected else VARIANTS[1:]:
            outs = []
            for command in ("tw", "exact"):
                argv = [command, "--input", f"{name}.graph", "--variant", variant, "--format", "json"]
                assert main(argv) == 0, argv
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1], (name, variant)
            assert ('"diameter": "inf"' in outs[0]) == name.startswith("disconnected")


def test_missing_input_is_usage_error(capsys):
    assert main(["exact", "--input", "/nonexistent/file.graph"]) == 2


def test_seed_determinism(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for prefix in (a, b):
        run(["gen", "--kind", "source-radius", "--na", "6", "--nb", "6",
             "--d", "4", "--seed", "42", "--output", prefix], capsys)
    assert (tmp_path / "a.graph").read_text() == (tmp_path / "b.graph").read_text()
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()
    assert (tmp_path / "a.ss").read_text() == (tmp_path / "b.ss").read_text()


GOOD_GRAPH = "p 2 1 U 1\n0 1\n"
PATH3 = "p 3 2 U 1\n0 1\n1 2\n"


def ecc_sidecar(a_ids, hub=None, expected=None, hub_ecc=1):
    """An eccentricities sidecar naming the vertices a_ids and the hub,
    promising eccentricity 1 for each unless ``expected`` is given."""
    extras = {"expected_a_ecc": [1] * len(a_ids) if expected is None else expected, "hub": hub,
              "hub_ecc": hub_ecc}
    return json.dumps({"quantity": "eccentricities", "variant": "undirected", "extras": extras,
                       "witness_map": {"a": a_ids}})


def radius_sidecar(**fields):
    """A radius sidecar for PATH3 (radius 1), its fields overridden by ``fields``."""
    return json.dumps({"quantity": "radius", "variant": "undirected", "answer": True,
                       "eq_side": "yes", "yes_value": 1, "no_bound": 2, **fields})


@pytest.mark.parametrize("files, argv", [
    ({"g.graph": "p 2 1 U 1\n0 x\n"}, ["exact", "--input", "g.graph"]),
    ({"g.graph": GOOD_GRAPH, "g.td": "s td 1 3 2\nb 1 0 1 y\n"},
     ["tw", "--input", "g.graph", "--td", "g.td"]),
    ({"g.graph": GOOD_GRAPH, "g.json": "{}"},
     ["verify", "--input", "g.graph", "--sidecar", "g.json"]),
    ({"g.graph": GOOD_GRAPH, "g.json": "[" * 100000},
     ["verify", "--input", "g.graph", "--sidecar", "g.json"]),
    ({"g.graph": GOOD_GRAPH, "g.td": "s td 1 3 2\nb 1 0 1 5\n"},
     ["tw", "--input", "g.graph", "--td", "g.td"]),
    ({"g.graph": GOOD_GRAPH, "g.td": "s td 1 3 2\nb 1 0 1 -1\n"},
     ["tw", "--input", "g.graph", "--td", "g.td"]),
    ({"g.graph": "p 0 0 U 1\n"}, ["exact", "--input", "g.graph"]),
    ({"g.graph": "p -1 0 U 1\n"}, ["exact", "--input", "g.graph"]),
    ({}, ["gen", "--kind", "dg", "--size", "0", "--output", "x"]),
    ({}, ["gen", "--kind", "partial-ktree", "--n", "0", "--output", "x"]),
    ({}, ["gen", "--kind", "partial-ktree", "--n", "5", "--k", "-1", "--output", "x"]),
    ({}, ["gen", "--kind", "radius-23", "--d", "-1", "--output", "x"]),
    ({}, ["gen", "--kind", "partial-ktree"]),
    ({}, ["gen", "--kind", "radius-23"]),
    ({"g.graph": "p 1 1 U W\n0 0 -5\n"}, ["exact", "--input", "g.graph"]),
    ({"g.graph": "p 2 1 U 1\n0 1\n", "g.td": "s td 2 2 2\nb 1 0 1\nb 2 1\n1 2 7 x\n"},
     ["tw", "--input", "g.graph", "--td", "g.td"]),
    ({"g.graph": PATH3, "g.td": "s td 2 2 3\nb 1 0 1\nb 2 1 2\nb 3 0 2\nb 0 0 2\n1 2\n"},
     ["tw", "--input", "g.graph", "--td", "g.td"]),
    ({"g.graph": PATH3, "g.td": "s td 2 2 3\nb 1 0 1\nb 2 0 2\nb 2 1 2\n1 2\n"},
     ["tw", "--input", "g.graph", "--td", "g.td"]),
    ({"g.graph": PATH3, "g.td": "s td 2 9 50\nb 1 0 1\nb 2 1 2\n1 2\n"},
     ["tw", "--input", "g.graph", "--td", "g.td"]),
    ({"g.graph": PATH3, "g.td": "s td 2 9 3\nb 1 0 1\nb 2 1 2\n1 2\n"},
     ["tw", "--input", "g.graph", "--td", "g.td"]),
    ({"g.graph": PATH3, "g.td": "s td 2 2 50\nb 1 0 1\nb 2 1 2\n1 2\n"},
     ["tw", "--input", "g.graph", "--td", "g.td"]),
    ({"g.graph": PATH3, "g.td": "s td 2 2 3\nb 1 0 1\nb 2 1 2\n1 2\ns td 2 7 99\n"},
     ["tw", "--input", "g.graph", "--td", "g.td"]),
    ({"g.graph": PATH3, "g.td": "s td 2 2 4\nb 1 0 1\nb 2 1 2\n1 2\n",
      "g.json": json.dumps({"quantity": "radius", "variant": "undirected", "answer": True,
                            "eq_side": "yes", "yes_value": 1, "no_bound": 2})},
     ["verify", "--input", "g.graph", "--sidecar", "g.json", "--td", "g.td"]),
    ({"g.graph": "p 3 3 D 1\n0 1\n1 2\n2 0\n"},
     ["approx", "--input", "g.graph", "--algorithm", "min-diameter-dag"]),
    ({"g.graph": "p 3 2 U 1\n0 1\n1 2\n"},
     ["approx", "--input", "g.graph", "--algorithm", "min-radius-dag"]),
    ({"g.graph": "p 2 1 D W\n0 1 2\n"},
     ["approx", "--input", "g.graph", "--algorithm", "min-diameter"]),
    ({"g.graph": GOOD_GRAPH},
     ["approx", "--input", "g.graph", "--algorithm", "min-diameter", "--epsilon", "0"]),
    ({"g.graph": GOOD_GRAPH},
     ["reduce", "--input", "g.graph", "--target", "diameter", "--rounds", "0"]),
    ({"g.graph": GOOD_GRAPH},
     ["reduce", "--input", "g.graph", "--target", "radius", "--rounds", "-1"]),
    ({"g.graph": GOOD_GRAPH},
     ["reduce", "--input", "g.graph", "--target", "diameter", "--delta", "-3"]),
    ({}, ["gen", "--kind", "radius-23", "--density", "3", "--output", "x"]),
    ({}, ["gen", "--kind", "radius-23", "--density", "nan", "--output", "x"]),
    ({}, ["gen", "--kind", "partial-ktree", "--edge-keep-prob", "2", "--output", "x"]),
    ({}, ["gen", "--kind", "partial-ktree", "--edge-keep-prob", "-0.5", "--output", "x"]),
    ({"g.graph": "p 3 2 U 1\n0 1\n1 2\n", "g.json": json.dumps(
        {"quantity": "foo", "variant": "undirected", "answer": True, "eq_side": "yes",
         "yes_value": 2, "no_bound": 3})},
     ["verify", "--input", "g.graph", "--sidecar", "g.json", "--cap", "2"]),
    ({"g.graph": "p 3 2 U 1\n0 1\n1 2\n", "g.json": json.dumps(
        {"quantity": "median", "variant": "undirected", "answer": True, "eq_side": "yes",
         "yes_value": 2, "no_bound": 3})},
     ["verify", "--input", "g.graph", "--sidecar", "g.json", "--td", "missing.td"]),
    ({"g.graph": PATH3}, ["exact", "--input", "g.graph", "--cap", "-1"]),
    ({"g.graph": PATH3, "g.json": ecc_sidecar([1])},
     ["verify", "--input", "g.graph", "--sidecar", "g.json", "--cap", "-1"]),
    ({"g.graph": PATH3, "g.json": ecc_sidecar([0, 999])},
     ["verify", "--input", "g.graph", "--sidecar", "g.json"]),
    ({"g.graph": PATH3, "g.json": ecc_sidecar([-1])},
     ["verify", "--input", "g.graph", "--sidecar", "g.json"]),
    ({"g.graph": PATH3, "g.json": ecc_sidecar([1], hub=3)},
     ["verify", "--input", "g.graph", "--sidecar", "g.json"]),
    ({"g.graph": PATH3, "g.json": ecc_sidecar([1], hub=-3)},
     ["verify", "--input", "g.graph", "--sidecar", "g.json"]),
    ({"g.graph": PATH3, "g.json": ecc_sidecar(["1"])},
     ["verify", "--input", "g.graph", "--sidecar", "g.json"]),
    ({"g.graph": PATH3, "g.json": ecc_sidecar([1.0])},
     ["verify", "--input", "g.graph", "--sidecar", "g.json"]),
    ({"g.graph": PATH3, "g.json": radius_sidecar(answer=False, no_bound="abc")},
     ["verify", "--input", "g.graph", "--sidecar", "g.json"]),
    ({"g.graph": PATH3, "g.json": radius_sidecar(yes_value="1")},
     ["verify", "--input", "g.graph", "--sidecar", "g.json"]),
    ({"g.graph": PATH3, "g.json": radius_sidecar(yes_value=True)},
     ["verify", "--input", "g.graph", "--sidecar", "g.json"]),
    ({"g.graph": PATH3, "g.json": radius_sidecar(answer="no")},
     ["verify", "--input", "g.graph", "--sidecar", "g.json"]),
    ({"g.graph": PATH3, "g.json": radius_sidecar(eq_side="maybe")},
     ["verify", "--input", "g.graph", "--sidecar", "g.json"]),
    ({"g.graph": PATH3, "g.json": ecc_sidecar([1, 0], expected=[1])},
     ["verify", "--input", "g.graph", "--sidecar", "g.json"]),
    ({"g.graph": PATH3, "g.json": ecc_sidecar([1], hub=1, hub_ecc="1")},
     ["verify", "--input", "g.graph", "--sidecar", "g.json"]),
], ids=["graph-edge", "td-bag", "sidecar-empty", "sidecar-deep", "td-vertex-high", "td-vertex-negative",
        "graph-empty", "graph-negative-n", "gen-dg-size", "gen-ktree-n", "gen-ktree-k",
        "gen-negative-d", "gen-ktree-no-output", "gen-gadget-no-output", "graph-self-loop-weight",
        "td-edge-extra-field", "td-bag-id-outside", "td-bag-id-twice", "td-header-both-wrong",
        "td-header-size", "td-header-n", "td-header-twice", "verify-td-header-n", "approx-dag-cycle",
        "approx-dag-undirected", "approx-weighted", "approx-epsilon-zero", "reduce-rounds-zero",
        "reduce-rounds-negative", "reduce-delta-negative", "gen-density-high", "gen-density-nan",
        "gen-keep-prob-high", "gen-keep-prob-negative", "sidecar-quantity", "verify-median-td",
        "exact-cap-negative", "verify-cap-negative", "sidecar-vertex-high", "sidecar-vertex-negative",
        "sidecar-hub-high", "sidecar-hub-negative", "sidecar-vertex-string", "sidecar-vertex-float",
        "sidecar-no-bound-string", "sidecar-yes-value-string", "sidecar-yes-value-bool",
        "sidecar-answer-string", "sidecar-eq-side", "sidecar-expected-short",
        "sidecar-hub-ecc-string"])
def test_malformed_input_is_usage_error(tmp_path, monkeypatch, capsys, files, argv):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


# Each path flag, with BAD standing for a path it cannot read or write.
READ_FLAGS = [
    ["exact", "--input", "BAD"],
    ["approx", "--input", "BAD", "--algorithm", "source-radius"],
    ["tw", "--input", "BAD"],
    ["reduce", "--input", "BAD", "--target", "diameter"],
    ["verify", "--input", "BAD", "--sidecar", "g.json"],
    ["tw", "--input", "g.graph", "--td", "BAD"],
    ["verify", "--input", "g.graph", "--sidecar", "BAD"],
    ["verify", "--input", "g.graph", "--sidecar", "g.json", "--td", "BAD"],
]
WRITE_FLAGS = [
    ["exact", "--input", "g.graph", "--output", "BAD"],
    ["approx", "--input", "g.graph", "--algorithm", "source-radius", "--output", "BAD"],
    ["tw", "--input", "g.graph", "--output", "BAD"],
    ["reduce", "--input", "g.graph", "--target", "diameter", "--output", "BAD"],
]


UNREADABLE = [
    *[("directory", argv) for argv in READ_FLAGS + WRITE_FLAGS],
    *[("binary", argv) for argv in READ_FLAGS],
    # gen writes <prefix>.graph, here under a path whose parent is a file.
    ("binary", ["gen", "--kind", "dg", "--output", "BAD/g"]),
]


@pytest.mark.parametrize("bad, argv", UNREADABLE, ids=[
    f"{bad}-{argv[0]}{next(f for f, v in zip(argv, argv[1:]) if v.startswith('BAD'))}"
    for bad, argv in UNREADABLE])
def test_unreadable_path_is_usage_error(tmp_path, monkeypatch, capsys, bad, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.graph").write_text(PATH3)
    (tmp_path / "g.td").write_text("s td 2 2 3\nb 1 0 1\nb 2 1 2\n1 2\n")
    (tmp_path / "g.json").write_text(radius_sidecar())
    if bad == "directory":
        (tmp_path / "BAD").mkdir()
    else:
        (tmp_path / "BAD").write_bytes(b"p 3 2 U 1\n0 1\n1 2 \xff\xfe\n")
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    if bad == "binary" and argv[0] != "gen":
        assert "BAD is not UTF-8 text" in err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=20,
)
# Sidecar-shaped documents: each field present or not, well-typed or not.
_SIDECAR = st.fixed_dictionaries({}, optional={
    "quantity": st.sampled_from(QUANTITIES) | _JSON,
    "variant": st.sampled_from(VARIANTS) | _JSON,
    "answer": _JSON,
    "eq_side": st.sampled_from(["yes", "no"]) | _JSON,
    "yes_value": _JSON,
    "no_bound": _JSON,
    "extras": st.fixed_dictionaries({}, optional={
        "hub": _JSON, "hub_ecc": _JSON, "expected_a_ecc": _JSON}) | _JSON,
    "witness_map": st.fixed_dictionaries({}, optional={"a": _JSON}) | _JSON,
})


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_JSON | _SIDECAR)
def test_read_sidecar_returns_triple_or_usage_error(tmp_path, capsys, doc):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    (tmp_path / "g.graph").write_text(PATH3)
    # verify on any sidecar exits 0, 1 or 2 without a traceback.
    code, _, err = run(["verify", "--input", str(tmp_path / "g.graph"), "--sidecar", str(path)],
                       capsys)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
    try:
        quantity, variant, promise = _read_sidecar(str(path))
    except SystemExit2:
        return
    assert isinstance(promise, tuple)


def gadget_with_answer(kind, answer):
    """A small gadget of ``kind``, built as ``ecclab gen`` builds it, whose
    set-system answer is ``answer``."""
    mode, build = GADGET_KINDS[kind]
    rng = substream(5, f"verify:{kind}:{answer}")
    while True:
        inst = random_instance(rng.randint(2, 6), rng.randint(2, 6), rng.randint(2, 5), mode, rng,
                               density=rng.uniform(0.2, 0.8))
        if solve_set_system(inst)[0] == answer:
            try:
                return build(inst, Namespace(t=None, sparsify=False))
            except GadgetError:
                pass


@pytest.mark.parametrize("answer", [True, False], ids=["yes", "no"])
@pytest.mark.parametrize("kind", sorted(GADGET_KINDS))
def test_verify_computes_the_reference_value(tmp_path, capsys, kind, answer):
    # verify prints the value it computed, whatever path computed it: the
    # radius sweep, the full sweep or the matrix path.
    out = gadget_with_answer(kind, answer)
    g = out.graph
    (tmp_path / "g.graph").write_text(write_graph(g))
    (tmp_path / "g.json").write_text(out.to_sidecar_json())
    code, printed, _ = run(["verify", "--input", str(tmp_path / "g.graph"),
                            "--sidecar", str(tmp_path / "g.json")], capsys)
    if out.quantity == "eccentricities":
        ecc = reference_report(g, out.variant).ecc
        got = [ecc[v] for v in out.witness_map["a"]]
        ok = got == out.extras["expected_a_ecc"] and ecc[out.extras["hub"]] == out.extras["hub_ecc"]
        assert printed.endswith(f" got={got}\n")
    else:
        if out.quantity == "median":
            value = min(sum(row) for row in floyd_warshall(g))
        else:
            report = reference_report(g, out.variant)
            value = report.radius if out.quantity == "radius" else report.diameter
        rel, target = out.expected()
        ok = value == target if rel == "eq" else value >= target
        assert printed.endswith(f", computed {value}\n")
    assert code == (0 if ok else 1)


def spider(legs, length):
    """A centre, vertex 0, with ``legs`` paths of ``length`` vertices each."""
    edges = []
    for leg in range(legs):
        first = 1 + leg * length
        edges += [(0, first)] + [(v, v + 1) for v in range(first, first + length - 1)]
    return Graph(1 + legs * length, edges, undirected=True)


def test_radius_verify_stops_the_sweep_at_the_radius(tmp_path, monkeypatch, capsys):
    # Radius 20 at the centre, diameter 40 between two leaves: a radius
    # check reads levels 0..20, where the full sweep reads 0..40.
    g = spider(20, 20)
    levels = []
    plain = oracle._levels

    def counted(*args):
        for item in plain(*args):
            levels.append(item)
            yield item

    monkeypatch.setattr(oracle, "_levels", counted)
    # A vertex at depth k of a leg is 20 + k from the leaves of the others.
    assert sweep_ecc(g, "undirected") == [20] + list(range(21, 41)) * 20
    assert len(levels) == 41
    (tmp_path / "g.graph").write_text(write_graph(g))
    (tmp_path / "g.json").write_text(json.dumps(
        {"quantity": "radius", "variant": "undirected", "answer": True, "eq_side": "yes",
         "yes_value": 20, "no_bound": 21}))
    levels.clear()
    code, printed, _ = run(["verify", "--input", str(tmp_path / "g.graph"),
                            "--sidecar", str(tmp_path / "g.json")], capsys)
    assert (code, printed) == (0, "PASS radius eq 20, computed 20\n")
    assert len(levels) <= 21


@pytest.mark.parametrize("quantity", ["radius", "diameter"])
def test_verify_with_td_computes_no_witness(tmp_path, monkeypatch, capsys, quantity):
    # verify --td needs the eccentricities alone, so it never builds the tw
    # solver's report, whose witness costs one or two more searches.
    g = spider(4, 30)
    value = 30 if quantity == "radius" else 60
    (tmp_path / "g.graph").write_text(write_graph(g))
    (tmp_path / "g.td").write_text(write_td(min_degree_decomposition(g), g.n))
    (tmp_path / "g.json").write_text(json.dumps(
        {"quantity": quantity, "variant": "undirected", "answer": True, "eq_side": "yes",
         "yes_value": value, "no_bound": value + 1}))

    def no_report(*args):
        raise AssertionError("eccentricity_report called")

    monkeypatch.setattr(treewidth, "eccentricity_report", no_report)
    monkeypatch.setattr(oracle, "eccentricity_report", no_report)
    code, printed, _ = run(["verify", "--input", str(tmp_path / "g.graph"),
                            "--sidecar", str(tmp_path / "g.json"), "--td", str(tmp_path / "g.td")],
                           capsys)
    assert (code, printed) == (0, f"PASS {quantity} eq {value}, computed {value}\n")


def test_tw_refuses_a_decomposition_with_no_bags(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.graph").write_text(PATH3)
    (tmp_path / "g.td").write_text("s td 0 0 3\n")
    code, _, err = run(["tw", "--input", "g.graph", "--td", "g.td"], capsys)
    assert (code, err) == (2, "error: decomposition has no bags\n")


T_TOO_SMALL = "gadget rejected the instance: t must be at least 2"


@pytest.mark.parametrize("files, argv, message", [
    ({}, ["exact"], "--input is required"),
    ({}, ["gen", "--kind", "nope", "--output", "p"], "unknown generator kind 'nope'"),
    ({"g.graph": PATH3}, ["verify", "--input", "g.graph"], "--sidecar is required for verify"),
    *[({}, ["gen", "--kind", kind, "--t", "1", "--output", "p"], T_TOO_SMALL)
      for kind in ("source-radius", "max-radius", "min-radius-dag")],
    ({}, ["gen", "--kind", "min-diameter-weighted", "--t", "0", "--output", "p"],
     "gadget rejected the instance: t must be even and at least 2"),
    ({"g.graph": PATH3, "g.td": "s td 2 2 3\nb 1 0 1\nb 2 1 2\n1 2\n1 2\n"},
     ["tw", "--input", "g.graph", "--td", "g.td"], "bag tree must have 1 edges, found 2"),
    ({"g.graph": PATH3, "g.td": "s td 2 2 3\nb 1 0 1\nb 2 1 2\n1 3\n"},
     ["tw", "--input", "g.graph", "--td", "g.td"], "bag tree edge (0,2) out of range"),
], ids=["exact-no-input", "gen-unknown-kind", "verify-no-sidecar", "gen-source-radius-t1",
        "gen-max-radius-t1", "gen-min-radius-dag-t1", "gen-min-diameter-weighted-t0",
        "td-edge-extra", "td-edge-bag-outside"])
def test_guard_prints_its_message(tmp_path, monkeypatch, capsys, files, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, _, err = run(argv, capsys)
    assert (code, err) == (2, f"error: {message}\n")
    assert not (tmp_path / "p.graph").exists()
