"""Inputs and job lists of the three workloads.

Every input derives from the workload seed through ``ecclab.seeds.substream``,
so one seed gives byte-identical files.  A job is one ``ecclab`` command line;
its ``check`` names what the verifier compares the output against after the
timed phase.

The generator's default partial k-trees (edge-keep probability 0.8) are
disconnected, so every eccentricity on them is INF; the k-trees here keep every
edge (probability 1.0).  Directed k-trees take each edge in both directions
with independent weights 1..3, so they are strongly connected and the four
directed variants give different answers.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass

from ecclab import cli, gadgets, graph, setsystem, treewidth
from ecclab.seeds import substream

TW_KTREE = "tw-ktree"
ORACLE_GADGETS = "oracle-gadgets"
APPROX_REDUCE = "approx-reduce"

# Job classes: the distance variant of the job, or the kind of algorithm.
CLASSES = ("undirected", "source", "max", "min", "roundtrip", "approx", "reduce23")

# Default gadget sizes (na, nb, d): each verify job takes about 0.03 to 0.3 s
# on a 2-CPU machine.
GADGET_SIZES = {
    "radius-23": (120, 120, 14),
    "source-radius": (30, 30, 10),
    "max-radius": (24, 24, 10),
    "roundtrip-radius": (40, 40, 12),
    "min-radius-dag": (16, 16, 8),
    "median": (24, 24, 10),
    "min-diameter-dag": (80, 80, 14),
    "min-diameter-weighted": (100, 100, 14),
    "undirected-diameter-23": (120, 120, 14),
    "roundtrip-diameter": (100, 100, 14),
    "all-eccentricities": (100, 100, 14),
}
# Instances per answer.  The size of a min-radius-dag gadget, and with it the
# cost of verifying it, varies by a factor of four between instances of one
# (na, nb, d), so three small ones of each answer share that work.
GADGET_REPEATS = {"min-radius-dag": 3}
# `ecclab gen` defaults for the gadget constructors' extra parameters.
GEN_DEFAULTS = argparse.Namespace(t=None, sparsify=False)

# The hub instance (r=99, s=5000): radius 3 by construction, answered 2 by the
# 2-vs-3 reduction on most reduce seeds.
HUB_R, HUB_S, HUB_REDUCE_SEED = 99, 5000, 1


@dataclass
class Job:
    name: str
    cls: str
    argv: list
    check: tuple  # (kind, graph name, detail); see checks.py
    output: "str | None" = None


class InputSet:
    """Files of one workload under ``workdir`` and the jobs that read them."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.jobs = []
        self.probes = []  # jobs of a known defect: run once, untimed, not counted
        self.graphs = {}  # graph name -> file path
        self.answers = {}  # gadget name -> set-system answer

    def path(self, name, ext):
        return os.path.join(self.workdir, f"{name}.{ext}")

    def add_graph(self, name, g, td=None):
        _write(self.path(name, "graph"), graph.write_graph(g))
        self.graphs[name] = self.path(name, "graph")
        if td is not None:
            _write(self.path(name, "td"), treewidth.write_td(td, g.n))

    def add_gadget(self, name, out):
        self.add_graph(name, out.graph)
        _write(self.path(name, "json"), out.to_sidecar_json())
        self.answers[name] = out.answer

    def add_job(self, name, cls, command, gname, check, extra=(), probe=False):
        out = self.path(name, "out")
        argv = [command, "--input", self.graphs[gname], *extra, "--format", "json", "--output", out]
        (self.probes if probe else self.jobs).append(Job(name, cls, argv, (check[0], gname, *check[1:]), out))

    def add_verify(self, name, cls, gname):
        argv = ["verify", "--input", self.graphs[gname], "--sidecar", self.path(gname, "json")]
        self.jobs.append(Job(name, cls, argv, ("exit0", gname)))


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def ktree(n, k, rng, directed=False, max_weight=1):
    """Connected k-tree; directed means both arcs of every edge, weighted 1..max_weight."""
    g, td = treewidth.generate_partial_ktree(n, k, 1.0, rng)
    if not directed:
        return g, td
    arcs = []
    for u, v, _ in g.edges:
        arcs.append((u, v, rng.randint(1, max_weight)))
        arcs.append((v, u, rng.randint(1, max_weight)))
    return graph.Graph(n, arcs), td


def gadget(kind, answer, rng, size=None):
    """A gadget of ``kind``, built as ``ecclab gen`` builds it, whose set-system
    answer is ``answer``; ``size`` = (na, nb, d) overrides the default.

    Draws random instances, moving the element density after each draw with
    the wrong answer: denser sets make HSE instances YES and OV instances NO.
    """
    mode, build = cli.GADGET_KINDS[kind]
    na, nb, d = size or GADGET_SIZES[kind]
    density, denser = 0.5, answer == (mode == setsystem.HSE)
    for _ in range(500):
        inst = setsystem.random_instance(na, nb, d, mode, rng, density=density)
        # An empty set decides the instance alone and, in radius-23, leaves an
        # isolated vertex (radius INF, outside the 2-vs-3 promise).
        if not (all(inst.list_a) and all(inst.list_b)):
            density = min(0.95, density * 1.05)
            continue
        if setsystem.solve_set_system(inst)[0] != answer:
            density = min(0.95, density * 1.05) if denser else density / 1.05
            continue
        try:
            return build(inst, GEN_DEFAULTS)
        except gadgets.GadgetError:
            continue
    raise RuntimeError(f"no {kind} instance with answer {answer} in 500 draws")


def hub_graph(r=HUB_R, s=HUB_S):
    """Centre c joined to x_0..x_{r-1}; y_j joined to x_{j mod r}; hub H joined to every y_j."""
    c, hub = 0, r + s + 1
    edges = [(c, 1 + i) for i in range(r)]
    edges += [(1 + r + j, 1 + j % r) for j in range(s)]
    edges += [(hub, 1 + r + j) for j in range(s)]
    return graph.Graph(r + s + 2, edges, undirected=True)


# ---------------------------------------------------------------------------
# Workloads


def tw_ktree(seed, workdir):
    """`ecclab tw` on connected k-trees: where treewidth and rangemax work."""
    inp = InputSet(workdir)
    rng = substream(seed, TW_KTREE)
    # The cost of one small directed graph swings by about 30% from seed to
    # seed, so several graphs of a kind share the work to keep the total steady.
    # At n=80 some directed k=2 graphs find no portal split at the top level
    # and fall back to the oracle, ten times faster; at n=60 none of 30 did.
    # The k=3 `min` cost has a heavy tail at n=40 (5 of 30 graphs took over
    # 1.5 times the median) and a light one at n=30.
    plan = [
        # (graph name, count, n, k, directed, variants, with --td)
        ("u-k2", 3, 470, 2, False, ["undirected"], True),
        ("u-k3", 1, 600, 3, False, ["undirected"], True),
        ("u-k2-mindeg", 2, 400, 2, False, ["undirected"], False),
        ("d-k2", 10, 60, 2, True, ["source", "max", "min", "roundtrip"], True),
        ("d-k3", 1, 300, 3, True, ["source", "max", "roundtrip"], True),
        ("d-k3-min", 10, 30, 3, True, ["min"], True),
    ]
    for prefix, count, n, k, directed, variants, with_td in plan:
        for i in range(count):
            gname = f"{prefix}-{i}" if count > 1 else prefix
            g, td = ktree(n, k, rng, directed=directed, max_weight=3)
            inp.add_graph(gname, g, td)
            extra_td = ["--td", inp.path(gname, "td")] if with_td else []
            for variant in variants:
                inp.add_job(
                    f"tw:{gname}:{variant}", variant, "tw", gname, ("ecc", variant),
                    ["--variant", variant, *extra_td],
                )
    return inp


def oracle_gadgets(seed, workdir):
    """`ecclab verify` on every gadget kind and `ecclab exact` on k-trees: where the oracle works."""
    inp = InputSet(workdir)
    rng = substream(seed, ORACLE_GADGETS)
    for kind in GADGET_SIZES:
        repeats = GADGET_REPEATS.get(kind, 1)
        for i in range(repeats):
            for answer in (True, False):
                name = f"{kind}-{'yes' if answer else 'no'}" + (f"-{i}" if repeats > 1 else "")
                out = gadget(kind, answer, rng)
                inp.add_gadget(name, out)
                inp.add_verify(f"verify:{name}", out.variant, name)
    g, _ = ktree(700, 2, rng)
    inp.add_graph("u-k2", g)
    inp.add_job("exact:u-k2:undirected", "undirected", "exact", "u-k2", ("ecc", "undirected"),
                ["--variant", "undirected"])
    inp.add_job("exact:u-k2:median", "undirected", "exact", "u-k2", ("median",),
                ["--quantity", "median"])
    # Two directed graphs rather than one of n=500: the `min` job on one
    # graph varied by about 10% from seed to seed.
    for gname in ("d-k3-0", "d-k3-1"):
        g, _ = ktree(250, 3, rng, directed=True, max_weight=3)
        inp.add_graph(gname, g)
        for variant in ("source", "max", "min", "roundtrip"):
            inp.add_job(f"exact:{gname}:{variant}", variant, "exact", gname, ("ecc", variant),
                        ["--variant", variant])
    return inp


def approx_reduce(seed, workdir):
    """`ecclab approx` and `ecclab reduce`: where approx, reduce23 and setsystem work."""
    inp = InputSet(workdir)
    rng = substream(seed, APPROX_REDUCE)
    approx_seed = ["--seed", str(seed)]

    g, _ = ktree(800, 2, rng, directed=True, max_weight=3)
    inp.add_graph("d-k2-weighted", g)
    inp.add_job("approx:source-radius", "approx", "approx", "d-k2-weighted",
                ("approx", "source-radius"), ["--algorithm", "source-radius", *approx_seed])
    g, _ = ktree(800, 2, rng, directed=True, max_weight=1)
    inp.add_graph("d-k2-unit", g)
    inp.add_job("approx:min-diameter", "approx", "approx", "d-k2-unit",
                ("approx", "min-diameter"), ["--algorithm", "min-diameter", *approx_seed])
    # Both sides of both DAG gadgets have finite min-radius and min-diameter.
    # The cost of approx min-radius-dag on one gadget swings by a factor of
    # about four from instance to instance, so three small ones of each answer
    # share that work.
    for kind, size, algorithm, answers in (
        ("min-radius-dag", (20, 20, 8), "min-radius-dag", (True, False) * 3),
        ("min-diameter-dag", (120, 120, 16), "min-diameter-dag", (True, False)),
    ):
        for i, answer in enumerate(answers):
            name = f"{kind}-{'yes' if answer else 'no'}-{i}"
            inp.add_gadget(name, gadget(kind, answer, rng, size))
            for alg in (algorithm, "finite-min-ecc"):
                inp.add_job(f"approx:{alg}:{name}", "approx", "approx", name,
                            ("approx", alg), ["--algorithm", alg, *approx_seed])

    # Radius YES gadgets are where the survivor loop runs every round; three
    # of them average out the seed-to-seed spread of that loop's cost.
    for kind, target, size, answers in (
        ("undirected-diameter-23", "diameter", (160, 160, 16), (True, False)),
        ("radius-23", "radius", (160, 160, 16), (True, True, True, False)),
    ):
        for i, answer in enumerate(answers):
            name = f"{kind}-{'yes' if answer else 'no'}-{i}"
            inp.add_gadget(name, gadget(kind, answer, rng, size))
            inp.add_job(f"reduce:{name}", "reduce23", "reduce", name, ("reduce", target),
                        ["--target", target, *approx_seed])
    # The hub graph has no randomness; its fixed reduce seed makes every run
    # take the same hashed path, which at this commit answers 2 (true 3).  A
    # timed job must not fail, so the hub is a probe: checked and reported on
    # every run, but neither timed nor counted.
    inp.add_graph("hub", hub_graph())
    inp.add_job("reduce:hub", "reduce23", "reduce", "hub", ("reduce", "radius"),
                ["--target", "radius", "--seed", str(HUB_REDUCE_SEED)], probe=True)
    return inp


WORKLOAD_INPUTS = {TW_KTREE: tw_ktree, ORACLE_GADGETS: oracle_gadgets, APPROX_REDUCE: approx_reduce}
