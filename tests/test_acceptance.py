"""Acceptance gate: twelve end-to-end checks, one printed PASS/FAIL line each.

Each test prints `PASS <name>` on success; pytest's assertion failure marks
FAIL.  Exhaustive enumerations are sized to what brute-force oracles can
actually sweep in the stated time budgets (see the repository notes for the
enumeration bounds chosen per check)."""

import itertools
import json
import random

import pytest

from conftest import (
    floyd_warshall,
    random_dag,
    random_digraph,
    random_undirected,
    reference_eccentricities,
)
from ecclab.approx import (
    approx_min_diameter,
    approx_min_diameter_dag,
    approx_min_radius_dag,
    approx_source_radius,
    approximate_center,
    finite_min_eccentricities,
)
from ecclab.cli import main as cli_main
from ecclab.gadgets import (
    GadgetError,
    build_dg,
    gadget_all_eccentricities,
    gadget_max_radius,
    gadget_median,
    gadget_min_diameter_dag,
    gadget_min_radius_dag,
    gadget_radius_23,
    gadget_roundtrip_radius,
    gadget_source_radius,
    gadget_undirected_diameter_23,
    heap_descendant,
)
from ecclab.graph import INF, Graph, read_graph, topological_order, write_graph
from ecclab.oracle import all_pairs, exact_eccentricities, exact_median
from ecclab.rangemax import RangeMaxIndex, ThreeLayerInstance, three_layer_brute, three_layer_farthest
from ecclab.reduce23 import DIAMETER, RADIUS, reduce_decision23_to_set_system
from ecclab.seeds import substream
from ecclab.setsystem import (
    HSE,
    OV,
    SetSystemInstance,
    random_instance,
    read_set_system,
    write_set_system,
)
from ecclab.treewidth import generate_partial_ktree, read_td, tw_eccentricities, write_td

DIRECTED_VARIANTS = ("source", "max", "min", "roundtrip")


def _report(name):
    print(f"PASS {name}")


def test_01_oracle_matches_floyd_warshall():
    rng = substream(1, "acc1")
    for i in range(500):
        n = rng.randint(2, 60)
        g = random_digraph(rng, n, rng.randint(0, 3 * n), max_weight=9)
        variant = DIRECTED_VARIANTS[i % 4]
        assert exact_eccentricities(g, variant).ecc == reference_eccentricities(g, variant)
        if i % 10 == 0:
            u = random_undirected(rng, n, rng.randint(0, 3 * n), max_weight=9)
            assert exact_eccentricities(u, "undirected").ecc == reference_eccentricities(u, "undirected")
    _report("oracle-matches-floyd-warshall (500 digraphs, all variants)")


def test_02_source_radius_two_approx():
    rng = substream(2, "acc2")
    total = within = lower = 0
    for i in range(300):
        g = random_digraph(rng, 150, 600)
        radius = exact_eccentricities(g, "source").radius
        for s in range(5):
            est = approx_source_radius(g, substream(s, f"acc2:{i}")).estimate
            total += 1
            lower += est >= radius
            within += radius <= est <= 2 * radius
    assert lower == total, f"lower bound violated: {lower}/{total}"
    assert within / total >= 0.99, f"2-approx rate {within / total}"
    _report(f"source-radius-2-approx ({within}/{total} within [R,2R], lower bound 100%)")


def _increasing_dags(n):
    arcs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for bits in range(1 << len(arcs)):
        yield Graph(n, [arcs[i] for i in range(len(arcs)) if bits >> i & 1])


def test_03_min_radius_dag_three_approx():
    rng = substream(3, "acc3")
    for _ in range(200):
        g = random_dag(rng, 120, rng.randint(120, 480))
        rep = exact_eccentricities(g, "min")
        res = approx_min_radius_dag(g)
        if rep.radius == INF:
            assert res.estimate == INF
        else:
            assert res.estimate <= rep.radius
            assert rep.ecc[res.witness] <= 3 * rep.radius
    # approximate_center contract, exhaustive on topologically-labeled DAGs.
    for n in range(1, 6):
        for g in _increasing_dags(n):
            ecc = reference_eccentricities(g, "min")
            radius = min(ecc) if ecc else 0
            for r in range(0, n + 1):
                got = approximate_center(g, r)
                if got is None:
                    assert radius > r
                else:
                    assert ecc[got] <= 3 * r
    _report("min-radius-dag-3-approx (200 random DAGs; center contract exhaustive n<=5)")


def test_04_min_diameter_dag_two_approx():
    rng = substream(4, "acc4")
    for _ in range(200):
        g = random_dag(rng, rng.randint(2, 60), rng.randint(0, 150))
        diam = exact_eccentricities(g, "min").diameter
        est = approx_min_diameter_dag(g).estimate
        if diam == INF:
            assert est == INF
        else:
            assert est <= diam <= 2 * est or diam == est == 0
    _report("min-diameter-dag-2-approx (200 random DAGs, deterministic bounds)")


def test_05_min_diameter_general():
    eps = 0.5
    ok = total = 0
    for seed in range(100):
        rng = substream(seed, "acc5")
        g = random_digraph(rng, 100, 300)
        diam = exact_eccentricities(g, "min").diameter
        est = approx_min_diameter(g, substream(seed, "acc5:rng"), eps).estimate
        total += 1
        factor = max(3, 100 ** eps)
        if est <= diam and (diam <= factor * est or diam == est):
            ok += 1
    assert ok / total >= 0.99, f"rate {ok / total}"
    _report(f"min-diameter-general-approx ({ok}/{total} within the n^0.5 factor)")


def test_06_finite_min_eccentricity():
    # Exhaustive on all digraphs with <= 4 vertices, sampled at n = 5,
    # then 500 random digraphs with n = 100.
    for n in range(1, 5):
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for bits in range(1 << len(arcs)):
            g = Graph(n, [arcs[i] for i in range(len(arcs)) if bits >> i & 1])
            want = [e != INF for e in reference_eccentricities(g, "min")]
            assert finite_min_eccentricities(g) == want
    rng = substream(6, "acc6")
    arcs5 = [(u, v) for u in range(5) for v in range(5) if u != v]
    for _ in range(3000):
        bits = rng.randrange(1 << len(arcs5))
        g = Graph(5, [arcs5[i] for i in range(len(arcs5)) if bits >> i & 1])
        want = [e != INF for e in reference_eccentricities(g, "min")]
        assert finite_min_eccentricities(g) == want
    for _ in range(500):
        g = random_digraph(rng, 100, rng.randint(50, 400))
        rep = exact_eccentricities(g, "min")
        assert finite_min_eccentricities(g) == [e != INF for e in rep.ecc]
    _report("finite-min-eccentricity (exhaustive n<=4, sampled n=5, 500 random n=100)")


def test_07_treewidth_exactness():
    for k in (2, 3, 4):
        rng = substream(k, "acc7")
        for i in range(100):
            n = rng.randint(k + 2, 72)
            directed = i % 2 == 1
            g, td = generate_partial_ktree(n, k, 0.75, rng, directed=directed,
                                           max_weight=3 if i % 4 == 3 else 1)
            variants = DIRECTED_VARIANTS if directed else ("undirected",)
            for variant in variants:
                assert tw_eccentricities(g, td, variant).ecc == \
                    exact_eccentricities(g, variant).ecc, (k, i, variant)
    _report("treewidth-exactness (100 partial k-trees per k in {2,3,4}, all variants)")


def _gadget_expected_holds(out):
    if out.quantity == "median":
        _, value = exact_median(out.graph)
    else:
        report = exact_eccentricities(out.graph, out.variant)
        if out.quantity == "eccentricities":
            got = [report.ecc[v] for v in out.witness_map["a"]]
            return got == out.extras["expected_a_ecc"] and \
                report.ecc[out.extras["hub"]] == out.extras["hub_ecc"]
        value = report.radius if out.quantity == "radius" else report.diameter
    rel, target = out.expected()
    return value == target if rel == "eq" else value >= target


def test_08_gadget_promises():
    builders = [
        ("roundtrip-radius", HSE, lambda inst, rng: gadget_roundtrip_radius(inst), (4, 8)),
        ("radius-23", HSE, lambda inst, rng: gadget_radius_23(inst), (2, 3)),
        ("source-radius", HSE, lambda inst, rng: gadget_source_radius(inst, rng.choice((2, 3, 4))), None),
        ("max-radius", HSE, lambda inst, rng: gadget_max_radius(inst, rng.choice((2, 3, 4))), None),
        ("min-radius-dag", HSE, lambda inst, rng: gadget_min_radius_dag(inst, rng.choice((2, 3, 4))), None),
        ("median", HSE, lambda inst, rng: gadget_median(inst), None),
        ("min-diameter-dag", OV, lambda inst, rng: gadget_min_diameter_dag(inst), (2, 3)),
        ("all-eccentricities", OV, lambda inst, rng: gadget_all_eccentricities(inst), None),
    ]
    # Exhaustive sweep over tiny instances (up to 2 sets per side, d <= 2),
    # then 50 random larger instances per gadget.
    violations = 0
    for name, mode, build, values in builders:
        rng = substream(8, f"acc8:{name}")
        for d in range(0, 3):
            for na in range(0, 3):
                for A in itertools.combinations(range(1 << d), na):
                    for nb in range(0, 3):
                        for B in itertools.combinations(range(1 << d), nb):
                            inst = SetSystemInstance(d, list(A), list(B), mode)
                            try:
                                out = build(inst, rng)
                            except GadgetError:
                                continue
                            if values is not None:
                                assert (out.yes_value, out.no_bound) == values
                            violations += not _gadget_expected_holds(out)
        checked = 0
        while checked < 50:
            inst = random_instance(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 5), mode, rng)
            try:
                out = build(inst, rng)
            except GadgetError:
                continue
            violations += not _gadget_expected_holds(out)
            checked += 1
    assert violations == 0
    _report("gadget-promises (exhaustive tiny sweep + 50 random per gadget, 0 violations)")


def test_09_dg_structure():
    for size in (2, 4, 8, 16, 32, 64):
        for t in (1, 2, 3):
            g, info = build_dg(size, t)
            assert topological_order(g) is not None
            mat = all_pairs(g, cap=None)
            hi = info["heap_index"]
            nodes = info["all"]
            for x in nodes:
                for y in nodes:
                    if x == y:
                        continue
                    dmin = min(mat[x][y], mat[y][x])
                    related = heap_descendant(hi[x], hi[y]) or heap_descendant(hi[y], hi[x])
                    if related:
                        assert dmin <= t + 1
                    else:
                        assert dmin == t + 1
    _report("dg-structure (sizes 2..64, t in {1,2,3}, exact t+1 pair distances)")


def test_10_hash_reduction():
    rng = substream(10, "acc10")
    diam_labels = {2: [], 3: []}
    while len(diam_labels[2]) < 100 or len(diam_labels[3]) < 100:
        inst = random_instance(rng.randint(2, 6), rng.randint(2, 6), rng.randint(2, 5), OV, rng)
        g = gadget_undirected_diameter_23(inst).graph
        report = exact_eccentricities(g, "undirected")
        if report.diameter in (2, 3) and len(diam_labels[report.diameter]) < 100:
            diam_labels[report.diameter].append((g, report))
    for g, _ in diam_labels[2]:
        assert reduce_decision23_to_set_system(g, DIAMETER, substream(0, "acc10:d2")).value == 2
    hits = sum(
        reduce_decision23_to_set_system(g, DIAMETER, substream(i, "acc10:d3")).value == 3
        for i, (g, _) in enumerate(diam_labels[3])
    )
    assert hits / 100 >= 0.99
    rad_hits = rad_total = 0
    for pool in diam_labels.values():
        for i, (g, report) in enumerate(pool):
            if report.radius not in (2, 3):
                continue
            value = reduce_decision23_to_set_system(g, RADIUS, substream(i, "acc10:r")).value
            rad_total += 1
            if report.radius == 2:
                assert value == 2
                rad_hits += 1
            else:
                rad_hits += value == 3
    assert rad_total >= 50 and rad_hits / rad_total >= 0.99
    _report(f"hash-reduction (never 3 on 2; 3-detection {hits}/100; radius {rad_hits}/{rad_total})")


def test_11_range_max_structures():
    rng = substream(11, "acc11")
    for _ in range(500):
        d = rng.randint(1, 4)
        points = [
            (tuple(rng.randint(0, 9) for _ in range(d)), rng.randint(-5, 20), i)
            for i in range(rng.randint(0, 25))
        ]
        box = []
        for _ in range(d):
            lo = rng.randint(0, 9)
            box.append((lo, lo + rng.randint(0, 6)))
        idx = RangeMaxIndex(d, points)
        best = None
        for coords, value, payload in points:
            if all(lo <= c <= hi for c, (lo, hi) in zip(coords, box)):
                cand = (value, payload)
                if best is None or cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                    best = cand
        assert idx.query(box) == best
    # Three-layer: exhaustive over entries {0,1,2,INF} for 1x1x1 .. 2x2x2
    # grids, then random grids up to 3x3x3 over the same entry set.
    vals = (0, 1, 2, INF)
    for na, nb, nc in itertools.product((1, 2), repeat=3):
        ab_rows = list(itertools.product(vals, repeat=nb))
        bc_rows = list(itertools.product(vals, repeat=nc))
        for d_ab in itertools.product(ab_rows, repeat=na):
            for d_bc in itertools.product(bc_rows, repeat=nb):
                inst = ThreeLayerInstance([list(r) for r in d_ab], [list(r) for r in d_bc])
                want = three_layer_brute(inst)
                got = three_layer_farthest(inst)
                assert got == want
    for _ in range(2000):
        na, nb, nc = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        inst = ThreeLayerInstance(
            [[rng.choice(vals) for _ in range(nb)] for _ in range(na)],
            [[rng.choice(vals) for _ in range(nc)] for _ in range(nb)],
        )
        want = three_layer_brute(inst)
        got = three_layer_farthest(inst)
        assert got == want
    _report("range-max-structures (500 box workloads; three-layer exhaustive <=2 + random <=3)")


def test_12_io_round_trip_and_determinism(tmp_path, capsys):
    rng = substream(12, "acc12")
    # Writers round-trip byte-identically.
    for _ in range(50):
        g = random_digraph(rng, rng.randint(2, 30), rng.randint(0, 60), max_weight=4)
        assert write_graph(read_graph(write_graph(g))) == write_graph(g)
    for _ in range(50):
        inst = random_instance(rng.randint(0, 5), rng.randint(0, 5), rng.randint(1, 6),
                               rng.choice((OV, HSE)), rng)
        assert write_set_system(read_set_system(write_set_system(inst))) == write_set_system(inst)
    for _ in range(10):
        g, td = generate_partial_ktree(30, 3, 0.8, rng)
        assert write_td(read_td(write_td(td, g.n), g.n), g.n) == write_td(td, g.n)
    # Identical run spec (seed included) produces identical files.
    for tag in ("a", "b"):
        prefix = str(tmp_path / tag)
        code = cli_main(["gen", "--kind", "min-radius-dag", "--na", "6", "--nb", "6",
                         "--d", "4", "--seed", "99", "--output", prefix])
        assert code == 0
    capsys.readouterr()
    for ext in (".graph", ".json", ".ss"):
        assert (tmp_path / ("a" + ext)).read_text() == (tmp_path / ("b" + ext)).read_text()
    _report("io-round-trip-and-determinism (graph/set-system/td writers; seeded CLI runs)")
