import collections
import hashlib
import math
import random

import pytest

from conftest import (
    all_small_digraphs,
    mixed_graph,
    random_dag,
    random_digraph,
    reference_eccentricities,
    reference_source_radius,
)
from ecclab import approx, oracle
from ecclab.approx import (
    ApproxResult,
    approx_min_diameter,
    approx_min_diameter_dag,
    approx_min_radius_dag,
    approx_source_radius,
    approximate_center,
    finite_min_eccentricities,
)
from ecclab.graph import (
    BACKWARD,
    FORWARD,
    INF,
    Graph,
    condense_scc,
    relabel_topological,
    sample_vertex_set,
    shortest_paths,
    truncated_shortest_paths,
)
from ecclab.oracle import SWEEP_MAX_WEIGHT, exact_eccentricities, sweep_source_ecc
from ecclab.seeds import substream
from ecclab.treewidth import generate_partial_ktree


def test_source_radius_two_approx_random():
    for seed in range(30):
        rng = random.Random(seed)
        g = random_digraph(rng, 40, 160)
        rep = exact_eccentricities(g, "source")
        res = approx_source_radius(g, substream(seed, "t"))
        assert res.estimate >= rep.radius  # deterministic direction
        assert res.estimate == rep.ecc[res.witness]


def test_source_radius_witness_when_no_vertex_reaches_all():
    # Every eccentricity is INF; the witness is the first sampled vertex.
    res = approx_source_radius(Graph(4, [(0, 1), (2, 3)]), random.Random(0))
    assert (res.estimate, res.witness) == (INF, 0)


def test_source_radius_exact_on_star():
    g = Graph(6, [(0, i) for i in range(1, 6)])
    res = approx_source_radius(g, random.Random(0))
    assert res.estimate == 1 and res.witness == 0


# -- the sampled searches against one shortest-path run per sampled vertex ----


def _loop_source_radius(g, rng, c=2):
    n = g.n
    size1 = min(n, max(1, math.ceil(c * math.sqrt(n) * math.log(n)))) if n > 1 else 1
    s1 = sample_vertex_set(n, size1, rng)
    dists = {s: shortest_paths(g, s, FORWARD) for s in sorted(s1)}
    w, w_score = 0, -1
    for v in range(n):
        score = min(dists[s][v] for s in dists)
        if score > w_score:
            w, w_score = v, score
    s2 = [v for v, _ in truncated_shortest_paths(g, w, math.ceil(math.sqrt(n)), BACKWARD)]
    best_v, best_e = None, INF
    for s in sorted(set(dists) | set(s2)):
        dist = dists.get(s) or shortest_paths(g, s, FORWARD)
        e = max(dist)
        if best_v is None or e < best_e:
            best_v, best_e = s, e
    return best_e, best_v


def _loop_min_diameter(g, rng, epsilon, c=2):
    n = g.n
    size = min(n, max(1, math.ceil(c * n ** (1 - epsilon) * math.log(max(n, 2)))))
    est = 1 if g.m else 0
    witness = None
    for s in sorted(sample_vertex_set(n, size, rng)):
        fwd = shortest_paths(g, s, FORWARD)
        bwd = shortest_paths(g, s, BACKWARD)
        for v in range(n):
            d = min(fwd[v], bwd[v])
            if d > est:
                est, witness = d, v
    return est, witness


def _check_against_loops(g, seed):
    res = approx_source_radius(g, random.Random(seed))
    assert (res.estimate, res.witness) == _loop_source_radius(g, random.Random(seed)), g.edges
    if g.unit_weights:
        for eps in (0.3, 1):
            res = approx_min_diameter(g, random.Random(seed), eps)
            assert (res.estimate, res.witness) == \
                _loop_min_diameter(g, random.Random(seed), eps), g.edges


def test_sampled_searches_match_one_run_per_sample():
    # Zero-weight arcs, disconnected and undirected graphs, n = 1 and W up to
    # 16; the graphs with max_weight 1 are unweighted for min-diameter.
    rng = random.Random(5)
    for seed, max_weight in enumerate((1, 1, 2, 16) * 50):
        _check_against_loops(mixed_graph(rng, 40, max_weight), seed)
    _check_against_loops(Graph(1), 0)


def test_sampled_searches_fall_back_past_the_sweep():
    # A weight above SWEEP_MAX_WEIGHT, and a directed path long enough that
    # the sweep passes its default budget.
    heavy = Graph(30, [(i, (i + 1) % 30, 1 + i % (SWEEP_MAX_WEIGHT + 1)) for i in range(30)])
    assert sweep_source_ecc(heavy, "source", [0]) is None
    path = Graph(200, [(i, i + 1) for i in range(199)])
    assert sweep_source_ecc(path, "source", [0, 50, 150]) is None
    assert sweep_source_ecc(path, "min", [0, 50, 150]) is None
    for seed in range(3):
        _check_against_loops(heavy, seed)
        _check_against_loops(path, seed)


def _chorded_cycle(rng, n, top):
    """The directed cycle 0 -> 1 -> ... -> 0 plus n // 50 random chords, weights 1..top."""
    edges = [(u, (u + 1) % n, rng.randint(1, top)) for u in range(n)]
    edges += [(rng.randrange(n), rng.randrange(n), rng.randint(1, top)) for _ in range(n // 50)]
    return Graph(n, edges)


def test_source_radius_matches_the_two_call_reference(monkeypatch):
    # One sampled_ecc call over S1 then S2 gives the ApproxResult of one call
    # per sample, whichever samples the sweep answers: both (a dense random
    # digraph); S1 but not S2 (an 800-vertex 2-tree with both arcs, weights
    # 1..3, as in the benchmark); neither (a directed cycle with chords, and
    # weights above SWEEP_MAX_WEIGHT).
    answered = []
    sweep = oracle.sweep_source_ecc

    def recorded(g, variant, sources, *rest):
        ecc = sweep(g, variant, sources, *rest)
        answered.append(ecc is not None)
        return ecc

    calls = []
    sampled = approx.sampled_ecc

    def counted(*args):
        calls.append(args)
        return sampled(*args)

    monkeypatch.setattr(oracle, "sweep_source_ecc", recorded)
    monkeypatch.setattr(approx, "sampled_ecc", counted)
    rng = random.Random(23)
    ktree, _ = generate_partial_ktree(800, 2, 1.0, rng)
    both_arcs = Graph(800, [(x, y, rng.randint(1, 3)) for u, v, _ in ktree.edges
                            for x, y in ((u, v), (v, u))])
    graphs = [(random_digraph(rng, 1000, 30000), (True, True)),
              (both_arcs, (True, False)),
              (_chorded_cycle(rng, 400, 3), (False, False)),
              (random_digraph(rng, 300, 1500, SWEEP_MAX_WEIGHT + 4), (False, False))]
    for g, regime in graphs:
        for seed in range(2):
            answered.clear()
            want = reference_source_radius(g, random.Random(seed))
            assert tuple(answered) == regime, (g.n, g.m, seed)
            calls.clear()
            assert approx_source_radius(g, random.Random(seed)) == want
            assert len(calls) == 1


def test_min_diameter_dag_two_approx():
    for seed in range(40):
        rng = random.Random(seed)
        g = random_dag(rng, 30, 70)
        rep = exact_eccentricities(g, "min")
        res = approx_min_diameter_dag(g)
        assert res.estimate <= rep.diameter
        assert rep.diameter <= 2 * max(res.estimate, 1) or rep.diameter == res.estimate


def test_min_diameter_dag_rejects_cycles():
    with pytest.raises(ValueError):
        approx_min_diameter_dag(Graph(2, [(0, 1), (1, 0)]))


def test_min_diameter_general_bounds():
    eps = 0.5
    for seed in range(20):
        rng = random.Random(seed)
        g = random_digraph(rng, 30, 80)
        rep = exact_eccentricities(g, "min")
        res = approx_min_diameter(g, substream(seed, "md"), eps)
        assert res.estimate <= rep.diameter
        factor = max(3, g.n ** eps)
        assert rep.diameter <= factor * max(res.estimate, 1) or rep.diameter == res.estimate


def test_finite_min_eccentricities_small_exhaustive():
    for g in all_small_digraphs(4):
        ecc = reference_eccentricities(g, "min")
        want = [e != INF for e in ecc]
        assert finite_min_eccentricities(g) == want, (g.n, g.edges)


def test_finite_min_eccentricities_random():
    for seed in range(40):
        rng = random.Random(seed)
        g = random_digraph(rng, 25, 50)
        ecc = reference_eccentricities(g, "min")
        assert finite_min_eccentricities(g) == [e != INF for e in ecc]


def _min_ecc(g):
    return reference_eccentricities(g, "min")


def test_approximate_center_contract_exhaustive_tiny():
    # If a vertex with min-eccentricity <= r exists, the search returns some
    # vertex with min-eccentricity <= 3r; None certifies min-radius > r.
    for g in all_small_digraphs(4):
        h, order = (g, list(range(g.n)))
        try:
            h, order = relabel_topological(g)
        except ValueError:
            continue
        ecc = _min_ecc(h)
        radius = min(ecc) if ecc else 0
        for r in range(0, 5):
            got = approximate_center(h, r)
            if got is None:
                assert radius > r, (g.edges, r)
            else:
                assert ecc[got] <= 3 * r or ecc[got] == 0


def test_min_radius_dag_three_approx():
    for seed in range(40):
        rng = random.Random(seed)
        g = random_dag(rng, 25, 60)
        rep = exact_eccentricities(g, "min")
        res = approx_min_radius_dag(g)
        if rep.radius == INF:
            assert res.estimate == INF
            continue
        assert res.estimate <= rep.radius
        ecc_w = rep.ecc[res.witness]
        assert ecc_w <= 3 * max(rep.radius, 1) or ecc_w == rep.radius


def _shuffled_dag(rng, n, m, max_weight):
    """A random DAG whose vertex ids are not already a topological order."""
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v], w) for u, v, w in random_dag(rng, n, m, max_weight).edges])


# sha256 over approx_min_radius_dag, approximate_center (r = 0..8) and
# finite_min_eccentricities on seeded random DAGs, and over condense_scc on
# seeded random graphs with zero-weight arcs, so a rewrite of these routines
# must leave every output unchanged.
DAG_DIGEST = "37f10bde3e7ddf306a9ba676cb83a377773db3bc56c79a949888ff6d827dcbab"


def test_dag_outputs_pinned():
    digest = hashlib.sha256()
    rng = random.Random(15)
    for _ in range(150):
        n = rng.randint(1, 40)
        g = _shuffled_dag(rng, n, rng.randint(0, n * n // 2), rng.choice((1, 3)))
        res = approx_min_radius_dag(g)
        h, _ = relabel_topological(g)
        centers = [approximate_center(h, r) for r in range(9)]
        digest.update(repr((res.estimate, res.witness, centers, finite_min_eccentricities(g))).encode())
    for _ in range(400):
        g = mixed_graph(rng, 30, 3)
        comp, dag = condense_scc(g)
        digest.update(repr((comp, dag.n, dag.edges)).encode())
    assert digest.hexdigest() == DAG_DIGEST


def test_min_radius_dag_probes_each_threshold_once(monkeypatch):
    probes = []

    def counting(h, r, *rest):
        probes.append(r)
        return approximate_center(h, r, *rest)

    monkeypatch.setattr(approx, "approximate_center", counting)
    rng = random.Random(7)
    for _ in range(40):
        probes.clear()
        n = rng.randint(2, 30)
        approx_min_radius_dag(_shuffled_dag(rng, n, rng.randint(0, n * n // 2), rng.choice((1, 3))))
        assert len(probes) == len(set(probes)), probes


def test_min_radius_dag_scans_each_anchor_once(monkeypatch):
    # The anchors' scans do not depend on the threshold, so over all the
    # probes of one call each anchor is scanned at most once each way.  (The
    # gap scans between excluded intervals are of other vertices.)
    scans = collections.Counter()
    probes = []
    scan, center = approx._dag_interval_dist, approx.approximate_center

    def counted_scan(adj, order, pos_lo, pos_hi, root):
        scans[root, id(adj)] += 1
        return scan(adj, order, pos_lo, pos_hi, root)

    def counted_center(h, r, *rest):
        probes.append(r)
        return center(h, r, *rest)

    monkeypatch.setattr(approx, "_dag_interval_dist", counted_scan)
    monkeypatch.setattr(approx, "approximate_center", counted_center)
    rng = random.Random(9)
    repeated = 0
    for _ in range(40):
        scans.clear()
        probes.clear()
        n = rng.randint(2, 40)
        approx_min_radius_dag(_shuffled_dag(rng, n, rng.randint(0, n * n // 2), rng.choice((1, 3))))
        cnt = max(2, math.ceil(math.sqrt(n)))
        anchors = {(i * (n - 1)) // (cnt - 1) for i in range(cnt)}
        assert max(k for (root, _), k in scans.items() if root in anchors) == 1
        repeated += len(probes) >= 2
    assert repeated >= 10


def test_approximate_center_with_shared_scans_matches_alone():
    rng = random.Random(10)
    for _ in range(80):
        n = rng.randint(1, 40)
        h, _ = relabel_topological(_shuffled_dag(rng, n, rng.randint(0, n * n // 2),
                                                 rng.choice((1, 3))))
        shared = {}
        for r in rng.sample(range(9), 9):
            assert approximate_center(h, r, shared) == approximate_center(h, r), (h.edges, r)


def test_min_radius_dag_witness_is_the_center_at_the_estimate():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(1, 30)
        g = _shuffled_dag(rng, n, rng.randint(0, n * n // 2), rng.choice((1, 3)))
        res = approx_min_radius_dag(g)
        if res.estimate == INF:
            assert res.witness is None
            continue
        h, back = relabel_topological(g)
        assert res.witness == back[approximate_center(h, res.estimate)]
        if res.estimate > 0:
            assert approximate_center(h, res.estimate - 1) is None


@pytest.mark.parametrize("call", [
    lambda g: approx_source_radius(g, random.Random(1)),
    lambda g: approx_min_diameter(g, random.Random(1), 0.5),
    lambda g: approximate_center(g, 1),
], ids=["source-radius", "min-diameter", "center"])
def test_empty_graph_is_refused(call):
    with pytest.raises(ValueError, match="^empty graph$"):
        call(Graph(0))


def test_min_diameter_dag_of_one_vertex_is_zero():
    assert approx_min_diameter_dag(Graph(1, [])) == ApproxResult(0, None, (1, 2), whp=False)


SMALL = {
    "one": Graph(1, []),
    "arc": Graph(2, [(0, 1)]),
    "edge": Graph(2, [(0, 1)], undirected=True),
    "path": Graph(3, [(0, 1), (1, 2)]),
    "cycle": Graph(3, [(0, 1), (1, 2), (2, 0)]),
    "weighted": Graph(3, [(0, 1, 5), (1, 2, 2), (2, 0, 7), (1, 0, 1)]),
}


# (estimate, witness) of approx_source_radius, then of approx_min_diameter,
# whose factor is 3 at these sizes for both epsilons.
@pytest.mark.parametrize("name, source, diameter", [
    ("one", (0, 0), (0, None)),
    ("arc", (1, 0), (1, None)),
    ("edge", (1, 0), (1, None)),
    ("path", (2, 0), (2, 2)),
    ("cycle", (2, 0), (1, None)),
    ("weighted", (2, 1), None),
])
@pytest.mark.parametrize("seed", [1, 2])
def test_sampled_approximations_on_tiny_graphs_are_pinned(name, source, diameter, seed):
    g = SMALL[name]
    assert approx_source_radius(g, random.Random(seed)) == ApproxResult(*source, (1, 2), whp=True)
    if diameter is None:  # approx_min_diameter takes unit weights only
        return
    for epsilon in (0.5, 1):
        res = approx_min_diameter(g, random.Random(seed), epsilon)
        assert res == ApproxResult(*diameter, (1, 3), whp=True)
