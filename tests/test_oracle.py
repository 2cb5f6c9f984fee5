import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    floyd_warshall,
    mixed_graph,
    random_digraph,
    random_undirected,
    reference_eccentricities,
    reference_levels,
    reference_report,
    variant_pair,
)
from ecclab import oracle
from ecclab.graph import INF, Graph
from ecclab.oracle import (
    ROUNDTRIP_MAX_LEVELS,
    SWEEP_MAX_WEIGHT,
    VARIANTS,
    CapacityError,
    VariantError,
    exact_eccentricities,
    exact_median,
    pair_row,
    sampled_ecc,
    sweep_ecc,
    sweep_eccentricities,
    sweep_median,
    sweep_radius,
    sweep_source_ecc,
)


def test_pair_row_definitions():
    out_row, in_row = [0, 3, 7, INF], [0, 7, 3, 5]
    assert list(pair_row("source", out_row, in_row)) == [0, 3, 7, INF]
    assert list(pair_row("undirected", out_row, out_row)) == [0, 3, 7, INF]
    assert list(pair_row("max", out_row, in_row)) == [0, 7, 7, INF]
    assert list(pair_row("min", out_row, in_row)) == [0, 3, 3, 5]
    assert list(pair_row("roundtrip", out_row, in_row)) == [0, 10, 10, INF]


def test_directed_path_all_variants():
    g = Graph(3, [(0, 1), (1, 2)])
    assert exact_eccentricities(g, "source").ecc == [2, INF, INF]
    assert exact_eccentricities(g, "max").ecc == [INF, INF, INF]
    assert exact_eccentricities(g, "min").ecc == [2, 1, 2]
    assert exact_eccentricities(g, "roundtrip").ecc == [INF, INF, INF]


def test_undirected_variant_requires_undirected_graph():
    g = Graph(2, [(0, 1)])
    with pytest.raises(VariantError):
        exact_eccentricities(g, "undirected")
    with pytest.raises(VariantError):
        exact_eccentricities(Graph(2, [(0, 1)], undirected=True), "nope")


def test_isolated_vertex_eccentricity():
    g = Graph(1, [])
    rep = exact_eccentricities(g, "source")
    assert rep.ecc == [0] and rep.radius == 0 and rep.diameter == 0


def test_capacity_cap():
    g = Graph(10, [], undirected=True)
    with pytest.raises(CapacityError):
        exact_eccentricities(g, "undirected", cap=5)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 12), st.integers(0, 30), st.integers(1, 5))
def test_matches_reference_all_variants(seed, n, m, w):
    rng = random.Random(seed)
    g = random_digraph(rng, n, m, max_weight=w)
    for variant in VARIANTS:
        if variant == "undirected":
            continue
        rep = exact_eccentricities(g, variant)
        assert rep.ecc == reference_eccentricities(g, variant)
        assert rep.radius == min(rep.ecc)
        assert rep.diameter == max(rep.ecc)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 12), st.integers(0, 25))
def test_undirected_matches_reference(seed, n, m):
    rng = random.Random(seed)
    g = random_undirected(rng, n, m)
    rep = exact_eccentricities(g, "undirected")
    assert rep.ecc == reference_eccentricities(g, "undirected")


def test_diameter_witness_attains_diameter():
    rng = random.Random(11)
    g = random_digraph(rng, 8, 20)
    rep = exact_eccentricities(g, "source")
    dist = floyd_warshall(g)
    if rep.witness is not None:
        u, v = rep.witness
        assert dist[u][v] == rep.diameter


def test_exact_median_star():
    # Center of an undirected star minimizes the distance sum.
    g = Graph(5, [(0, i) for i in range(1, 5)], undirected=True)
    vertex, total = exact_median(g)
    assert vertex == 0 and total == 4


def test_exact_median_unreachable_is_inf():
    g = Graph(3, [(0, 1)])
    vertex, total = exact_median(g)
    assert total == INF


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 10), st.integers(0, 25))
def test_median_matches_reference(seed, n, m):
    rng = random.Random(seed)
    g = random_digraph(rng, n, m)
    dist = floyd_warshall(g)
    sums = [sum(dist[u][v] for v in range(g.n) if v != u) for u in range(g.n)]
    vertex, total = exact_median(g)
    assert total == min(sums)
    assert vertex == sums.index(min(sums))


def _variants(g):
    return [v for v in VARIANTS if g.undirected or v != "undirected"]


# Zero-weight arcs, n = 1 and n = 2, and pairs at distance INF.
REPORT_CASES = [
    Graph(1, []),
    Graph(1, [], undirected=True),
    Graph(2, []),
    Graph(2, [], undirected=True),
    Graph(2, [(0, 1, 0)]),
    Graph(2, [(0, 1, 0), (1, 0, 0)]),
    Graph(2, [(0, 1, 0)], undirected=True),
    Graph(2, [(1, 0, 2)]),
    Graph(3, [(0, 1, 0), (1, 2, 0), (2, 0, 0)]),
    Graph(3, [(0, 1, 0), (1, 2, 0)], undirected=True),
    Graph(3, [(1, 0, 1), (2, 1, 0)]),
    Graph(4, [(0, 1, 0), (2, 3, 1)], undirected=True),
    Graph(4, [(1, 2, 2), (2, 1, 0), (3, 0, 1), (0, 3, 0)]),
    Graph(5, [(0, 1, 1), (1, 2, 0), (2, 3, 3), (3, 4, 0), (4, 0, 2)]),
]


@pytest.mark.parametrize("g", REPORT_CASES)
def test_report_matches_reference_report_cases(g):
    for variant in _variants(g):
        assert exact_eccentricities(g, variant).to_json() == reference_report(g, variant).to_json()


def _json_dumps_of(report):
    """What to_json once returned: json.dumps of the payload, indented."""
    def enc(x):
        return "inf" if x == INF else x

    payload = {
        "variant": report.variant,
        "radius": enc(report.radius),
        "diameter": enc(report.diameter),
        "center": report.center,
        "witness": list(report.witness) if report.witness is not None else None,
        "ecc": [enc(e) for e in report.ecc],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("g", [
    # n = 1: the witness is None.
    Graph(1, []),
    Graph(1, [], undirected=True),
    # Two components: the radius, the diameter and every entry are INF.
    Graph(5, [(0, 1), (2, 3), (3, 4)], undirected=True),
    # Only vertex 0 reaches every vertex: INF entries, finite radius.
    Graph(3, [(0, 1, 7), (1, 2, 5)]),
    # Multi-digit values, center and witness: a weighted path of 12 vertices.
    Graph(12, [(i, i + 1, 1000 + i) for i in range(11)], undirected=True),
    Graph(12, [(i, (i + 1) % 12, 10 ** 12 + i) for i in range(12)]),
], ids=["one-vertex", "one-vertex-undirected", "disconnected", "inf-entries",
        "multi-digit-path", "multi-digit-cycle"])
def test_to_json_is_byte_equal_to_json_dumps(g):
    for variant in _variants(g):
        report = exact_eccentricities(g, variant)
        assert report.to_json() == _json_dumps_of(report)


def test_witness_edge_cases():
    assert exact_eccentricities(Graph(1, []), "source").witness is None
    # Diameter 0 from zero-weight arcs: the witness still skips v == u.
    g = Graph(3, [(0, 1, 0), (1, 2, 0), (2, 0, 0)])
    for variant in _variants(g):
        rep = exact_eccentricities(g, variant)
        assert rep.diameter == 0 and rep.witness == (0, 1)
    # The diameter is first attained from u = 1, at v = 0 < u.
    rep = exact_eccentricities(Graph(3, [(0, 1), (1, 2), (2, 0), (0, 2)]), "source")
    assert rep.diameter == 2 and rep.witness == (1, 0)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 8))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 3)),
        max_size=3 * n))
    return Graph(n, edges, undirected=draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_report_matches_reference_report(g):
    for variant in _variants(g):
        assert exact_eccentricities(g, variant).to_json() == reference_report(g, variant).to_json()
    dist = floyd_warshall(g)
    sums = [sum(row) for row in dist]
    assert exact_median(g) == (sums.index(min(sums)), min(sums))


def test_exact_median_ties_break_to_smallest_id():
    # 0 and 1 are joined by a zero-weight edge, so both sum to 1.
    assert exact_median(Graph(3, [(0, 1, 0), (1, 2, 1)], undirected=True)) == (0, 1)
    # 1 and 2 tie at 1; vertex 0 sums to 2.
    assert exact_median(Graph(3, [(1, 2, 0), (0, 1, 1)], undirected=True)) == (1, 1)
    # Every vertex is at distance 0 from every other.
    assert exact_median(Graph(3, [(0, 1, 0), (1, 2, 0), (2, 0, 0)])) == (0, 0)
    # No vertex reaches all others.
    assert exact_median(Graph(3, [(1, 2, 0)])) == (0, INF)


# -- the level sweep ---------------------------------------------------------


def _median_reference(g):
    sums = [sum(row) for row in floyd_warshall(g)]
    return sums.index(min(sums)), min(sums)


@st.composite
def zero_heavy_graphs(draw):
    """Graphs on 1..8 vertices with weights 0..3, about half of them 0."""
    n = draw(st.integers(1, 8))
    weight = st.one_of(st.just(0), st.integers(0, 3))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight), max_size=3 * n))
    return Graph(n, edges, undirected=draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(zero_heavy_graphs())
def test_sweep_matches_reference_report(g):
    for variant in _variants(g):
        rep = sweep_eccentricities(g, variant, None, budget=INF)
        assert rep.to_json() == reference_report(g, variant).to_json()


@settings(max_examples=300, deadline=None)
@given(zero_heavy_graphs())
def test_sweep_median_matches_reference(g):
    assert sweep_median(g, None, budget=INF) == _median_reference(g)


# A zero-weight cycle 0 -> 1 -> 2 -> 0 with a tail and a zero-weight chain
# 0 -> 1 -> 2 -> 3; vertices that never fill their mask; and a path whose
# distances skip levels: 0 -1- 1 -5- 2 -5- 3 is unchanged from level 1 to
# level 5, so a sweep that stopped at the first unchanged level would call
# every eccentricity but 1's INF.
SWEEP_CASES = [
    Graph(4, [(0, 1, 0), (1, 2, 0), (2, 0, 0), (2, 3, 2)]),
    Graph(4, [(0, 1, 0), (1, 2, 0), (2, 0, 0), (2, 3, 2)], undirected=True),
    Graph(4, [(2, 3, 0), (1, 2, 0), (0, 1, 0), (3, 0, 1)]),
    Graph(5, [(0, 1, 1)], undirected=True),
    Graph(5, [(0, 1, 0), (2, 3, 0), (3, 2, 1)]),
    Graph(4, [(0, 1, 1), (1, 2, 5), (2, 3, 5)], undirected=True),
    Graph(4, [(0, 1, 1), (1, 0, 1), (1, 2, 5), (2, 3, 5), (3, 2, 2)]),
]


@pytest.mark.parametrize("g", SWEEP_CASES)
def test_sweep_fixed_cases(g):
    for variant in _variants(g):
        assert sweep_eccentricities(g, variant, budget=INF).to_json() == \
            reference_report(g, variant).to_json()
    assert sweep_median(g, budget=INF) == _median_reference(g)


def test_sweep_fixed_values():
    def ecc(g, variant):
        return sweep_ecc(g, variant, budget=INF)

    def median(g):
        return sweep_median(g, budget=INF)

    cycle = SWEEP_CASES[0]
    assert ecc(cycle, "source") == [2, 2, 2, INF]
    assert ecc(cycle, "min") == [2, 2, 2, 2]
    assert median(cycle) == (0, 2)
    chain = SWEEP_CASES[2]
    assert ecc(chain, "source") == [0, 1, 1, 1]
    assert median(chain) == (0, 0)
    isolated = SWEEP_CASES[3]
    assert ecc(isolated, "undirected") == [INF] * 5
    assert median(isolated) == (0, INF)
    path = SWEEP_CASES[5]
    assert ecc(path, "undirected") == [11, 10, 6, 11]
    assert sweep_eccentricities(path, "undirected", budget=INF).witness == (0, 3)
    assert median(path) == (1, 16)


@settings(max_examples=300, deadline=None)
@given(zero_heavy_graphs())
def test_sweep_radius_matches_reference(g):
    for variant in _variants(g):
        assert sweep_radius(g, variant, None, budget=INF) == reference_report(g, variant).radius


def test_sweep_radius_fixed_values():
    for g in SWEEP_CASES:
        for variant in _variants(g):
            assert sweep_radius(g, variant, budget=INF) == reference_report(g, variant).radius
    # The radius sweep stops at level 5, the radius, after 5 levels of 10
    # masks to fill; the full sweep needs 70 (see the test below).
    path = Graph(10, [(i, i + 1, 1) for i in range(9)], undirected=True)
    assert sweep_radius(path, "undirected", budget=50) == 5
    assert sweep_ecc(path, "undirected", budget=50) is None
    assert sweep_radius(path, "undirected", budget=49) is None
    # A directed path: only the source at its head reaches every vertex.
    line = Graph(6, [(i, i + 1, 2) for i in range(5)])
    assert sweep_radius(line, "source", budget=INF) == 10
    assert sweep_radius(line, "max", budget=INF) == INF
    assert sweep_radius(line, "min", budget=INF) == 6
    assert sweep_radius(line, "roundtrip", budget=INF) == INF
    heavy = Graph(2, [(0, 1, SWEEP_MAX_WEIGHT + 1), (1, 0, 1)])
    for variant in ("source", "max", "min", "roundtrip"):
        assert sweep_radius(heavy, variant, budget=INF) is None


def test_sweep_falls_back_on_roundtrip_and_heavy_weights():
    # Only the sweep over every vertex answers roundtrip, not the sampled one.
    g = Graph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    assert sweep_ecc(g, "roundtrip", budget=INF) == [3, 3, 3]
    assert sweep_source_ecc(g, "roundtrip", [0], budget=INF) is None
    assert sweep_eccentricities(g, "source", budget=INF) is not None
    at_limit = Graph(2, [(0, 1, SWEEP_MAX_WEIGHT), (1, 0, 1)])
    assert sweep_ecc(at_limit, "max", budget=INF) == [SWEEP_MAX_WEIGHT] * 2
    assert sweep_median(at_limit, budget=INF) == (1, 1)
    heavy = Graph(2, [(0, 1, SWEEP_MAX_WEIGHT + 1), (1, 0, 1)])
    for variant in ("source", "max", "min", "roundtrip"):
        assert sweep_eccentricities(heavy, variant, budget=INF) is None
    assert sweep_median(heavy, budget=INF) is None


def test_sweep_gives_up_past_its_work_budget():
    # On a path of 10 vertices the masks still to fill number 10 at levels 0
    # to 4, then 8, 6, 4, 2: 70 in all, past the default budget 10^2 // 4.
    path = Graph(10, [(i, i + 1, 1) for i in range(9)], undirected=True)
    assert sweep_ecc(path, "undirected") is None
    assert sweep_eccentricities(path, "undirected") is None
    assert sweep_median(path) is None
    assert sweep_ecc(path, "undirected", budget=69) is None
    assert sweep_median(path, budget=69) is None
    assert sweep_eccentricities(path, "undirected", budget=70).to_json() == \
        reference_report(path, "undirected").to_json()
    assert sweep_median(path, budget=70) == _median_reference(path)
    # Masks that never fill count until the sweep settles, W = 2 unchanged
    # levels after the last change at level 3, so at levels 0 to 4.  Under
    # source the masks are columns, entry v the vertices that reach v, and no
    # vertex is reached by all: 12 * 5.
    tail = Graph(12, [(0, i, 1) for i in range(1, 10)] + [(10, 11, 2), (0, 10, 1)])
    assert sweep_ecc(tail, "source", budget=59) is None
    assert sweep_ecc(tail, "source", budget=60) == [3] + [INF] * 11
    # Under min the joined masks are symmetric, so a column is a row: vertex
    # 0's fills at level 3, 12 + 12 + 12 + 11 + 11.
    assert sweep_ecc(tail, "min", budget=57) is None
    assert sweep_ecc(tail, "min", budget=58) == [3] + [INF] * 11
    # 10 + 9 masks on a star, within the default budget; 5 * 10 on a cycle,
    # past it.
    star = Graph(10, [(0, i, 1) for i in range(1, 10)], undirected=True)
    assert sweep_ecc(star, "undirected") == [1] + [2] * 9
    cycle = Graph(10, [(i, (i + 1) % 10, 1) for i in range(10)], undirected=True)
    assert sweep_ecc(cycle, "undirected") is None
    assert sweep_ecc(cycle, "undirected", budget=50) == [5] * 10


def _settled_prefix(levels):
    """The items of a level generator up to and including the first settled one."""
    items = []
    for level, settled in levels:
        items.append((list(level), settled))
        if settled:
            return items


def test_levels_match_the_reduce_map_step():
    # The level count and the settle points decide the sweep's work budget
    # and where it gives up, so they are pinned along with the levels.
    rng = random.Random(25)
    graphs = 0
    for weights in ([1], range(1, 4), range(1, 17), range(0, 4)):
        for directed in (False, True):
            for _ in range(40):
                n = rng.randint(1, 40)
                edges = [(rng.randrange(n), rng.randrange(n), rng.choice(weights))
                         for _ in range(rng.randint(0, 2 * n))]
                if rng.random() < 0.5:
                    edges += [(i, (i + 1) % n, rng.choice(weights)) for i in range(n)]
                g = Graph(n, edges, undirected=not directed)
                weight = max(1, g.max_weight)
                # A sampled start as _source_sweep seeds it: bit i at source i.
                sampled = [0] * n
                for i, s in enumerate(rng.sample(range(n), rng.randint(1, n))):
                    sampled[s] = 1 << i
                for adj in (g.adj_out, g.adj_in):
                    for start in (None, sampled):
                        want = _settled_prefix(reference_levels(g, adj, weight, start))
                        assert _settled_prefix(oracle._levels(g, adj, weight, start)) == want
                graphs += 1
    assert graphs == 320


def _never_levels(*args):
    raise AssertionError("no level should be built")


def test_roundtrip_sweep_fixed_values(monkeypatch):
    # A zero-weight cycle 0 -> 1 -> 2 -> 0 and the way 2 -2-> 3 -1-> 0 back.
    cycle = Graph(4, [(0, 1, 0), (1, 2, 0), (2, 0, 0), (2, 3, 2), (3, 0, 1)])
    assert sweep_ecc(cycle, "roundtrip", budget=INF) == [3] * 4
    assert sweep_ecc(Graph(3, [(0, 1, 0), (1, 2, 0), (2, 0, 0)]), "roundtrip") == [0] * 3
    assert sweep_ecc(Graph(1), "roundtrip") == [0]
    # Not strongly connected: every eccentricity is INF, from the two
    # searches out of vertex 0 alone.
    monkeypatch.setattr(oracle, "_levels", _never_levels)
    assert sweep_ecc(Graph(4, [(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1)]), "roundtrip",
                     budget=INF) == [INF] * 4
    assert sweep_ecc(Graph(3, [(1, 0, 1), (1, 2, 1), (2, 1, 1)]), "roundtrip") == [INF] * 3


def test_roundtrip_sweep_gives_up_past_its_work_budget(monkeypatch):
    # A path 2 - 1 - 0 - 3 - 4 with both arcs of every edge.  Vertex 0 stays
    # pending up to r = ecc(0) = 4, so the sweep does 5 (1 + 2 + 3 + 2) = 40
    # mask ANDs at least, from the levels up to max d(0 -> v) = max d(v -> 0)
    # = 2; it does 5 (1 + 2 + 3 + 4 + 5) at r = 0 to 4 and, once the levels
    # have settled at 4 and W = 1 level later, 5 (4 + 3 + 2) at r = 5 to 7,
    # 120 in all.  The default budget is 5^2.
    arms = [(0, 1), (1, 2), (0, 3), (3, 4)]
    path = Graph(5, [(u, v, 1) for u, v in arms] + [(v, u, 1) for u, v in arms])
    answer = [4, 6, 8, 6, 8]
    assert exact_eccentricities(path, "roundtrip").ecc == answer
    assert sweep_ecc(path, "roundtrip", budget=40) is None
    assert sweep_ecc(path, "roundtrip", budget=119) is None
    assert sweep_ecc(path, "roundtrip", budget=120) == answer
    # At weight 2 the levels settle W = 2 levels after the last change, at 8,
    # and are cut back to F_0 .. F_8: 5 (1 + 2 + ... + 10) at r = 0 to 9,
    # then 5 (7 + 6 + 5 + 4 + 3 + 2) at r = 10 to 15, 410 in all.
    doubled = Graph(5, [(u, v, 2) for u, v, _ in path.edges])
    assert sweep_ecc(doubled, "roundtrip", budget=409) is None
    assert sweep_ecc(doubled, "roundtrip", budget=410) == [2 * e for e in answer]
    # Below the 40 ANDs of vertex 0 alone, the sweep does not start.
    monkeypatch.setattr(oracle, "_levels", _never_levels)
    assert sweep_ecc(path, "roundtrip") is None
    assert sweep_ecc(path, "roundtrip", budget=39) is None


def test_roundtrip_sweep_gives_up_past_its_memory_bound():
    # On a path of n vertices with both arcs of every edge, the levels of
    # each direction settle at n - 1, so the sweep keeps 2n levels at most.
    def path(n):
        edges = [(i, i + 1) for i in range(n - 1)]
        return Graph(n, edges + [(v, u) for u, v in edges])

    n = ROUNDTRIP_MAX_LEVELS // 2
    assert sweep_ecc(path(n), "roundtrip", budget=INF) == reference_report(path(n), "roundtrip").ecc
    assert sweep_ecc(path(n + 1), "roundtrip", budget=INF) is None


def test_sweep_capacity_and_variant_checks():
    g = Graph(10, [], undirected=True)
    with pytest.raises(CapacityError):
        sweep_eccentricities(g, "undirected", cap=5)
    with pytest.raises(CapacityError):
        sweep_median(g, cap=5)
    with pytest.raises(VariantError):
        sweep_eccentricities(Graph(2, [(0, 1)]), "undirected")


# -- the level sweep seeded at sampled sources -------------------------------


def test_source_sweep_matches_reference():
    # Every sample size 1..n, in no particular order; zero-weight arcs,
    # disconnected and undirected graphs, n = 1 and W up to 16.
    rng = random.Random(11)
    for max_weight in (1, 2, 3, 16) * 40:
        g = mixed_graph(rng, 12, max_weight)
        dist = floyd_warshall(g)
        for variant in _variants(g):
            for k in range(1, g.n + 1):
                sources = rng.sample(range(g.n), k)
                want = [max(variant_pair(variant, dist[s][v], dist[v][s]) for v in range(g.n))
                        for s in sources]
                got = sweep_source_ecc(g, variant, sources, budget=INF)
                assert got == (None if variant == "roundtrip" else want), (g.edges, variant, sources)
                assert sampled_ecc(g, variant, sources) == want


def test_source_sweep_fixed_values():
    cycle = SWEEP_CASES[0]
    assert sweep_source_ecc(cycle, "source", [3, 0], budget=INF) == [INF, 2]
    assert sweep_source_ecc(cycle, "min", [3], budget=INF) == [2]
    path = SWEEP_CASES[5]
    assert sweep_source_ecc(path, "undirected", [1, 2], budget=INF) == [10, 6]
    assert sweep_source_ecc(path, "source", [], budget=INF) == []
    assert sweep_source_ecc(Graph(1), "min", [0]) == [0]
    heavy = Graph(2, [(0, 1, SWEEP_MAX_WEIGHT + 1), (1, 0, 1)])
    assert sweep_source_ecc(heavy, "source", [0], budget=INF) is None
    # The masks hold a bit per source, so no cap on n applies.
    star = Graph(6000, [(0, v, 1) for v in range(1, 6000)], undirected=True)
    assert sweep_source_ecc(star, "undirected", [0], budget=INF) == [1]


def test_source_sweep_gives_up_past_its_work_budget():
    # From vertex 0 of a path of 10 vertices the masks still to fill number
    # 9, 8, ..., 1 at levels 0 to 8: 45 in all, past the default budget
    # 1 * 10 // 4.
    path = Graph(10, [(i, i + 1, 1) for i in range(9)], undirected=True)
    answer = [9]
    assert sweep_source_ecc(path, "undirected", [0]) is None
    assert sweep_source_ecc(path, "undirected", [0], budget=44) is None
    assert sweep_source_ecc(path, "undirected", [0], budget=45) == answer
    assert sampled_ecc(path, "undirected", [0]) == answer
    # Masks that never fill count until the sweep settles.  From 2 and 0 on
    # the directed path 0 -> 1 -> 2 -> 3, the masks of 0 and 1 never hold 2:
    # 4 + 4 + 3 + 2 masks at levels 0 to 3, then level 4 brings no change.
    line = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    assert sweep_source_ecc(line, "source", [2, 0], budget=12) is None
    assert sweep_source_ecc(line, "source", [2, 0], budget=13) == [INF, 3]


def test_roundtrip_sweep_of_the_empty_graph_is_empty():
    assert sweep_ecc(Graph(0), "roundtrip") == []
