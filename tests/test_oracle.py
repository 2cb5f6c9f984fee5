import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    floyd_warshall,
    random_digraph,
    random_undirected,
    reference_eccentricities,
    reference_report,
)
from ecclab.graph import INF, Graph
from ecclab.oracle import (
    VARIANTS,
    CapacityError,
    EccentricityReport,
    VariantError,
    exact_eccentricities,
    exact_median,
    pair_distance,
)


def test_pair_distance_definitions():
    assert pair_distance("source", 3, 7) == 3
    assert pair_distance("max", 3, 7) == 7
    assert pair_distance("min", 3, 7) == 3
    assert pair_distance("roundtrip", 3, 7) == 10
    assert pair_distance("roundtrip", 3, INF) == INF


def test_pair_distance_rejects_unknown_variant():
    with pytest.raises(VariantError):
        pair_distance("nope", 1, 2)


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


def test_report_json_round_trip():
    g = Graph(3, [(0, 1), (1, 2)])
    rep = exact_eccentricities(g, "min")
    back = EccentricityReport.from_json(rep.to_json())
    assert back == rep


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
