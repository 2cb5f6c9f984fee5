import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import floyd_warshall, random_digraph
from ecclab.graph import (
    INF,
    BACKWARD,
    FORWARD,
    Graph,
    GraphFormatError,
    condense_scc,
    read_graph,
    relabel_topological,
    shortest_paths,
    topological_order,
    truncated_shortest_paths,
    write_graph,
)
from ecclab.treewidth import DecompositionError, read_td


def test_graph_rejects_out_of_range_edges():
    with pytest.raises(GraphFormatError):
        Graph(2, [(0, 2)])


def test_graph_rejects_bad_weights():
    with pytest.raises(GraphFormatError):
        Graph(2, [(0, 1, -1)])
    with pytest.raises(GraphFormatError):
        Graph(2, [(0, 1, 1.5)])


def test_self_loops_dropped():
    g = Graph(3, [(0, 0), (0, 1)])
    assert g.m == 1


def test_shortest_paths_line():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert shortest_paths(g, 0) == [0, 1, 2, 3]
    assert shortest_paths(g, 3) == [INF, INF, INF, 0]
    assert shortest_paths(g, 3, BACKWARD) == [3, 2, 1, 0]


def test_shortest_paths_weighted_prefers_light_path():
    g = Graph(3, [(0, 2, 10), (0, 1, 1), (1, 2, 1)])
    assert shortest_paths(g, 0) == [0, 1, 2]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 12), st.integers(0, 30), st.integers(1, 5))
def test_shortest_paths_match_floyd_warshall(seed, n, m, w):
    rng = random.Random(seed)
    g = random_digraph(rng, n, m, max_weight=w)
    dist = floyd_warshall(g)
    for s in range(g.n):
        assert shortest_paths(g, s, FORWARD) == dist[s]
        assert shortest_paths(g, s, BACKWARD) == [dist[v][s] for v in range(g.n)]


def test_truncated_shortest_paths_prefix():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    got = truncated_shortest_paths(g, 0, 3)
    assert [v for v, _ in got] == [0, 1, 2]


def test_truncated_shortest_paths_zero_weight_ties_by_vertex_id():
    # 0, 3, 4 and 5 all lie at distance 0 from vertex 0; the two closest in
    # (distance, vertex-id) order are 0 and 3, however the search meets them.
    g = Graph(6, [(0, 5, 0), (5, 3, 0), (0, 4, 0)])
    assert truncated_shortest_paths(g, 0, 2) == [(0, 0), (3, 0)]


def test_topological_order_and_is_dag():
    g = Graph(3, [(0, 1), (1, 2)])
    order = topological_order(g)
    pos = {v: i for i, v in enumerate(order)}
    assert all(pos[u] < pos[v] for u, v, _ in g.edges)
    cyc = Graph(2, [(0, 1), (1, 0)])
    assert topological_order(cyc) is None


def test_relabel_topological_preserves_distances():
    rng = random.Random(5)
    edges = [(u, v) for u in range(8) for v in range(u + 1, 8) if rng.random() < 0.4]
    g = Graph(8, edges)
    h, order = relabel_topological(g)
    dg = floyd_warshall(g)
    dh = floyd_warshall(h)
    for i in range(8):
        for j in range(8):
            assert dh[i][j] == dg[order[i]][order[j]]


def test_condense_scc_two_cycles():
    g = Graph(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4)])
    comp, dag = condense_scc(g)
    assert comp[0] == comp[1]
    assert comp[2] == comp[3]
    assert comp[0] != comp[2] != comp[4]
    assert topological_order(dag) is not None


@pytest.mark.parametrize("undirected", [False, True])
def test_condense_scc_is_mutual_reachability(undirected):
    # Components are the classes of mutual reachability, numbered by their
    # smallest member, and the DAG keeps the lightest arc between two of them.
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(1, 14)
        edges = [(rng.randrange(n), rng.randrange(n), rng.randint(0, 3)) for _ in range(rng.randint(0, 2 * n))]
        g = Graph(n, edges, undirected=undirected)
        dist = floyd_warshall(g)
        comp, dag = condense_scc(g)
        for u in range(n):
            for v in range(n):
                assert (comp[u] == comp[v]) == (dist[u][v] < INF and dist[v][u] < INF), g.edges
        assert list(dict.fromkeys(comp)) == list(range(dag.n))
        lightest = {}
        for u, v, w in g.directed_edges():
            if comp[u] != comp[v]:
                key = (comp[u], comp[v])
                lightest[key] = min(w, lightest.get(key, INF))
        assert sorted(dag.edges) == sorted((u, v, w) for (u, v), w in lightest.items())
        assert topological_order(dag) is not None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 10), st.integers(0, 25), st.integers(1, 4))
def test_graph_round_trip(seed, n, m, w):
    rng = random.Random(seed)
    g = random_digraph(rng, n, m, max_weight=w)
    h = read_graph(write_graph(g))
    assert h.n == g.n and h.undirected == g.undirected
    assert sorted(h.edges) == sorted(g.edges)
    assert write_graph(h) == write_graph(g)


def test_read_graph_rejects_garbage():
    with pytest.raises(GraphFormatError):
        read_graph("not a header\n")


_TOKENS = st.one_of(
    st.integers(-3, 6).map(str),
    st.sampled_from(["p", "s", "td", "b", "c", "D", "U", "W", "1", "#", "x", "-", ""]),
    st.text(max_size=4),
)
_LINES = st.one_of(
    st.builds("p {} {} {} {}".format, st.integers(-3, 6), st.integers(-3, 6),
              st.sampled_from("DU"), st.sampled_from("W1")),
    st.lists(_TOKENS, max_size=6).map(" ".join),
    st.text(max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(_LINES, max_size=8).map("\n".join)))
def test_parsers_raise_only_format_errors(text):
    try:
        g = read_graph(text)
    except GraphFormatError:
        pass
    else:
        assert g.n >= 0
    try:
        read_td(text, 3)
    except DecompositionError:
        pass
