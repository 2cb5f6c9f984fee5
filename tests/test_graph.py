import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    floyd_warshall,
    mixed_graph,
    random_digraph,
    reference_read_graph,
    reference_read_td,
)
from ecclab import graph
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
from ecclab.treewidth import DecompositionError, TreeDecomposition, read_td, write_td


def test_graph_rejects_out_of_range_edges():
    with pytest.raises(GraphFormatError):
        Graph(2, [(0, 2)])


def test_graph_rejects_bad_weights():
    with pytest.raises(GraphFormatError):
        Graph(2, [(0, 1, -1)])
    with pytest.raises(GraphFormatError):
        Graph(2, [(0, 1, 1.5)])
    # bool is an int subclass, but write_graph would spell it True or False.
    with pytest.raises(GraphFormatError, match="^edge weight must be a nonnegative int, got True$"):
        Graph(2, [(0, 1, True)])
    with pytest.raises(GraphFormatError, match="got False$"):
        Graph(2, [(0, 1, False)])


def test_self_loops_dropped():
    g = Graph(3, [(0, 0), (0, 1)])
    assert g.m == 1


@pytest.mark.parametrize("g, unit, heaviest", [
    (Graph(0), True, 1),
    (Graph(3), True, 1),
    (Graph(3, [(0, 1, 0)]), False, 0),
    (Graph(3, [(0, 1, 1), (1, 2, 0)], undirected=True), False, 1),
    (Graph(3, [(0, 1), (1, 2), (2, 0)]), True, 1),
    (Graph._trusted(4, [(0, 1, 3), (1, 2, 1), (3, 0, 0)]), False, 3),
    (Graph._trusted(4, [(0, 1, 1), (2, 3, 1)], True), True, 1),
], ids=["empty", "no-edges", "zero-arc", "zero-and-one", "unit", "trusted-weighted",
        "trusted-unit"])
def test_weight_views(g, unit, heaviest):
    assert g.unit_weights is unit and g.max_weight == heaviest
    # The plain loops the views replaced.
    assert unit == all(w == 1 for _, _, w in g.edges)
    assert heaviest == max((w for _, _, w in g.edges), default=1)


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


def test_shortest_paths_from_a_list_is_the_least_over_its_vertices():
    # Zero-weight arcs, undirected graphs, W up to 16, repeated sources.
    rng = random.Random(7)
    for max_weight in (1, 2, 3, 16) * 30:
        g = mixed_graph(rng, 12, max_weight)
        for direction in (FORWARD, BACKWARD):
            assert shortest_paths(g, [], direction) == [INF] * g.n
            for k in range(1, g.n + 2):
                sources = rng.choices(range(g.n), k=k)
                rows = [shortest_paths(g, s, direction) for s in sources]
                want = [min(col) for col in zip(*rows)]
                assert shortest_paths(g, sources, direction) == want, (g.edges, sources)


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
    # What write_graph writes is read by the fast path, which runs none of
    # Graph's per-edge checks.
    text = write_graph(g)
    with mock.patch.object(Graph, "__init__", side_effect=AssertionError):
        h = read_graph(text)
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


@pytest.mark.parametrize("text, message", [
    ("", "missing header line"),
    ("# only a comment\n\n   \n", "missing header line"),
    ("q 2 1 U 1\n0 1\n", "bad header line: 'q 2 1 U 1'"),
    ("p 2 1 U\n0 1\n", "bad header line: 'p 2 1 U'"),
    ("p two 1 U 1\n0 1\n", "bad header counts: 'p two 1 U 1'"),
    ("p 2 -1 U 1\n", "negative header counts: 'p 2 -1 U 1'"),
    ("p 2 1 X 1\n0 1\n", "bad header flags: 'p 2 1 X 1'"),
    ("p 2 1 U 2\n0 1\n", "bad header flags: 'p 2 1 U 2'"),
    ("p 3 2 U 1\n0 1\n1 2 5\n", "expected 'u v': '1 2 5'"),
    ("p 3 2 D W\n0 1 4\n1 2\n", "expected 'u v w': '1 2'"),
    ("p 3 2 U 1\n0 1  # first\n1 x # second\n", "non-integer in edge line: '1 x # second'"),
    ("p 3 2 D W\n0 1 2.5\n1 2 1\n", "non-integer in edge line: '0 1 2.5'"),
    # The first bad line in file order decides, whichever its fault.
    ("p 3 3 U 1\n0 1\n1 y\n1 2 3\n", "non-integer in edge line: '1 y'"),
    ("p 3 3 U 1\n0 1\n1 2 3\n1 y\n", "expected 'u v': '1 2 3'"),
    ("p 3 3 U 1\n0 1\n1 2\n", "header announces 3 edges, found 2"),
    ("p 3 1 U 1\n0 1\n1 2\n", "header announces 1 edges, found 2"),
    ("p 3 2 U 1\n0 1\n1 3\n", "edge (1,3) out of range for n=3"),
    ("p 3 2 D W\n0 1 -2\n1 2 1\n", "edge weight must be a nonnegative int, got -2"),
    # Malformed lines are found before the edge count and the vertex range.
    ("p 3 9 U 1\n0 7\n\n1 z\n", "non-integer in edge line: '1 z'"),
    ("p 3 2 U 1\n5 1\n1 2 3\n", "expected 'u v': '1 2 3'"),
    ("p 3 5 U 1\n0 9\n1 2\n", "header announces 5 edges, found 2"),
], ids=["empty", "comments-only", "header-tag", "header-arity", "header-counts",
        "header-negative", "header-kind", "header-weighted", "arity-unit", "arity-weighted",
        "non-integer", "non-integer-weight", "first-bad-line-non-integer",
        "first-bad-line-arity", "count-short", "count-long", "range", "negative-weight",
        "non-integer-beats-count-and-range", "arity-beats-range", "count-beats-range"])
def test_read_graph_messages(text, message):
    with pytest.raises(GraphFormatError) as err:
        read_graph(text)
    assert str(err.value) == message


def test_read_graph_skips_comments_and_blank_lines():
    text = "# a path\n\np 3 2 U W  # header\n  \n0 1 4 # first\n# between\n1 2 0\n\n"
    g = read_graph(text)
    assert (g.n, g.undirected, g.edges) == (3, True, [(0, 1, 4), (1, 2, 0)])
    assert read_graph("p 2 1 D 1\n1 0\n").edges == [(1, 0, 1)]


# Graph texts near the format: a header, then edge lines of small integers,
# now and then a wrong arity, a stray token, a comment or a blank line.
_EDGE_TOKENS = st.one_of(st.integers(-1, 4).map(str), st.sampled_from(["x", "1.5", "+2", "#", ""]))
_GRAPH_TEXT = st.builds(
    lambda header, lines, end: "\n".join([header, *lines]) + end,
    st.builds("p {} {} {} {}".format, st.integers(-1, 4), st.integers(0, 5),
              st.sampled_from("DUX"), st.sampled_from("W1")),
    st.lists(st.one_of(
        st.lists(st.integers(-1, 4).map(str), min_size=2, max_size=3).map(" ".join),
        st.lists(_EDGE_TOKENS, max_size=4).map(" ".join),
        st.sampled_from(["", "  ", "# note"]),
    ), max_size=6),
    st.sampled_from(["", "\n"]),
) | st.builds(
    # Texts in write_graph's spelling: its output for small graphs, with
    # self-loops, vertex ids out of range where n < 5, weights of 0, now and
    # then zero-padded numbers or no final newline.
    lambda n, kind, weighted, arcs, spell, end: "\n".join(
        [f"p {spell.format(n)} {spell.format(len(arcs))} {kind} {weighted}"]
        + [" ".join(map(spell.format, arc[:2 if weighted == "1" else 3])) for arc in arcs]
    ) + end,
    st.integers(0, 6), st.sampled_from("DU"), st.sampled_from("W1"),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3)), max_size=6),
    st.sampled_from(["{}", "{}", "{:0>3}"]),
    st.sampled_from(["\n", "\n", ""]),
)


def _parsed(parse, text):
    try:
        g = parse(text)
    except GraphFormatError as exc:
        return str(exc)
    return g.n, g.undirected, g.edges


@settings(max_examples=400, deadline=None)
@given(_GRAPH_TEXT)
# A number longer than Python's int() may convert (4,300 digits since 3.11).
@example("p 3 1 U 1\n0 " + "1" * 5000 + "\n")
# Separators in write_graph's order, but a line short of a number.
@example("p 3 1 U 1\n 1\n2")
@example("p 3 1 U 1\n 1\n")
@example("p 3 1 U 1\n 0\n1 \n")
# A weight on either side of the int-conversion limit, which JSON shares.
@example("p 2 1 D W\n0 1 " + "9" * 4300 + "\n")
@example("p 2 1 D W\n0 1 " + "9" * 4301 + "\n")
# JSON refuses a leading zero; the general path reads 00 as 0.
@example("p 2 2 D 1\n00 1\n1 0\n")
@example("p 2 1 D W\n1 0 0\n")
def test_read_graph_matches_the_line_by_line_parser(text):
    expected = _parsed(reference_read_graph, text)
    assert _parsed(read_graph, text) == expected
    # The general path alone, on the texts the fast path takes as well.
    with mock.patch.object(graph, "_read_canonical", return_value=None):
        assert _parsed(read_graph, text) == expected
    fast = graph._read_canonical(text)
    if fast is not None:
        assert (fast.n, fast.undirected, fast.edges) == expected
    elif not isinstance(expected, str):
        # Every text write_graph writes takes the fast path.
        assert text != write_graph(reference_read_graph(text))


# A path of three vertices: bags {0, 1} and {1, 2} joined by one tree edge.
_TD = "s td 2 2 3\nb 1 0 1\nb 2 1 2\n1 2\n"


@pytest.mark.parametrize("text, message", [
    (_TD + "x\n", "malformed .td line: 'x'"),
    ("s td 2 2\nb 1 0 1\n", "bad solution line: 's td 2 2'"),
    ("s tw 2 2 3\n", "bad solution line: 's tw 2 2 3'"),
    (_TD + "s td 2 2 3\n", "second 's td' line: 's td 2 2 3'"),
    ("s td 2 x 3\n", "malformed .td line: 's td 2 x 3'"),
    ("s td 2 2 3\nb 1 0 y\n", "malformed .td line: 'b 1 0 y'"),
    ("s td 2 2 3\nb\n", "malformed .td line: 'b'"),
    # A tree-edge line of the wrong arity, or not of integers, is malformed.
    (_TD + "1 2 7 x\n", "malformed .td line: '1 2 7 x'"),
    (_TD + "1\n", "malformed .td line: '1'"),
    (_TD + "1 z\n", "malformed .td line: '1 z'"),
    # "c" opens a comment only when a space follows it.
    (_TD + "c\n", "malformed .td line: 'c'"),
    (_TD + "c\tx\n", "malformed .td line: 'c\\tx'"),
    ("b 1 0 1\nb 2 1 2\n1 2\n", "missing 's td' line"),
    ("", "missing 's td' line"),
    ("s td 2 2 4\nb 1 0 1\nb 2 1 2\n1 2\n", "'s td' line gives 4 vertices, the graph has 3"),
    ("s td 2 2 3\nb 3 0 1\nb 2 1 2\n1 2\n", "bag id 3 outside 1..2"),
    ("s td 2 2 3\nb 0 0 1\nb 2 1 2\n1 2\n", "bag id 0 outside 1..2"),
    ("s td 2 2 3\nb 1 0 1\nb 1 1 2\n1 2\n", "bag id 1 listed twice"),
    ("s td 2 3 3\nb 1 0 1\nb 2 1 2\n1 2\n",
     "'s td' line gives bag size 3, the largest bag has 2"),
    # The first bad line in file order decides, whichever its fault, and
    # every bad line comes before the header, bag id and bag size checks.
    ("s td 2 2 3\nb 1 0 1\n1 2 3\nb 2 1 x\n", "malformed .td line: '1 2 3'"),
    ("s td 2 2 3\nb 1 0 x\n1 2 3\n", "malformed .td line: 'b 1 0 x'"),
    ("s td 2 2 3\n1 2 3\ns td 2 2 3\n", "malformed .td line: '1 2 3'"),
    ("s td 2 2 3\ns td 2 2\n", "bad solution line: 's td 2 2'"),
    ("b 9 0 1\n1 x\n", "malformed .td line: '1 x'"),
    ("s td 2 2 4\nb 3 0 1\nb 3 0 1\n", "'s td' line gives 4 vertices, the graph has 3"),
    ("s td 2 2 3\nb 3 0 1\nb 3 0 1\n", "bag id 3 outside 1..2"),
    ("s td 3 2 3\nb 3 0 1\nb 3 0 1\n", "bag id 3 listed twice"),
    ("s td 3 9 3\nb 1 0 1\nb 1 0 1\n", "bag id 1 listed twice"),
    # More bags than the tree-edge lines can join is refused before any bag
    # is built, after the bag ids and before the bag size.
    ("s td 100000 1 3\n", "bag tree must have 99999 edges, found 0"),
    ("s td 3 9 3\nb 1 0 1\n1 2\n", "bag tree must have 2 edges, found 1"),
    # No bags: the largest bag has size 0 ("s td 0 0 3" is read, and
    # validate refuses it).
    ("s td 0 1 3\n", "'s td' line gives bag size 1, the largest bag has 0"),
], ids=["malformed", "solution-arity", "solution-tag", "second-header", "header-counts",
        "bag-vertex", "bag-id-missing", "edge-arity-long", "edge-arity-short", "edge-integer",
        "bare-c", "c-tab", "missing-header", "empty", "header-n", "bag-id-high", "bag-id-zero",
        "bag-id-twice", "bag-size", "first-bad-line-edge", "first-bad-line-bag",
        "malformed-beats-second-header", "first-bad-line-solution", "malformed-beats-missing",
        "header-n-beats-bag-id", "bag-id-range-first", "bag-id-twice-beats-size",
        "bag-id-beats-size", "bag-count-above-edges", "bag-count-beats-size", "no-bags-size"])
def test_read_td_messages(text, message):
    with pytest.raises(DecompositionError) as err:
        read_td(text, 3)
    assert str(err.value) == message


def test_empty_decomposition_is_written_read_and_refused():
    text = write_td(TreeDecomposition([], []), 3)
    assert text == "s td 0 0 3\n"
    with pytest.raises(DecompositionError, match="^decomposition has no bags$"):
        read_td(text, 3).validate(Graph(3, []))


@pytest.mark.parametrize("text, bags, tree", [
    ("c s td\ns td 2 2 3 # header\n\n  \nb 1 0 1   # first\nc another\nb 2 1 2\n# only\n1 2\n",
     [{0, 1}, {1, 2}], [(0, 1)]),
    # Bag ids in any order; an id with no 'b' line is an empty bag.
    ("s td 3 2 3\nb 3 1 2\nb 1 0 1\n1 3\n3 2\n", [{0, 1}, set(), {1, 2}], [(0, 2), (2, 1)]),
    ("s td 3 2 3\nb 2 1 2\nb 1 0 1\n2 1\n3 1\n", [{0, 1}, {1, 2}, set()], [(1, 0), (2, 0)]),
    ("\r\n s td 1 1 3\t\r\nb 1 2 # x\n", [{2}], []),
    ("s td 0 0 3\n", [], []),
], ids=["comments-and-blank-lines", "bag-ids-out-of-order", "bag-id-missing-last", "crlf",
        "no-bags"])
def test_read_td_accepts(text, bags, tree):
    td = read_td(text, 3)
    assert td.bags == [frozenset(b) for b in bags] and td.tree == tree


# .td texts near the format: an 's td' line (now and then a wrong tag, arity
# or count), bag lines and tree-edge lines of small integers, stray tokens,
# 'c' lines, comments and blank lines, bag ids in any order.
_TD_INT = st.integers(-1, 4).map(str)
_TD_TEXT = st.builds(
    lambda lines, end: "\n".join(lines) + end,
    st.lists(st.one_of(
        st.builds("s td {} {} {}".format, st.integers(0, 4), st.integers(0, 4), st.integers(2, 4)),
        st.lists(st.one_of(_TD_INT, st.sampled_from(["s", "td", "tw"])), max_size=6)
        .map(lambda t: " ".join(["s", *t])),
        st.lists(_TD_INT, min_size=1, max_size=5).map(lambda t: " ".join(["b", *t])),
        st.lists(st.integers(1, 4).map(str), min_size=2, max_size=2).map(" ".join),
        st.lists(st.one_of(_TD_INT, st.sampled_from(["x", "+2", "#", "c", "b"])), max_size=4)
        .map(" ".join),
        st.sampled_from(["", "  ", "# note", "c note", "c", "c\tnote", " c x # y", "b 1 0 # 2"]),
    ), max_size=8),
    st.sampled_from(["", "\n", "\r\n"]),
)


def _parsed_td(parse, text):
    try:
        td = parse(text, 3)
    except DecompositionError as exc:
        return str(exc)
    return td.bags, td.tree


@settings(max_examples=500, deadline=None)
@given(_TD_TEXT)
def test_read_td_matches_the_reference_parser(text):
    assert _parsed_td(read_td, text) == _parsed_td(reference_read_td, text)


def test_shortest_paths_refuses_an_unknown_direction():
    with pytest.raises(ValueError, match="^unknown direction 'sideways'$"):
        shortest_paths(Graph(2, [(0, 1)]), 0, "sideways")


def test_graph_repr_names_size_and_kind():
    assert repr(Graph(2, [(0, 1)])) == "Graph(n=2, m=1, directed)"
