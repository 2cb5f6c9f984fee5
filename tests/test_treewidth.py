import random

import pytest

from conftest import random_digraph, random_undirected, reference_eccentricities
from ecclab import treewidth
from ecclab.graph import INF, Graph
from ecclab.oracle import VARIANTS, exact_eccentricities
from ecclab.seeds import substream
from ecclab.treewidth import (
    DecompositionError,
    TreeDecomposition,
    _normalize,
    _restricted,
    find_portal_split,
    generate_partial_ktree,
    min_degree_decomposition,
    read_td,
    tw_eccentricities,
    write_td,
)


def test_validate_catches_missing_edge():
    g = Graph(3, [(0, 1), (1, 2)], undirected=True)
    td = TreeDecomposition([{0, 1}, {2}], [(0, 1)])
    with pytest.raises(DecompositionError):
        td.validate(g)


def test_validate_catches_disconnected_occurrences():
    g = Graph(3, [(0, 1), (1, 2)], undirected=True)
    td = TreeDecomposition([{0, 1}, {1, 2}, {0}], [(0, 1), (1, 2)])
    with pytest.raises(DecompositionError):
        td.validate(g)


def test_validate_messages_on_mutated_decompositions():
    # Each bag of a 3-tree's decomposition loses each of its vertices in turn.
    # The message names the first fault a scan of every bag finds, in the
    # order the checks run: a vertex in no bag, an edge in no bag (the first
    # in g.edges), then a vertex whose bags are not connected.
    g, td = generate_partial_ktree(30, 3, 1.0, substream(5, "td-mutate"))
    adj = td.neighbors()

    def connected(bags, v):
        holding = {i for i, bag in enumerate(bags) if v in bag}
        seen, stack = set(), [min(holding)]
        while stack:
            i = stack.pop()
            seen.add(i)
            stack += [j for j in adj[i] if j in holding and j not in seen]
        return seen == holding

    faults = set()
    for i, bag in enumerate(td.bags):
        for v in sorted(bag):
            bags = list(td.bags)
            bags[i] = bag - {v}
            uncovered = [(a, b) for a, b, _ in g.edges if not any(a in x and b in x for x in bags)]
            if not any(v in x for x in bags):
                want = f"vertices not covered by any bag: [{v}]"
            elif uncovered:
                want = "edge ({},{}) not covered by any bag".format(*uncovered[0])
            elif not connected(bags, v):
                want = f"bags containing vertex {v} are not connected"
            else:
                want = None
            try:
                TreeDecomposition(bags, td.tree).validate(g)
                got = None
            except DecompositionError as err:
                got = str(err)
            assert got == want, (i, v)
            faults.add(want and want.split()[0])
    assert faults == {"vertices", "edge", "bags"}


def test_partial_ktree_decomposition_valid():
    for seed in range(10):
        rng = substream(seed, "kt")
        g, td = generate_partial_ktree(40, 3, 0.7, rng)
        td.validate(g)
        assert td.width == 3


def test_min_degree_heuristic_valid():
    for seed in range(10):
        rng = substream(seed, "mdh")
        g, _ = generate_partial_ktree(30, 2, 0.8, rng)
        td = min_degree_decomposition(g)
        td.validate(g)


def scan_decomposition(g):
    """min_degree_decomposition as it was before the heap, with a full scan
    of the alive vertices at each step: the reference for the heap."""
    n = g.n
    nbr = [set() for _ in range(n)]
    for u, v, _ in g.edges:
        nbr[u].add(v)
        nbr[v].add(u)
    alive = set(range(n))
    bags, order = [], []
    while alive:
        v = min(alive, key=lambda x: (len(nbr[x]), x))
        bags.append(frozenset({v} | nbr[v]))
        order.append(v)
        for a in nbr[v]:
            nbr[a].discard(v)
            nbr[a] |= nbr[v] - {a, v}
        alive.remove(v)
        nbr[v] = set()
    pos = {v: i for i, v in enumerate(order)}
    edges = []
    for i, v in enumerate(order[:-1]):
        later = [u for u in bags[i] if u != v and pos[u] > i]
        edges.append((i, pos[min(later, key=pos.get)] if later else n - 1))
    return TreeDecomposition(bags, edges)


def test_min_degree_heap_matches_scan():
    rng = random.Random(17)
    for trial in range(120):
        n = rng.randint(1, 40)
        make = random_undirected if trial % 2 else random_digraph
        g = make(rng, n, rng.randint(0, 3 * n))
        assert min_degree_decomposition(g) == scan_decomposition(g)


def test_td_round_trip():
    rng = substream(1, "io")
    g, td = generate_partial_ktree(25, 3, 0.8, rng)
    back = read_td(write_td(td, g.n))
    assert back.bags == td.bags
    assert sorted(back.tree) == sorted(td.tree)
    assert write_td(back, g.n) == write_td(td, g.n)


def _check_normalized(td, nd):
    """nd is td normalised: no nested tree edge, a tree, the same vertices."""
    bags = nd.bags
    assert not [(i, j) for i, j in nd.tree if bags[i] <= bags[j] or bags[j] <= bags[i]]
    assert len(nd.tree) == len(bags) - 1
    assert set().union(*bags) == set().union(*td.bags)


def test_normalize_and_restrict_leave_no_nested_edge():
    rng = substream(3, "normalize")
    for _ in range(40):
        k = rng.randint(1, 4)
        g, gen_td = generate_partial_ktree(rng.randint(k + 1, 60), k, rng.random(), rng)
        for td in (gen_td, min_degree_decomposition(g)):
            nd = _normalize(td)
            _check_normalized(td, nd)
            nd.validate(g)
            side = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            pos = {v: i for i, v in enumerate(side)}
            sub = _restricted(nd, pos)
            _check_normalized(TreeDecomposition([set(range(len(side)))], []), sub)
            assert len(sub.bags) <= len(side)
            induced = [(pos[u], pos[v], w) for u, v, w in g.edges if u in pos and v in pos]
            sub.validate(Graph(len(side), induced, undirected=True))


def test_portal_split_separates():
    rng = substream(2, "split")
    g, td = generate_partial_ktree(60, 3, 0.8, rng)
    split = find_portal_split(g, td)
    portals = set(split.portals)
    side_a = set(split.side) - portals
    side_b = set(split.complement) - portals
    assert side_a.isdisjoint(side_b)
    for u, v, _ in g.edges:
        if u in side_a and v in side_b or u in side_b and v in side_a:
            raise AssertionError(f"edge ({u},{v}) crosses the split")


def connected_ktree(seed, variant, n=200, k=3):
    """A k-tree on n vertices; for the directed variants both arcs of every
    edge, each with its own weight in 1..3.  Every distance is finite."""
    rng = substream(seed, f"tw-connected:{variant}")
    g, td = generate_partial_ktree(n, k, 1.0, rng)
    if variant != "undirected":
        arcs = [(x, y, rng.randint(1, 3)) for u, v, _ in g.edges for x, y in ((u, v), (v, u))]
        g = Graph(g.n, arcs)
    return g, td


@pytest.mark.parametrize("variant", VARIANTS)
def test_tw_matches_oracle_undirected_source(variant, monkeypatch):
    for seed in range(6):
        rng = substream(seed, f"tw:{variant}")
        directed = variant != "undirected"
        g, td = generate_partial_ktree(50, 3, 0.75, rng, directed=directed)
        rep = tw_eccentricities(g, td, variant)
        assert rep.ecc == exact_eccentricities(g, variant).ecc
    splits = []

    def counted_split(*args, **kwargs):
        splits.append(1)
        return find_portal_split(*args, **kwargs)

    monkeypatch.setattr(treewidth, "find_portal_split", counted_split)
    g0, td0 = connected_ktree(0, variant)
    # The last input is the `ecclab tw` path without --td.
    for g, td in (g0, td0), connected_ktree(1, variant), (g0, min_degree_decomposition(g0)):
        splits.clear()
        rep = tw_eccentricities(g, td, variant)
        assert rep.ecc == exact_eccentricities(g, variant).ecc
        assert rep.radius != INF
        assert len(splits) >= 2


@pytest.mark.parametrize("variant", VARIANTS)
def test_undirected_graph_runs_no_backward_portal_paths(variant, monkeypatch):
    # On an undirected graph the backward distances are the forward ones.
    directions = []
    shortest_paths = treewidth.shortest_paths

    def counted_paths(g, source, direction=treewidth.FORWARD):
        directions.append(direction)
        return shortest_paths(g, source, direction)

    g, td = connected_ktree(0, "undirected")
    monkeypatch.setattr(treewidth, "shortest_paths", counted_paths)
    rep = tw_eccentricities(g, td, variant)
    monkeypatch.undo()
    assert rep.ecc == exact_eccentricities(g, variant).ecc
    assert directions.count(treewidth.FORWARD) > 0
    assert directions.count(treewidth.BACKWARD) == 0


def test_tw_weighted_graph():
    rng = substream(7, "tww")
    g, td = generate_partial_ktree(40, 2, 0.8, rng, directed=True, max_weight=5)
    for variant in ("source", "max", "min", "roundtrip"):
        rep = tw_eccentricities(g, td, variant)
        assert rep.ecc == reference_eccentricities(g, variant)


def test_tw_tiny_graphs():
    g = Graph(2, [(0, 1)], undirected=True)
    td = TreeDecomposition([{0, 1}], [])
    assert tw_eccentricities(g, td, "undirected").ecc == [1, 1]


@pytest.mark.parametrize("variant", VARIANTS)
def test_tw_base_cases_run_through_the_sweep(variant, monkeypatch):
    # A weighted k-tree with n = 200: for the directed variants both arcs of
    # every edge, weights 1..3.
    if variant == "undirected":
        g, td = generate_partial_ktree(200, 3, 1.0, substream(4, "tw-sweep"), max_weight=3)
    else:
        g, td = connected_ktree(4, variant)
    swept = []
    sweep = treewidth.sweep_ecc

    def unbounded_sweep(g, variant, cap):
        # Every base case through the sweep, however much work it takes.
        ecc = sweep(g, variant, cap, budget=INF)
        swept.append(ecc is not None)
        return ecc

    monkeypatch.setattr(treewidth, "sweep_ecc", unbounded_sweep)
    rep = tw_eccentricities(g, td, variant)
    assert rep.ecc == exact_eccentricities(g, variant).ecc
    assert rep.radius != INF
    assert len(swept) >= 2
    assert all(swept)


def test_tw_recurses_below_the_top_split(monkeypatch):
    # The sides of the top split are themselves split, and theirs again.
    depth = [0]
    deepest = [0]
    solve = treewidth._solve

    def nested_solve(g, td, variant):
        depth[0] += 1
        deepest[0] = max(deepest[0], depth[0])
        try:
            return solve(g, td, variant)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(treewidth, "_solve", nested_solve)
    # The 4-tree is undirected for "undirected" and directed for the rest.
    cases = [(variant, connected_ktree(0, variant, n=300, k=4)) for variant in VARIANTS]
    cases.append(("min", connected_ktree(0, "min")))
    for variant, (g, td) in cases:
        deepest[0] = 0
        assert tw_eccentricities(g, td, variant).ecc == exact_eccentricities(g, variant).ecc
        assert deepest[0] >= 3, (g.n, variant, deepest[0])


def variants_of(g):
    return [v for v in VARIANTS if g.undirected or v != "undirected"]


def two_paths(directed):
    """Two disjoint paths of 20 vertices; directed: both arcs of every edge."""
    edges = [(u, u + 1) for start in (0, 20) for u in range(start, start + 19)]
    if directed:
        return Graph(40, edges + [(v, u) for u, v in edges])
    return Graph(40, edges, undirected=True)


@pytest.mark.parametrize("directed", [False, True])
def test_tw_split_without_portals(directed):
    # Some splits of a disconnected graph have no portal; every cross-side
    # distance is then INF.
    g = two_paths(directed)
    path_td = TreeDecomposition([{u, u + 1} for u in range(39)], [(u, u + 1) for u in range(38)])
    for td in (path_td, min_degree_decomposition(g)):
        for variant in variants_of(g):
            assert tw_eccentricities(g, td, variant).ecc == exact_eccentricities(g, variant).ecc


def test_tw_matches_oracle_on_sparse_partial_ktrees():
    # Edge-keep 0.3 leaves many components, so many splits have few portals
    # or none.
    rng = random.Random(5)
    for trial in range(12):
        k = rng.randint(1, 3)
        directed = trial % 2 == 1
        g, gen_td = generate_partial_ktree(rng.randint(k + 1, 90), k, 0.3, rng,
                                           directed=directed, max_weight=3)
        for td in (gen_td, min_degree_decomposition(g)):
            for variant in variants_of(g):
                assert tw_eccentricities(g, td, variant).ecc == exact_eccentricities(g, variant).ecc
