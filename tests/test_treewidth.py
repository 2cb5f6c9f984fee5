import random

import pytest

from conftest import reference_eccentricities
from ecclab import treewidth
from ecclab.graph import INF, Graph
from ecclab.oracle import VARIANTS, exact_eccentricities
from ecclab.seeds import substream
from ecclab.treewidth import (
    DecompositionError,
    TreeDecomposition,
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


def test_td_round_trip():
    rng = substream(1, "io")
    g, td = generate_partial_ktree(25, 3, 0.8, rng)
    back = read_td(write_td(td, g.n))
    assert back.bags == td.bags
    assert sorted(back.tree) == sorted(td.tree)
    assert write_td(back, g.n) == write_td(td, g.n)


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


def connected_ktree(seed, variant):
    """A k=3 k-tree on 200 vertices; for the directed variants both arcs of
    every edge, each with its own weight in 1..3.  Every distance is finite."""
    rng = substream(seed, f"tw-connected:{variant}")
    g, td = generate_partial_ktree(200, 3, 1.0, rng)
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
    for seed in range(2):
        g, td = connected_ktree(seed, variant)
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
