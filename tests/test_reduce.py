import dataclasses
import random

import pytest

from conftest import reference_reduce23
from ecclab import reduce23
from ecclab.gadgets import gadget_radius_23, gadget_undirected_diameter_23
from ecclab.graph import INF, Graph, shortest_paths
from ecclab.oracle import VariantError, exact_eccentricities
from ecclab.reduce23 import (
    DIAMETER,
    RADIUS,
    closed_neighborhoods,
    default_delta,
    hashed_masks,
    reduce_decision23_to_set_system,
)
from ecclab.seeds import substream
from ecclab.setsystem import OV, random_instance


def labeled_gadgets(count, seed, want_answer=None):
    """Oracle-labeled 2-vs-3 undirected gadgets."""
    rng = substream(seed, "labeled")
    out = []
    while len(out) < count:
        inst = random_instance(rng.randint(2, 6), rng.randint(2, 6), rng.randint(2, 5), OV, rng)
        g = gadget_undirected_diameter_23(inst).graph
        report = exact_eccentricities(g, "undirected")
        if report.diameter not in (2, 3):
            continue
        if want_answer is not None and report.diameter != want_answer:
            continue
        out.append((g, report))
    return out


def test_rejects_directed_and_weighted():
    with pytest.raises(VariantError):
        reduce_decision23_to_set_system(Graph(2, [(0, 1)]), DIAMETER, random.Random(0))
    g = Graph(2, [(0, 1, 2)], undirected=True)
    with pytest.raises(VariantError):
        reduce_decision23_to_set_system(g, DIAMETER, random.Random(0))


def test_closed_neighborhoods():
    g = Graph(3, [(0, 1), (1, 2)], undirected=True)
    assert closed_neighborhoods(g) == [
        frozenset({0, 1}),
        frozenset({0, 1, 2}),
        frozenset({1, 2}),
    ]


def test_columns_draw_the_hash_of_hashed_masks():
    # _columns draws its hash in bulk; the stream must be one randrange per id,
    # as hashed_masks draws it, and leave the generator in the same state.
    for width in (1, 2, 3, 5, 8, 13, 64, 100, 1000, (1 << 40) + 3):
        for n in (0, 1, 7, 300):
            draws, reference = random.Random(width + n), random.Random(width + n)
            col = reduce23._columns([1 << x for x in range(n)], width, draws)
            if width < 1 << 12:
                h = [m.bit_length() - 1 for m in hashed_masks([[x] for x in range(n)], width, reference)]
            else:
                # hashed_masks's masks 1 << h would not fit in memory; these
                # are the draws it makes.
                h = [reference.randrange(width) for _ in range(n)]
            assert col == [sum(1 << x for x in range(n) if h[x] == h[w]) for w in range(n)]
            assert draws.getstate() == reference.getstate()


def test_hashed_masks_cover_members():
    rng = random.Random(1)
    nbhd = [frozenset({0, 5}), frozenset({3})]
    masks = hashed_masks(nbhd, 16, rng)
    assert all(m for m in masks)
    # Intersecting neighborhoods always produce intersecting masks.
    nb2 = [frozenset({0, 1}), frozenset({1, 2})]
    for _ in range(20):
        m = hashed_masks(nb2, 8, rng)
        assert m[0] & m[1]


def test_never_three_on_diameter_two():
    # One-sided error: a diameter-2 graph is never reported as 3.
    for g, report in labeled_gadgets(40, 5, want_answer=2):
        for seed in range(5):
            res = reduce_decision23_to_set_system(g, DIAMETER, substream(seed, "d2"))
            assert res.value == 2


def test_diameter_three_detected_whp():
    hits = total = 0
    for g, report in labeled_gadgets(30, 7, want_answer=3):
        res = reduce_decision23_to_set_system(g, DIAMETER, substream(11, "d3"))
        hits += res.value == 3
        total += 1
    assert hits / total >= 0.99


def test_radius_analog_matches_oracle():
    rng = substream(13, "rad")
    agree = total = 0
    for g, report in labeled_gadgets(40, 13):
        if report.radius not in (2, 3):
            continue
        res = reduce_decision23_to_set_system(g, RADIUS, rng)
        total += 1
        if report.radius == 2:
            # Never report 3 on a radius-2 graph.
            assert res.value == 2
            agree += 1
        else:
            agree += res.value == 3
    assert total > 0 and agree / total >= 0.99


def test_dense_graph_handled_by_traversals():
    # K10 plus a pendant: diameter 2, every hub is high-degree.
    edges = [(u, v) for u in range(10) for v in range(u + 1, 10)] + [(0, 10)]
    g = Graph(11, edges, undirected=True)
    res = reduce_decision23_to_set_system(g, DIAMETER, random.Random(3), delta=2)
    assert res.value == 2
    assert default_delta(g) >= 1


def test_result_bookkeeping():
    g, _ = labeled_gadgets(1, 17)[0]
    res = reduce_decision23_to_set_system(g, DIAMETER, random.Random(0), rounds=7)
    assert res.target == DIAMETER
    assert res.value in (2, 3)
    assert res.hash_width == 10 * res.delta * res.delta
    assert res.rounds_used <= 7


def hub_graph(r, s):
    """Centre c joined to x_0..x_{r-1}; y_j joined to x_{j mod r}; a hub H
    joined to every y_j.  The radius is exactly 3: c is at distance 3 from H,
    and every other vertex is at distance 3 from some x_i or y_j."""
    c, hub = 0, r + s + 1
    edges = [(c, 1 + i) for i in range(r)]
    edges += [(1 + r + j, 1 + j % r) for j in range(s)]
    edges += [(hub, 1 + r + j) for j in range(s)]
    return Graph(r + s + 2, edges, undirected=True)


def test_radius_three_on_hub_graph():
    # The hub's neighborhood meets almost every hashed neighborhood, so a
    # test against it would let the centre c survive every round.
    g = hub_graph(60, 2000)
    for seed in range(10):
        res = reduce_decision23_to_set_system(g, RADIUS, substream(seed, "hub"))
        assert res.value == 3
        assert res.high_degree == [g.n - 1]


def test_rounds_used_counts_drawn_rounds(monkeypatch):
    drawn = []
    columns = reduce23._columns

    def counted_columns(*args):
        drawn.append(1)
        return columns(*args)

    monkeypatch.setattr(reduce23, "_columns", counted_columns)
    # The candidates run out after a round or a few, well before the limit.
    res = reduce_decision23_to_set_system(hub_graph(60, 2000), RADIUS, random.Random(1))
    assert res.value == 3
    assert res.rounds_used == len(drawn) < reduce23.DEFAULT_ROUNDS
    # With delta 3, c and every x_i are high-degree, and every y_j is at
    # distance 3 from some x_i: the far-candidate drop leaves no candidate.
    drawn.clear()
    res = reduce_decision23_to_set_system(hub_graph(3, 12), RADIUS, random.Random(1), delta=3)
    assert (res.value, res.rounds_used, drawn) == (3, 0, [])
    # On K6 every vertex is high-degree and within distance 1 of the rest,
    # so the traversals settle every pair and no round is drawn.
    k6 = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)], undirected=True)
    res = reduce_decision23_to_set_system(k6, DIAMETER, random.Random(1))
    assert (res.value, res.rounds_used, drawn) == (2, 0, [])


def _far_drop_runs(g, delta, at_least=3):
    """Some low-degree vertex is at distance >= at_least from a high-degree one."""
    high = [v for v in range(g.n) if len(g.adj_out[v]) >= delta]
    low = [v for v in range(g.n) if len(g.adj_out[v]) < delta]
    return any(shortest_paths(g, v)[c] >= at_least for v in high for c in low)


def side_by_side(g, h):
    """The disjoint union of two undirected graphs, h's ids shifted past g's."""
    return Graph(g.n + h.n, g.edges + [(u + g.n, v + g.n) for u, v, _ in h.edges], undirected=True)


def test_column_rounds_match_full_mask_reference():
    rng = substream(19, "columns")
    graphs = [hub_graph(r, s) for r, s in ((3, 12), (5, 40), (8, 30))]
    for _ in range(40):
        inst = random_instance(rng.randint(1, 10), rng.randint(1, 10), rng.randint(1, 7), OV,
                               rng, density=rng.choice([0.2, 0.5, 0.8]))
        graphs.append(gadget_undirected_diameter_23(inst).graph)
        graphs.append(gadget_radius_23(inst).graph)
    # Vertices that no high-degree vertex reaches: two gadgets side by side,
    # and a gadget plus an isolated vertex.  Then K6, where every vertex is
    # high-degree at every delta, and a path of 5, where none is at delta 3.
    graphs.append(side_by_side(graphs[3], graphs[4]))
    graphs.append(side_by_side(graphs[5], Graph(1, [], undirected=True)))
    graphs.append(Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)], undirected=True))
    graphs.append(Graph(5, [(u, u + 1) for u in range(4)], undirected=True))
    seen = set()
    for g in graphs:
        for target in (DIAMETER, RADIUS):
            for delta in (None, 2, 3):
                d = delta or default_delta(g)
                if target == RADIUS and _far_drop_runs(g, d):
                    seen.add("far-drop")
                if target == RADIUS and _far_drop_runs(g, d, INF):
                    seen.add("unreached")
                if not any(len(g.adj_out[v]) >= d for v in range(g.n)):
                    seen.add("no-high")
                if all(len(g.adj_out[v]) >= d for v in range(g.n)):
                    seen.add("all-high")
                for seed in range(3):
                    got = reduce_decision23_to_set_system(g, target, substream(seed, "c"), delta)
                    want = reference_reduce23(g, target, substream(seed, "c"), delta)
                    assert dataclasses.astuple(got) == dataclasses.astuple(want)
                    seen.add((target, got.value, got.notes))
    # Every exit of both targets was reached, candidates were dropped, some
    # because no high-degree vertex reaches them, and some graph had no
    # high-degree vertex and some no low-degree one.
    assert seen >= {"far-drop", "unreached", "no-high", "all-high",
                    (DIAMETER, 2, ""), (DIAMETER, 3, "hashed round"),
                    (DIAMETER, 3, "high-degree traversal"), (RADIUS, 2, "hashed rounds"),
                    (RADIUS, 3, ""), (RADIUS, 2, "high-degree traversal")}


def test_reduce_refuses_an_unknown_target():
    g = Graph(3, [(0, 1), (1, 2)], undirected=True)
    with pytest.raises(ValueError, match="^target must be 'diameter' or 'radius'$"):
        reduce_decision23_to_set_system(g, "median", random.Random(1))
