import hashlib
import importlib
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    mixed_graph,
    random_digraph,
    random_undirected,
    reference_eccentricities,
    reference_validate,
)
from ecclab import treewidth
from ecclab.approx import approx_source_radius
from ecclab.graph import BACKWARD, FORWARD, INF, Graph, truncated_shortest_paths
from ecclab.oracle import VARIANTS, exact_eccentricities
from ecclab.seeds import substream
from ecclab.treewidth import (
    DecompositionError,
    PortalSplitError,
    TreeDecomposition,
    _normalize,
    _side,
    find_portal_split,
    generate_partial_ktree,
    min_degree_decomposition,
    read_td,
    tw_eccentricities,
    write_td,
)

TOOLS = Path(__file__).resolve().parent.parent / "tools"


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


@pytest.mark.parametrize("tree", [[(0, 1), (0, 1)], [(0, 0), (0, 1)],
                                  [(0, 1), (2, 3), (3, 4), (4, 2)]],
                         ids=["repeated-edge", "self-loop", "two-components"])
def test_validate_catches_disconnected_bag_tree(tree):
    # As many tree edges as a tree on the bags has, but they leave a bag
    # unreached from bag 0.
    g = Graph(3, [(0, 1), (1, 2)], undirected=True)
    bags = [{0, 1}, {1, 2}, {1}, {1}, {1}][:len(tree) + 1]
    with pytest.raises(DecompositionError, match="bag tree is not connected"):
        TreeDecomposition(bags, tree).validate(g)


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


def _outcome(check, td, g):
    try:
        check(td, g)
    except DecompositionError as err:
        return str(err)
    return None


def mutated(td, n, rng):
    """td with one to three random faults: a vertex dropped from a bag, a
    vertex (possibly outside 0..n-1) added to a bag, a tree edge rewired to
    a random bag, or a bag emptied."""
    bags, tree = list(td.bags), list(td.tree)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        i = rng.randrange(len(bags))
        if kind == 0 and bags[i]:
            bags[i] = bags[i] - {rng.choice(sorted(bags[i]))}
        elif kind == 1:
            bags[i] = bags[i] | {rng.randrange(n + 1)}
        elif kind == 2 and tree:
            j = rng.randrange(len(tree))
            tree[j] = (tree[j][0], rng.randrange(len(bags)))
        elif kind == 3:
            bags[i] = frozenset()
    return TreeDecomposition(bags, tree)


def test_validate_matches_the_reference_on_mutated_decompositions():
    # The generator's and the min-degree decompositions of seeded partial
    # k-trees, each with random faults: validate raises the reference's
    # message, or neither raises.
    rng = substream(21, "validate-mutate")
    seen = {}
    for trial in range(150):
        k = rng.randint(1, 3)
        g, gen_td = generate_partial_ktree(rng.randint(k + 1, 40), k, rng.uniform(0.3, 1.0), rng,
                                           directed=trial % 2 == 1)
        for td in (gen_td, min_degree_decomposition(g)):
            for _ in range(4):
                bad = mutated(td, g.n, rng)
                want = _outcome(reference_validate, bad, g)
                assert _outcome(TreeDecomposition.validate, bad, g) == want, (trial, bad)
                kind = want and want.split()[0]
                seen[kind] = seen.get(kind, 0) + 1
    assert set(seen) == {None, "vertices", "edge", "bags", "bag"}, seen
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (0, 2), (1, 2), (2, 3)], "bags containing vertex 0 are not connected"),
    ([(2, 3), (2, 0), (1, 0)], "bags containing vertex 0 are not connected"),
    # An edge in no bag is reported before the disconnected bags.
    ([(0, 1), (0, 2), (1, 2), (2, 3), (0, 3)], "edge (0,3) not covered by any bag"),
    ([(3, 0), (0, 2)], "edge (3,0) not covered by any bag"),
])
def test_validate_checks_every_part_of_a_split_vertex(edges, message):
    # Bags {1, 2} - {0, 1} and {1, 2} - {2, 3} - {0, 2}: vertex 0 lies in two
    # parts of the bag tree, and tops out once in each.  Edge (0, 1) meets
    # only in the part of {0, 1}, edge (0, 2) only in the part of {0, 2}, and
    # neither end's other top bag holds the other end.  So whichever top bag
    # of vertex 0 a check keeps, one of them is covered only by a bag outside
    # it.  Renumbering the bags moves the root and the order of the parts.
    g = Graph(4, edges, undirected=True)
    bags = [{1, 2}, {0, 1}, {2, 3}, {0, 2}]
    tree = [(0, 1), (0, 2), (2, 3)]
    for perm in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1]):
        at = {old: new for new, old in enumerate(perm)}
        td = TreeDecomposition([bags[old] for old in perm], [(at[i], at[j]) for i, j in tree])
        assert _outcome(reference_validate, td, g) == message
        assert _outcome(TreeDecomposition.validate, td, g) == message


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
    back = read_td(write_td(td, g.n), g.n)
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
            sub_g, sub = _side(g, nd, side, [], {})
            _check_normalized(TreeDecomposition([set(range(len(side)))], []), sub)
            assert len(sub.bags) <= len(side)
            assert sub_g.edges == [(pos[u], pos[v], w) for u, v, w in g.edges if u in pos and v in pos]
            sub.validate(sub_g)
            # A side that splits normalises its decomposition again, which
            # gives it back as it is.
            assert _normalize(sub) is sub


@pytest.fixture
def always_split(monkeypatch):
    # Every node above the base-case size splits, as it does where the sweep
    # gives up: the sweep would answer the small k-trees below at the top.
    monkeypatch.setattr(treewidth, "_sweep_budget", lambda g, width: None)


@pytest.fixture
def tw_scaling(monkeypatch):
    """tools/tw_scaling.py, whose build(family, n) gives the test families."""
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("tw_scaling")


def both_arcs(g, rng, top):
    """The directed graph with both arcs of every edge of g, weights 1..top."""
    return Graph(g.n, [(x, y, rng.randint(1, top)) for u, v, _ in g.edges
                       for x, y in ((u, v), (v, u))])


def test_every_side_decomposition_covers_its_shortcuts(monkeypatch, always_split):
    # Each side's decomposition is valid for its graph, portal shortcut edges
    # included: the portals share the cut bag, so every shortcut lies in it.
    sides = []

    def checked_side(g, td, keep, portals, fwd):
        sub_g, sub = _side(g, td, keep, portals, fwd)
        sub.validate(sub_g)
        own = set(keep)
        sides.append(sub_g.m > sum(u in own and v in own for u, v, _ in g.edges))
        return sub_g, sub

    monkeypatch.setattr(treewidth, "_side", checked_side)
    rng = substream(9, "sides")
    for trial in range(16):
        k = rng.randint(1, 3)
        g, gen_td = generate_partial_ktree(rng.randint(k + 1, 120), k, rng.uniform(0.5, 1.0), rng,
                                           directed=trial % 2 == 1, max_weight=3)
        for td in (gen_td, min_degree_decomposition(g)):
            for variant in variants_of(g):
                assert tw_eccentricities(g, td, variant).ecc == exact_eccentricities(g, variant).ecc
    assert len(sides) >= 1000 and sum(sides) >= 300


def test_portal_split_receives_a_normalised_decomposition(monkeypatch, always_split):
    # find_portal_split always receives a normalised decomposition, and
    # _normalize runs three times per split: on the node's own decomposition
    # and, in _side, on each side's.
    splits, normalised = [], []
    split, normalize = treewidth.find_portal_split, treewidth._normalize

    def checked_split(g, td):
        _check_normalized(td, td)
        assert any(td is nd for nd in normalised)
        splits.append(g)
        return split(g, td)

    def counted_normalize(td):
        normalised.append(normalize(td))
        return normalised[-1]

    monkeypatch.setattr(treewidth, "find_portal_split", checked_split)
    monkeypatch.setattr(treewidth, "_normalize", counted_normalize)
    for variant in ("undirected", "min"):
        g, td = connected_ktree(0, variant)
        for td in (td, min_degree_decomposition(g)):
            splits.clear()
            normalised.clear()
            assert tw_eccentricities(g, td, variant).ecc == exact_eccentricities(g, variant).ecc
            assert len(splits) >= 2 and len(normalised) == 3 * len(splits)


def test_sweep_answered_node_never_normalises(monkeypatch):
    # The sweep answers a k-tree's top node, so its decomposition is
    # validated and never normalised.
    def no_normalize(td):
        raise AssertionError("_normalize called")

    monkeypatch.setattr(treewidth, "_normalize", no_normalize)
    for variant in ("undirected", "source"):
        g, td = connected_ktree(1, variant, n=300)
        for td in (td, min_degree_decomposition(g)):
            assert tw_eccentricities(g, td, variant).ecc == exact_eccentricities(g, variant).ecc


def test_portal_split_separates():
    # Every normalised decomposition of a graph with n > max(width**3, 16)
    # splits: the portals lie in one bag, at most width + 1 of them, and
    # separate two non-empty parts.  The second input once found no split.
    rng = substream(2, "split")
    g0, td0 = generate_partial_ktree(60, 3, 0.8, rng)
    g1, _ = generate_partial_ktree(400, 2, 0.8, random.Random(1))
    cases = [(g0, td0), (g1, min_degree_decomposition(g1))]
    for trial in range(80):
        k = rng.randint(1, 4)
        g, td = generate_partial_ktree(rng.randint(k + 1, 300), k, rng.uniform(0.3, 1.0), rng,
                                       directed=trial % 2 == 1)
        cases += [(g, td), (g, min_degree_decomposition(g))]
    splits = 0
    for g, td in cases:
        nd = _normalize(td)
        if g.n <= max(nd.width ** 3, 16):
            continue
        split = find_portal_split(g, nd)
        splits += 1
        portals = split.portals
        assert any(portals <= bag for bag in nd.bags)
        assert len(portals) <= nd.width + 1
        side_a = split.side - portals
        side_b = split.complement
        assert side_a and side_b
        assert split.side.isdisjoint(side_b) and len(split.side) + len(side_b) == g.n
        for u, v, _ in g.edges:
            if u in side_a and v in side_b or u in side_b and v in side_a:
                raise AssertionError(f"edge ({u},{v}) crosses the split")
    assert splits >= 80
    # One bag holds every vertex: no side can leave a complement.
    triangle = Graph(3, [(0, 1), (1, 2), (2, 0)], undirected=True)
    with pytest.raises(PortalSplitError):
        find_portal_split(triangle, TreeDecomposition([{0, 1, 2}], []))


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
def test_tw_matches_oracle_undirected_source(variant, monkeypatch, always_split):
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
def test_undirected_graph_runs_no_backward_portal_paths(variant, monkeypatch, always_split):
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
def test_tw_base_cases_run_through_the_sweep(variant, monkeypatch, always_split):
    # A weighted k-tree with n = 200: for the directed variants both arcs of
    # every edge, weights 1..3.
    if variant == "undirected":
        g, td = generate_partial_ktree(200, 3, 1.0, substream(4, "tw-sweep"), max_weight=3)
    else:
        g, td = connected_ktree(4, variant)
    swept = []
    sweep = treewidth.sweep_ecc

    def unbounded_sweep(g, variant, cap, budget=None):
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


def deepest_node(monkeypatch):
    """Wrap _solve; the returned function runs tw_eccentricities and gives
    its eccentricities and the depth of its deepest recursion node."""
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

    def run(g, td, variant):
        deepest[0] = 0
        return tw_eccentricities(g, td, variant).ecc, deepest[0]

    return run


def test_tw_recurses_below_the_top_split(monkeypatch, always_split):
    # The sides of the top split are themselves split, and theirs again.
    run = deepest_node(monkeypatch)
    # The 4-tree is undirected for "undirected" and directed for the rest.
    cases = [(variant, connected_ktree(0, variant, n=300, k=4)) for variant in VARIANTS]
    cases.append(("min", connected_ktree(0, "min")))
    # The `ecclab tw` path without --td.
    for seed, variant, n in (3, "min", 200), (2, "undirected", 300):
        g, _ = connected_ktree(seed, variant, n=n, k=2)
        cases.append((variant, (g, min_degree_decomposition(g))))
    for variant, (g, td) in cases:
        ecc, deepest = run(g, td, variant)
        assert ecc == exact_eccentricities(g, variant).ecc
        assert deepest >= 3, (g.n, variant, deepest)


def heavy_ktree(seed, n=200):
    """A directed 3-tree with both arcs of every edge, weights 1..100: at
    n = 200 and above its sweep levels pass the memory gate of _sweep_budget."""
    rng = substream(seed, "tw-heavy")
    g, td = generate_partial_ktree(n, 3, 1.0, rng)
    return both_arcs(g, rng, 100), td


def test_tw_recurses_where_the_sweep_gives_up(monkeypatch, tw_scaling):
    # No patch: on the cycle and the cylinder the sweep passes its budget at
    # the upper nodes; with weights 1..100 the memory gate skips it there,
    # and below it declines at once (W > SWEEP_MAX_WEIGHT).  With both arcs
    # of every edge (weights 1..3), and the cylinder also undirected, they
    # run under every variant they admit.
    run = deepest_node(monkeypatch)
    rng = substream(6, "tw-recurse")
    cases = [(*tw_scaling.build("cycle", 800), variant) for variant in ("undirected", "source")]
    cases += [(*heavy_ktree(0, n=300), "min"), (*heavy_ktree(1, n=300), "roundtrip")]
    cycle, cycle_td = tw_scaling.build("cycle", 400)
    cylinder, cylinder_td = tw_scaling.build("cylinder", 400)
    for g, td in ((both_arcs(cycle, rng, 3), cycle_td), (cylinder, cylinder_td),
                  (both_arcs(cylinder, rng, 3), cylinder_td)):
        cases += [(g, td, variant) for variant in variants_of(g)]
    for g, td, variant in cases:
        ecc, deepest = run(g, td, variant)
        assert ecc == exact_eccentricities(g, variant).ecc
        assert deepest >= 3, (g.n, variant, deepest)


def test_tw_answers_ktrees_by_the_sweep_under_the_budget(monkeypatch):
    # A k-tree's diameter is small against n, so the sweep answers the top
    # node within the cost of splitting it, and nothing splits.
    def no_split(*args):
        raise AssertionError("find_portal_split called")

    monkeypatch.setattr(treewidth, "find_portal_split", no_split)
    for variant in VARIANTS:
        for seed in range(2):
            g, td = connected_ktree(seed, variant, n=300)
            assert tw_eccentricities(g, td, variant).ecc == exact_eccentricities(g, variant).ecc


def test_tw_skips_the_sweep_past_the_memory_gate(monkeypatch):
    # W + 1 = 101 levels of n masks pass the node's own footprint, so the top
    # node splits without calling the sweep.
    calls = []
    sweep = treewidth.sweep_ecc

    def counted_sweep(g, *args):
        calls.append(g)
        return sweep(g, *args)

    monkeypatch.setattr(treewidth, "sweep_ecc", counted_sweep)
    for seed, variant in enumerate(VARIANTS[1:]):
        g, td = heavy_ktree(seed)
        calls.clear()
        assert tw_eccentricities(g, td, variant).ecc == exact_eccentricities(g, variant).ecc
        assert calls and all(h is not g for h in calls)


@pytest.mark.parametrize("family", ["ktree", "cycle", "cylinder"])
def test_tw_scaling_tool_runs(family):
    proc = subprocess.run([sys.executable, str(TOOLS / "tw_scaling.py"), "--family", family,
                           "--n", "200"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert re.fullmatch(rf"# Python \d+\.\d+\.\d+\S*, \d+ CPUs, family {family}", lines[0]), lines[0]
    assert len(lines) == 6
    # The td row times reading and validating the decomposition; it has no
    # eccentricities to digest.
    assert re.fullmatch(r"\s+200 td\s+\d+\.\d\d\s+\d+\.\d  -", lines[2]), lines[2]


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


# sha256 over tw_eccentricities on seeded partial k-trees (directed and
# undirected, the generator's and the min-degree decomposition, every
# variant), exact_eccentricities on seeded graphs with zero-weight arcs,
# truncated_shortest_paths on seeded positive-weight graphs (both directions,
# k = 0..n+1) and approx_source_radius on seeded positive-weight digraphs,
# computed before these paths shared one Dijkstra, one pair-distance
# definition and one function per tw side, so that refactor must leave every
# output unchanged.
PATHS_DIGEST = "0096df3e6bd86b3d467cefe9cf1d22d19a0b3a5a848ae0787da27df1cf0a2f0e"


def test_solver_and_search_outputs_pinned():
    digest = hashlib.sha256()
    rng = substream(16, "pin")
    for trial in range(24):
        k = rng.randint(1, 3)
        g, gen_td = generate_partial_ktree(rng.randint(k + 1, 70), k, rng.uniform(0.3, 1.0), rng,
                                           directed=trial % 2 == 1, max_weight=rng.choice((1, 3)))
        for td in (gen_td, min_degree_decomposition(g)):
            for variant in variants_of(g):
                digest.update(tw_eccentricities(g, td, variant).to_json().encode())
    for _ in range(150):
        g = mixed_graph(rng, 20, 3)
        for variant in variants_of(g):
            digest.update(exact_eccentricities(g, variant).to_json().encode())
    for trial in range(150):
        n = rng.randint(1, 20)
        make = random_undirected if trial % 3 == 0 else random_digraph
        g = make(rng, n, rng.randint(0, 3 * n), max_weight=rng.choice((1, 4)))
        for source in range(n):
            for direction in (FORWARD, BACKWARD):
                for k in range(n + 2):
                    digest.update(repr(truncated_shortest_paths(g, source, k, direction)).encode())
    for trial in range(60):
        n = rng.randint(1, 60)
        g = random_digraph(rng, n, rng.randint(0, 4 * n), max_weight=rng.choice((1, 5)))
        res = approx_source_radius(g, substream(trial, "pin:approx"))
        digest.update(repr((res.estimate, res.witness)).encode())
    assert digest.hexdigest() == PATHS_DIGEST
