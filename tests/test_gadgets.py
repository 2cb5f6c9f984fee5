import hashlib
import itertools
import json
import random
from argparse import Namespace

import pytest

from ecclab.cli import GADGET_KINDS
from ecclab.gadgets import (
    GadgetError,
    GraphBuilder,
    _tripartite,
    build_dg,
    gadget_all_eccentricities,
    gadget_max_radius,
    gadget_median,
    gadget_min_diameter_dag,
    gadget_min_diameter_weighted,
    gadget_min_radius_dag,
    gadget_radius_23,
    gadget_roundtrip_diameter,
    gadget_roundtrip_radius,
    gadget_source_radius,
    gadget_undirected_diameter_23,
    heap_descendant,
    reduce_hse,
)
from ecclab.graph import INF, topological_order, write_graph
from ecclab.oracle import all_pairs, exact_eccentricities, exact_median
from ecclab.seeds import substream
from ecclab.setsystem import HSE, OV, SetSystemInstance, random_instance

HSE_GADGETS = [
    ("radius-23", lambda inst, rng: gadget_radius_23(inst)),
    ("radius-23-sparse", lambda inst, rng: gadget_radius_23(inst, sparsify=True)),
    ("source-radius", lambda inst, rng: gadget_source_radius(inst, rng.choice((2, 3, 4)))),
    ("max-radius", lambda inst, rng: gadget_max_radius(inst, rng.choice((2, 3, 4)))),
    ("roundtrip-radius", lambda inst, rng: gadget_roundtrip_radius(inst)),
    ("min-radius-dag", lambda inst, rng: gadget_min_radius_dag(inst, rng.choice((2, 3, 4)))),
    ("median", lambda inst, rng: gadget_median(inst)),
]

OV_GADGETS = [
    ("min-diameter-dag", lambda inst, rng: gadget_min_diameter_dag(inst)),
    ("min-diameter-weighted", lambda inst, rng: gadget_min_diameter_weighted(inst, 2 * rng.choice((1, 2, 3)))),
    ("undirected-diameter-23", lambda inst, rng: gadget_undirected_diameter_23(inst)),
    ("roundtrip-diameter", lambda inst, rng: gadget_roundtrip_diameter(inst)),
    ("all-eccentricities", lambda inst, rng: gadget_all_eccentricities(inst)),
]

ALL_GADGETS = [(name, fn, HSE) for name, fn in HSE_GADGETS] + [
    (name, fn, OV) for name, fn in OV_GADGETS
]


def oracle_check(out):
    """Assert the gadget's promise against the brute-force oracle."""
    if out.quantity == "median":
        _, value = exact_median(out.graph)
    else:
        report = exact_eccentricities(out.graph, out.variant)
        if out.quantity == "radius":
            value = report.radius
        elif out.quantity == "diameter":
            value = report.diameter
        else:
            expected = out.extras["expected_a_ecc"]
            a_ids = out.witness_map["a"]
            got = [report.ecc[v] for v in a_ids]
            assert got == expected
            hub = out.extras["hub"]
            assert report.ecc[hub] == out.extras["hub_ecc"]
            return
    rel, target = out.expected()
    if rel == "eq":
        assert value == target, (out.quantity, out.answer, value, target)
    else:
        assert value >= target, (out.quantity, out.answer, value, target)


def tiny_instances(mode, max_d=2, max_n=2):
    for d in range(0, max_d + 1):
        for na in range(0, max_n + 1):
            for A in itertools.combinations(range(1 << d), na):
                for nb in range(0, max_n + 1):
                    for B in itertools.combinations(range(1 << d), nb):
                        yield SetSystemInstance(d, list(A), list(B), mode)


@pytest.mark.parametrize("name,build,mode", ALL_GADGETS, ids=[g[0] for g in ALL_GADGETS])
def test_gadget_promise_exhaustive_tiny(name, build, mode):
    rng = random.Random(0)
    for inst in tiny_instances(mode):
        try:
            out = build(inst, rng)
        except GadgetError:
            continue
        oracle_check(out)


@pytest.mark.parametrize("name,build,mode", ALL_GADGETS, ids=[g[0] for g in ALL_GADGETS])
def test_gadget_promise_random(name, build, mode):
    rng = substream(17, f"gadget:{name}")
    checked = 0
    while checked < 50:
        na, nb, d = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        inst = random_instance(na, nb, d, mode, rng)
        try:
            out = build(inst, rng)
        except GadgetError:
            continue
        oracle_check(out)
        checked += 1


@pytest.mark.parametrize("name,build,mode", ALL_GADGETS, ids=[g[0] for g in ALL_GADGETS])
def test_gadget_dag_flag_and_sidecar(name, build, mode):
    rng = substream(23, f"flags:{name}")
    for _ in range(10):
        inst = random_instance(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4), mode, rng)
        try:
            out = build(inst, rng)
        except GadgetError:
            continue
        if out.is_dag:
            assert topological_order(out.graph) is not None
        payload = json.loads(out.to_sidecar_json())
        assert payload["variant"] == out.variant
        assert payload["yes_value"] == out.yes_value
        assert payload["no_bound"] == out.no_bound
        assert payload["is_dag"] == out.is_dag


def validate_path_decomposition(g, td):
    td.validate(g)
    # A path decomposition: its bag tree is a path.
    deg = [0] * len(td.bags)
    for i, j in td.tree:
        deg[i] += 1
        deg[j] += 1
    assert all(d <= 2 for d in deg)


def test_radius_23_pathwidth_witness():
    rng = substream(31, "pw23")
    for _ in range(15):
        inst = random_instance(rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 4), HSE, rng)
        out = gadget_radius_23(inst)
        if out.pathwidth_witness is None:
            continue
        validate_path_decomposition(out.graph, out.pathwidth_witness)
        assert out.pathwidth_witness.width <= inst.d + 3


def test_roundtrip_radius_pathwidth_witness_linear_in_universe():
    rng = substream(37, "pwrt")
    for _ in range(10):
        inst = random_instance(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4), HSE, rng)
        out = gadget_roundtrip_radius(inst)
        if out.pathwidth_witness is None:
            continue
        validate_path_decomposition(out.graph, out.pathwidth_witness)
        assert out.pathwidth_witness.width <= 20 * inst.d + 1


def test_radius_23_values():
    yes = SetSystemInstance.from_sets([[0, 1]], [[0], [1]], 2, HSE)
    out = gadget_radius_23(yes)
    assert out.answer and exact_eccentricities(out.graph, out.variant).radius == 2
    no = SetSystemInstance.from_sets([[0]], [[1]], 2, HSE)
    out = gadget_radius_23(no)
    assert not out.answer and exact_eccentricities(out.graph, out.variant).radius >= 3


def test_roundtrip_radius_values():
    yes = SetSystemInstance.from_sets([[0, 1]], [[0], [1]], 2, HSE)
    out = gadget_roundtrip_radius(yes)
    assert out.yes_value == 4 and out.no_bound == 8
    assert exact_eccentricities(out.graph, "roundtrip").radius == 4
    no = SetSystemInstance.from_sets([[0]], [[1]], 2, HSE)
    out = gadget_roundtrip_radius(no)
    assert exact_eccentricities(out.graph, "roundtrip").radius >= 8


def test_source_and_max_radius_gap():
    for t in (2, 3, 4):
        yes = SetSystemInstance.from_sets([[0, 1]], [[0], [1]], 2, HSE)
        no = SetSystemInstance.from_sets([[0]], [[1]], 2, HSE)
        for build, variant in ((gadget_source_radius, "source"), (gadget_max_radius, "max")):
            out = build(yes, t)
            assert exact_eccentricities(out.graph, variant).radius == t + 1
            out = build(no, t)
            assert exact_eccentricities(out.graph, variant).radius >= 2 * t


def test_min_radius_dag_gap():
    for t in (2, 3):
        yes = SetSystemInstance.from_sets([[0, 1]], [[0], [1]], 2, HSE)
        out = gadget_min_radius_dag(yes, t)
        assert exact_eccentricities(out.graph, "min").radius == t + 1
        no = SetSystemInstance.from_sets([[0]], [[1]], 2, HSE)
        out = gadget_min_radius_dag(no, t)
        assert exact_eccentricities(out.graph, "min").radius >= 2 * t


def test_min_diameter_dag_two_vs_three():
    pair = SetSystemInstance.from_sets([[0]], [[1]], 2, OV)  # orthogonal pair exists
    out = gadget_min_diameter_dag(pair)
    assert exact_eccentricities(out.graph, "min").diameter >= 3
    nopair = SetSystemInstance.from_sets([[0]], [[0]], 1, OV)
    out = gadget_min_diameter_dag(nopair)
    assert exact_eccentricities(out.graph, "min").diameter == 2


def test_all_eccentricities_keyed_to_orthogonality():
    inst = SetSystemInstance.from_sets([[0], [0, 1]], [[1], [0, 1]], 2, OV)
    out = gadget_all_eccentricities(inst)
    report = exact_eccentricities(out.graph, "undirected")
    a_ids = out.witness_map["a"]
    assert report.ecc[a_ids[0]] == 5  # {0} is orthogonal to {1}
    assert report.ecc[a_ids[1]] == 3  # {0,1} hits every b
    assert report.ecc[out.witness_map["x"]] == 4


def test_all_eccentricities_requires_nonempty_sides():
    with pytest.raises(GadgetError):
        gadget_all_eccentricities(SetSystemInstance(2, [], [1], OV))


def test_median_exact_value():
    rng = substream(41, "median")
    for _ in range(20):
        inst = random_instance(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4), HSE, rng)
        out = gadget_median(inst)
        _, total = exact_median(out.graph)
        if out.answer:
            assert total == out.yes_value
        else:
            assert total >= out.no_bound


def test_reduce_hse_preserves_answer():
    rng = random.Random(2)
    from ecclab.setsystem import solve_set_system

    for _ in range(50):
        inst = random_instance(rng.randint(0, 4), rng.randint(0, 4), rng.randint(1, 4), HSE, rng)
        masks_a, kept = reduce_hse(inst)
        assert masks_a == [inst.list_a[i] for i in kept]
        reduced = SetSystemInstance(inst.d, masks_a, inst.list_b, HSE)
        assert solve_set_system(reduced)[0] == solve_set_system(inst)[0]
        # Survivors are pairwise incomparable.
        for i, a in enumerate(masks_a):
            for j, a2 in enumerate(masks_a):
                if i != j:
                    assert a | a2 != a2


def test_tripartite_builder_random():
    rng = random.Random(3)
    seen = set()
    for trial in range(300):
        d = 1 + trial % 16
        masks_a, masks_b = (
            [rng.getrandbits(d) & rng.getrandbits(d) for _ in range(rng.randint(0, 6))]
            for _ in "ab"
        )
        if trial % 2:
            positions = sorted(rng.sample(range(d), rng.randint(0, d - 1)))
        else:
            positions = list(range(d))
        w = rng.randint(1, 4)
        b = GraphBuilder()
        a_ids, mid_ids, b_ids = _tripartite(b, masks_a, masks_b, positions, "m", w)
        labels = ([("a", i) for i in range(len(masks_a))] + [("m", j) for j in positions]
                  + [("b", i) for i in range(len(masks_b))])
        assert list(b.index) == labels
        assert a_ids + mid_ids + b_ids == list(range(len(labels)))
        mid = dict(zip(positions, mid_ids))
        expected = [(a_ids[i], mid[j], w)
                    for i, m in enumerate(masks_a) for j in positions if m & (1 << j)]
        expected += [(mid[j], b_ids[i], w)
                     for i, m in enumerate(masks_b) for j in positions if m & (1 << j)]
        assert sorted(b.edges) == sorted(expected)
        used = 0
        for m in masks_a + masks_b:
            used |= m
        if d == 16:
            seen.add("d = 16")
        if 0 in masks_a + masks_b:
            seen.add("empty set")
        if used != (1 << d) - 1:
            seen.add("element in no set")
        if len(positions) < d:
            seen.add("strict subset")
        if w > 1:
            seen.add("w > 1")
    assert seen == {"d = 16", "empty set", "element in no set", "strict subset", "w > 1"}


@pytest.mark.parametrize("size", [2, 4, 8, 16, 32, 64])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_dg_pair_distances(size, t):
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


def test_dg_rejects_bad_parameters():
    with pytest.raises(GadgetError):
        build_dg(0, 1)
    with pytest.raises(GadgetError):
        build_dg(4, 0)


# sha256 over every gadget kind built as `ecclab gen` builds it, plus build_dg.
# It pins the exact bytes of the graphs, sidecars and expected() values, so a
# refactor of the constructors must leave every output unchanged.
GADGET_DIGEST = "4b3397df864ef06fcdab01406dfea0325a8477bd964ccdb06d97626d40cc4076"


def test_gadget_outputs_pinned():
    digest = hashlib.sha256()
    sizes = [(0, 0, 0), (0, 3, 2), (3, 0, 2), (2, 2, 0), (1, 1, 1), (3, 2, 3), (4, 4, 3), (2, 5, 4)]
    for kind, (mode, build) in GADGET_KINDS.items():
        rng = substream(5, f"pin:{kind}")
        for t in (None, 2, 3, 4):
            for sparsify in (False, True):
                for na, nb, d in sizes + [tuple(rng.randint(0, 5) for _ in "abd") for _ in range(12)]:
                    inst = random_instance(na, nb, d, mode, rng, density=rng.choice((0.3, 0.5, 0.8)))
                    try:
                        out = build(inst, Namespace(t=t, sparsify=sparsify))
                    except GadgetError as exc:
                        digest.update(f"error {exc}\n".encode())
                        continue
                    digest.update(write_graph(out.graph).encode())
                    digest.update(out.to_sidecar_json().encode())
                    digest.update(repr(out.expected()).encode())
    for size in range(1, 9):
        for t in (1, 2, 3):
            g, info = build_dg(size, t)
            digest.update(write_graph(g).encode())
            digest.update(json.dumps(info, sort_keys=True).encode())
    assert digest.hexdigest() == GADGET_DIGEST
