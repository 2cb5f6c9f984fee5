import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecclab.graph import INF
from ecclab.rangemax import (
    RangeMaxIndex,
    ThreeLayerInstance,
    three_layer_brute,
    three_layer_farthest,
)


def brute_box_max(points, box):
    best = None
    for coords, value, payload in points:
        if all(lo <= c <= hi for c, (lo, hi) in zip(coords, box)):
            cand = (value, payload)
            if best is None or cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                best = cand
    return best


def random_workload(rng, d, npts):
    points = [
        (tuple(rng.randint(0, 9) for _ in range(d)), rng.randint(-5, 20), i)
        for i in range(npts)
    ]
    lo = [rng.randint(0, 9) for _ in range(d)]
    box = [(l, l + rng.randint(0, 6)) for l in lo]
    return points, box


def test_range_max_matches_scan():
    rng = random.Random(3)
    for d in (1, 2, 3, 4):
        for _ in range(60):
            points, box = random_workload(rng, d, rng.randint(0, 25))
            idx = RangeMaxIndex(d, points)
            assert idx.query(box) == brute_box_max(points, box)


def test_range_max_empty_and_zero_dims():
    idx = RangeMaxIndex(2, [])
    assert idx.query([(0, 5), (0, 5)]) is None
    idx0 = RangeMaxIndex(0, [((), 7, "p"), ((), 9, "q")])
    assert idx0.query([]) == (9, "q")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(1, 15))
def test_range_max_hypothesis(seed, d, npts):
    rng = random.Random(seed)
    points, box = random_workload(rng, d, npts)
    idx = RangeMaxIndex(d, points)
    assert idx.query(box) == brute_box_max(points, box)


def entry_values():
    return [0, 1, 2, INF]


def test_three_layer_exhaustive_tiny():
    # Every grid with |A|, |B|, |C| <= 2 over entries {0, 1, 2, INF}.
    vals = entry_values()
    for na, nb, nc in itertools.product((1, 2), repeat=3):
        ab_rows = list(itertools.product(vals, repeat=nb))
        bc_rows = list(itertools.product(vals, repeat=nc))
        for d_ab in itertools.product(ab_rows, repeat=na):
            for d_bc in itertools.product(bc_rows, repeat=nb):
                inst = ThreeLayerInstance([list(r) for r in d_ab], [list(r) for r in d_bc])
                want = three_layer_brute(inst)
                got = three_layer_farthest(inst)
                assert got == want


def shifted_copies(rng, count, bases):
    """count vectors, each a random base shape plus a random offset."""
    out = []
    for _ in range(count):
        offset = rng.randint(0, 6)
        out.append([x + offset for x in rng.choice(bases)])
    return out


def test_three_layer_random_with_infinities():
    rng = random.Random(9)
    insts = []
    for _ in range(80):
        na, nb, nc = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        def entry():
            return INF if rng.random() < 0.25 else rng.randint(0, 8)
        insts.append(ThreeLayerInstance(
            [[entry() for _ in range(nb)] for _ in range(na)],
            [[entry() for _ in range(nc)] for _ in range(nb)],
        ))
    # Rows and columns that are shifted copies of a few base shapes, so the
    # shape grouping merges many of them; nb reaches 9, the roundtrip middle
    # layer at 3 portals.
    for _ in range(120):
        na, nb, nc = rng.randint(1, 12), rng.randint(1, 9), rng.randint(1, 12)
        def bases(length):
            return [[INF if rng.random() < 0.2 else rng.randint(0, 4) for _ in range(length)]
                    for _ in range(rng.randint(1, 3))]
        cols = shifted_copies(rng, nc, bases(nb))
        insts.append(ThreeLayerInstance(shifted_copies(rng, na, bases(nb)), [list(r) for r in zip(*cols)]))
    for inst in insts:
        assert three_layer_farthest(inst) == three_layer_brute(inst)


def test_three_layer_farthest_refuses_an_empty_c_layer():
    with pytest.raises(ValueError, match="^empty C layer$"):
        three_layer_farthest(ThreeLayerInstance([[1]], []))
