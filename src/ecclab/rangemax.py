"""Static d-dimensional orthogonal range maximum queries, and the exact
three-layered farthest-vertex computation used by the treewidth solver.

RangeMaxIndex is a standalone structure: a classic layered range tree, a
balanced hierarchy over the points sorted by the current coordinate, where
every canonical node owns an index over the remaining coordinates (or just
the running maximum at the last level).  Queries decompose a box side into
O(log n) canonical nodes.  three_layer_farthest does not use it: at the
solver's few portals a loop over distinct distance shapes is cheaper.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import add

from .graph import INF


class _Node:
    __slots__ = ("lo", "hi", "left", "right", "sub", "best")

    def __init__(self):
        self.lo = 0
        self.hi = 0
        self.left = None
        self.right = None
        self.sub = None
        self.best = None


def _better(a, b):
    """Maximum value; ties prefer the smaller payload."""
    if a is None:
        return b
    if b is None:
        return a
    if a[0] != b[0]:
        return a if a[0] > b[0] else b
    return a if a[1] <= b[1] else b


class RangeMaxIndex:
    """Points are (coords, value, payload); query returns the (value, payload)
    with the maximum value inside a closed box, or None."""

    def __init__(self, dims, points):
        self.dims = dims
        self.points = list(points)
        for coords, _, _ in self.points:
            if len(coords) != dims:
                raise ValueError("point dimension mismatch")
        if dims == 0:
            self._global = None
            for _, value, payload in self.points:
                self._global = _better(self._global, (value, payload))
            self.root = None
            self.coords = None
        else:
            pts = sorted(self.points, key=lambda p: p[0][0])
            self.coords = [p[0][0] for p in pts]
            self.root = self._build(pts, 0, len(pts)) if pts else None

    def _build(self, pts, lo, hi):
        node = _Node()
        node.lo, node.hi = lo, hi
        slice_ = pts[lo:hi]
        if self.dims == 1:
            best = None
            for _, value, payload in slice_:
                best = _better(best, (value, payload))
            node.best = best
        else:
            node.sub = RangeMaxIndex(self.dims - 1, [(c[1:], v, p) for c, v, p in slice_])
        if hi - lo > 1:
            mid = (lo + hi) // 2
            node.left = self._build(pts, lo, mid)
            node.right = self._build(pts, mid, hi)
        return node

    def query(self, box):
        """box is a list of (lo, hi) closed bounds, one per dimension."""
        if len(box) != self.dims:
            raise ValueError("box dimension mismatch")
        if self.dims == 0:
            return self._global
        if self.root is None:
            return None
        lo, hi = box[0]
        a = bisect.bisect_left(self.coords, lo)
        b = bisect.bisect_right(self.coords, hi)
        if a >= b:
            return None
        return self._query(self.root, a, b, box)

    def _query(self, node, a, b, box):
        if node is None or a >= node.hi or b <= node.lo:
            return None
        if a <= node.lo and node.hi <= b:
            if self.dims == 1:
                return node.best
            return node.sub.query(box[1:])
        if node.left is None:
            # Leaf not fully covered can only happen at size-1 nodes.
            return None
        return _better(
            self._query(node.left, a, b, box),
            self._query(node.right, a, b, box),
        )


@dataclass
class ThreeLayerInstance:
    """Distance grids of a layered graph A -> B -> C.

    d_ab[a][b] and d_bc[b][c] are nonnegative ints or INF.  The target is,
    for every a, max over c of min over b of d_ab[a][b] + d_bc[b][c].
    """

    d_ab: list
    d_bc: list

    @property
    def na(self):
        return len(self.d_ab)

    @property
    def nb(self):
        return len(self.d_bc)

    @property
    def nc(self):
        return len(self.d_bc[0]) if self.d_bc else 0


def three_layer_brute(inst):
    """Reference triple loop; returns the target value per a."""
    out = []
    for row in inst.d_ab:
        best = -1
        for c in range(inst.nc):
            m = INF
            for b in range(inst.nb):
                m = min(m, row[b] + inst.d_bc[b][c])
            best = max(best, m)
        out.append(best)
    return out


def _offset_shape(vec):
    """Split a distance vector into its minimum (0 when every entry is INF)
    and its shape, the vector minus that minimum."""
    low = min(vec, default=INF)
    if low == INF:
        low = 0
    return low, tuple(x - low for x in vec)


def three_layer_farthest(inst):
    """For every a, the distance to the farthest c through the middle layer.

    Exact, including infinite entries, with the same values as
    three_layer_brute.  Each row of d_ab and column of d_bc is split into an
    offset and a shape (_offset_shape).  Distances to a small middle layer
    take few shapes, so the min-plus loop runs once per distinct (row shape,
    column shape) pair, and the offsets are added back.
    """
    if inst.nc == 0:
        raise ValueError("empty C layer")
    # Per column shape, its largest offset: the only one that can be farthest.
    groups = {}
    for col in zip(*inst.d_bc):
        off, shape = _offset_shape(col)
        groups[shape] = max(off, groups.get(shape, off))
    # Per row shape, the value minus the row's offset.
    best = {}
    out = []
    for row in inst.d_ab:
        off, shape = _offset_shape(row)
        if shape not in best:
            best[shape] = max(min(map(add, shape, col_shape), default=INF) + col_off
                              for col_shape, col_off in groups.items())
        out.append(best[shape] + off)
    return out
