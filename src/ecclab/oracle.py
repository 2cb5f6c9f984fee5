"""Exact computations: all-pairs distances, eccentricities under all five
distance semantics, and the median.

Two exact paths compute them.

The matrix path is the trusted reference the rest of the package is tested
against, so it stays simple: n single-source runs give the distance matrix,
then each vertex's eccentricity is one reduction of its row (source,
undirected) or of its row paired with its column (max, min, roundtrip)
under the variant's pair combiner, done by the builtins ``max``, ``map`` and
``sum`` with no Python-level loop per pair.

The level sweep is the fast path on graphs whose weighted diameter is small
against n.  It grows, one distance level at a time, a bitmask per vertex, at
once for all vertices and in O(m) ORs of bitmasks per level, as in the
bit-parallel BFS of Akiba, Iwata and Yoshida (SIGMOD 2013).  One sweep,
``sweep_source_ecc``, gives the eccentricities: seeded with one bit per
source, entry v of level t holds the sources within pair distance t of v
(the sweep over the reversed arcs, joined for max by AND and for min by OR
with the one over the forward arcs), and the eccentricity of source u is
the first level at which bit u is in every joined mask.  ``sweep_ecc`` and
``sweep_eccentricities`` seed it at every vertex; ``sampled_ecc`` seeds it
at the samples of ``approx`` and falls back to ``exact_source_ecc``, the
row-by-row reference.  ``sweep_median`` runs the sweep over the forward arcs
from every vertex and reads rows: F_t[u], the v with d(u -> v) <= t, and
the distance sum of u is the total over t of n - popcount(F_t[u]).

The sweep holds the last W + 1 levels, where W is the largest arc weight:
(W + 1) n k / 8 bytes for k sources, twice that for max and min.  It
returns None, for the caller to fall back to a matrix or row-by-row path,
on ``roundtrip`` (not a threshold of the two one-way masks), when W exceeds
``SWEEP_MAX_WEIGHT``, and once its work passes a budget set against the
reference's (see ``sweep_source_ecc``).  ``ecclab exact``, ``ecclab verify``
and the treewidth solver's base cases try it first.
"""

from __future__ import annotations

import json
import operator
from collections import deque
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import and_, or_

from .graph import (
    BACKWARD,
    FORWARD,
    INF,
    Graph,
    condense_scc,
    shortest_paths,
    topological_order,
)

UNDIRECTED = "undirected"
SOURCE = "source"
MAX = "max"
MIN = "min"
ROUNDTRIP = "roundtrip"

VARIANTS = (UNDIRECTED, SOURCE, MAX, MIN, ROUNDTRIP)

DEFAULT_CAP = 5000

# Largest arc weight the level sweep takes, for its memory: it holds W + 1
# levels of n^2 bits per direction, 2 (W + 1) bits per vertex pair for max
# and min, where the matrix path holds one 64-bit reference per pair.  On a
# directed 3-tree of 3,000 vertices under max, the sweep peaked at 51 MB for
# W = 16 and 92 MB for W = 31, the matrix path at 69 MB.  Time is bounded
# separately, by the work budget of ``sweep_source_ecc``.
SWEEP_MAX_WEIGHT = 16


class CapacityError(RuntimeError):
    """Raised when an exact computation would exceed the configured cap."""


class VariantError(ValueError):
    """Raised for an unknown variant or a variant/graph mismatch."""


def _forward(d_uv, d_vu):
    return d_uv


# Each variant's pair distance from u to v as a function of d(u -> v) and
# d(v -> u), in that order.  Every combiner maps (0, 0) to 0, so a vertex's
# own diagonal entry never raises its eccentricity.
PAIR_COMBINERS = {
    UNDIRECTED: _forward,
    SOURCE: _forward,
    MAX: max,
    MIN: min,
    ROUNDTRIP: operator.add,
}


def pair_distance(variant, d_uv, d_vu):
    """Combine the two one-way distances into the variant's pair distance."""
    if variant not in PAIR_COMBINERS:
        raise VariantError(f"unknown variant {variant!r}")
    return PAIR_COMBINERS[variant](d_uv, d_vu)


def pair_row(variant, out_row, in_row):
    """The variant's pair distances from a vertex u to every v, lazily, given
    out_row[v] = d(u -> v) and in_row[v] = d(v -> u)."""
    op = PAIR_COMBINERS[variant]
    return out_row if op is _forward else map(op, out_row, in_row)


def check_variant(g, variant):
    if variant not in VARIANTS:
        raise VariantError(f"unknown variant {variant!r}")
    if variant == UNDIRECTED and not g.undirected:
        raise VariantError("variant 'undirected' requires an undirected graph")


def _check_cap(g, cap):
    if cap is not None and g.n > cap:
        raise CapacityError(f"oracle capacity cap {cap} exceeded (n={g.n})")


def all_pairs(g, cap=DEFAULT_CAP):
    """Forward distance matrix: row u holds d(u -> v) for every v."""
    _check_cap(g, cap)
    return [shortest_paths(g, u, FORWARD) for u in range(g.n)]


@dataclass
class EccentricityReport:
    variant: str
    ecc: list
    radius: "int | float"
    diameter: "int | float"
    center: int
    witness: "tuple[int, int] | None"

    def to_json(self):
        def enc(x):
            return "inf" if x == INF else x

        payload = {
            "variant": self.variant,
            "radius": enc(self.radius),
            "diameter": enc(self.diameter),
            "center": self.center,
            "witness": list(self.witness) if self.witness is not None else None,
            "ecc": [enc(e) for e in self.ecc],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_tsv(self):
        lines = ["vertex\tecc"]
        for v, e in enumerate(self.ecc):
            lines.append(f"{v}\t{'inf' if e == INF else e}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_json(text):
        def dec(x):
            return INF if x == "inf" else x

        payload = json.loads(text)
        return EccentricityReport(
            variant=payload["variant"],
            ecc=[dec(e) for e in payload["ecc"]],
            radius=dec(payload["radius"]),
            diameter=dec(payload["diameter"]),
            center=payload["center"],
            witness=tuple(payload["witness"]) if payload["witness"] else None,
        )


def report_from_ecc(variant, ecc, witness=None):
    """Radius/diameter/center bookkeeping shared by the oracle and the
    treewidth solver.  Ties break toward the smallest vertex id."""
    if not ecc:
        raise ValueError("empty graph has no eccentricities")
    radius = min(ecc)
    diameter = max(ecc)
    center = ecc.index(radius)
    return EccentricityReport(variant, list(ecc), radius, diameter, center, witness)


def _report_with_witness(variant, ecc, rows):
    """report_from_ecc with the witness: the lexicographically smallest pair
    (u, v), u != v, attaining the diameter.  rows(u) gives u's out-row
    d(u -> .) and in-row d(. -> u)."""
    report = report_from_ecc(variant, ecc)
    if len(ecc) > 1:
        # A pair attaining the diameter starts at a vertex whose eccentricity
        # is the diameter, so the first such vertex holds the smallest pair.
        diameter = report.diameter
        u = ecc.index(diameter)
        row = list(pair_row(variant, *rows(u)))
        v = row.index(diameter)
        if v == u:
            v = row.index(diameter, u + 1)
        report.witness = (u, v)
    return report


def exact_eccentricities(g, variant, cap=DEFAULT_CAP):
    """Eccentricities of every vertex under the chosen variant, exactly.

    ecc[c] is the maximum over v != c of the variant's pair distance from c;
    a single isolated vertex has eccentricity 0.  The witness is the
    lexicographically smallest pair (u, v), u != v, attaining the diameter.
    """
    check_variant(g, variant)
    mat = all_pairs(g, cap)
    op = PAIR_COMBINERS[variant]
    if op is _forward:
        ecc = [max(row) for row in mat]
    else:
        # zip(*mat) yields the columns one at a time: column u holds d(v -> u).
        ecc = [max(map(op, row, col)) for row, col in zip(mat, zip(*mat))]
    return _report_with_witness(variant, ecc, lambda u: (mat[u], [r[u] for r in mat]))


def exact_median(g, cap=DEFAULT_CAP):
    """The vertex minimizing the sum of forward distances to all others.

    Returns (vertex, total).  The total is INF when no vertex reaches all
    others; ties break toward the smallest vertex id.
    """
    sums = [sum(row) for row in all_pairs(g, cap)]
    best = min(sums, default=INF)
    return (sums.index(best) if sums else 0), best


def _zero_groups(n, adj):
    """The closure of a level over the zero-weight arcs of adj, as steps
    (members, successors) in the order they run: one per strongly connected
    component of the zero arcs that has a zero arc leaving it or more than
    one member, sinks first.  successors holds one member of each component
    a zero arc leads to."""
    zero = [(u, x, 0) for u in range(n) for x, w in adj[u] if w == 0]
    if not zero:
        return []
    comp, dag = condense_scc(Graph(n, zero))
    members = [[] for _ in range(dag.n)]
    for v, c in enumerate(comp):
        members[c].append(v)
    steps = []
    for c in reversed(topological_order(dag)):
        succ = [members[d][0] for d, _ in dag.adj_out[c]]
        if succ or len(members[c]) > 1:
            steps.append((members[c], succ))
    return steps


def _levels(n, adj, weight, start=None):
    """Yield (F_t, settled) for t = 0, 1, 2, ...

    F_0 is ``start`` closed over the zero-weight arcs, and F_t[u] =
    F_{t-1}[u] | OR over arcs (u -> x, w) of F_{t-w}[x], closed the same
    way.  With the default start, F_0[v] = 1 << v, F_t[u] is the bitmask of
    the v with d(u -> v) <= t along the arcs of adj (bit v set).  A mask
    equal to the OR of the start masks is full and takes no more ORs.
    settled is true once ``weight`` levels in a row brought no change: a
    level reads only the last ``weight`` ones, so no later level changes
    either, and every later item is the same.  Stopping at the first
    unchanged level would be wrong when an arc of weight w > 1 has yet to
    bring in F_{t-w}.
    """
    if start is None:
        start = [1 << u for u in range(n)]
    full = reduce(or_, start, 0)
    # Arc (u -> x, w > 0) reads entry x of F_{t-w}, which sits at
    # (w - 1) n + x in the last `weight` levels laid end to end.
    reads = [[(w - 1) * n + x for x, w in adj[u] if w] for u in range(n)]
    zero = _zero_groups(n, adj)

    def close(level):
        get = level.__getitem__
        for members, succ in zero:
            acc = reduce(or_, map(get, succ), reduce(or_, map(get, members)))
            for v in members:
                level[v] = acc
        return level

    level = close(list(start))
    past = deque([level] + [[0] * n] * (weight - 1), maxlen=weight)
    still = 0
    while True:
        yield level, still >= weight
        if still >= weight:
            continue
        get = list(chain.from_iterable(past)).__getitem__
        new = close([
            mask if mask == full else reduce(or_, map(get, r), mask)
            for r, mask in zip(reads, level)
        ])
        still = still + 1 if new == level else 0
        past.appendleft(new)
        level = new


def _sweep_setup(g, budget, rows):
    """(W, work budget) for a sweep that stands in for ``rows`` single-source
    runs, or None when W exceeds SWEEP_MAX_WEIGHT."""
    weight = max(1, g.max_weight)
    if weight > SWEEP_MAX_WEIGHT:
        return None
    return weight, rows * g.n // 4 if budget is None else budget


def sweep_ecc(g, variant, cap=DEFAULT_CAP, budget=None):
    """The eccentricities of ``exact_eccentricities`` from the level sweep,
    or None where ``sweep_source_ecc`` seeded at every vertex is None."""
    check_variant(g, variant)
    _check_cap(g, cap)
    swept = sweep_source_ecc(g, variant, range(g.n), budget)
    return None if swept is None else swept[0]


def sweep_eccentricities(g, variant, cap=DEFAULT_CAP, budget=None):
    """The report of ``exact_eccentricities``, witness included, from
    ``sweep_ecc``, or None where that is None.  The witness comes from one
    shortest-path run each way from the first vertex whose eccentricity is
    the diameter."""
    ecc = sweep_ecc(g, variant, cap, budget)
    if ecc is None:
        return None
    return _report_with_witness(variant, ecc, lambda u: _rows(g, variant, u))


def _rows(g, variant, u):
    """u's out-row d(u -> .) and in-row d(. -> u) by one shortest-path run
    each way.  Source reads only the out-row; on an undirected graph the
    in-row is the out-row."""
    out_row = shortest_paths(g, u, FORWARD)
    if variant == SOURCE or g.undirected:
        return out_row, out_row
    return out_row, shortest_paths(g, u, BACKWARD)


def exact_source_ecc(g, variant, sources):
    """(ecc, near) for a list of distinct source vertices, one shortest-path
    run each way per source: ecc[i] is the eccentricity of sources[i] under
    the variant, and near[v] the least pair distance from a source to v (INF
    for every v when there is no source)."""
    check_variant(g, variant)
    ecc = []
    near = [INF] * g.n
    for s in sources:
        row = list(pair_row(variant, *_rows(g, variant, s)))
        ecc.append(max(row))
        # A comparison per entry costs a third of a call to the builtin min.
        near = [d if d < e else e for d, e in zip(row, near)]
    return ecc, near


def sweep_source_ecc(g, variant, sources, budget=None):
    """``exact_source_ecc`` from one level sweep seeded at the sources, or
    None: for ``roundtrip``, when the largest weight exceeds
    SWEEP_MAX_WEIGHT, or once the sweep's work passes ``budget``.

    Source i has bit i.  Over the reversed arcs, entry v of level t holds the
    i with d(s_i -> v) <= t; over the forward arcs, the i with
    d(v -> s_i) <= t.  Max joins the two by AND and min by OR, so an entry
    of the join holds the i whose pair distance to v is at most t.  ecc[i]
    is the first t at which bit i is set in every joined mask, near[v] the
    first t at which v's mask is not empty, and INF where that never comes.

    The work is the number of masks found not full, summed over the levels;
    a level does its ORs only for those.  The default budget is
    len(sources) * n / 4, a quarter of the len(sources) single-source runs
    of the reference, n^2 / 4 when every vertex is a source.  Measured with
    every vertex a source on paths, cycles, directed paths and chains of
    triangles of 1,000 and 2,500 vertices, one such mask cost 1.5 to 4.6
    vertex visits of a single-source run, so the budget gives up about
    where the sweep stops being the cheaper path; on those graphs, and on
    paths and cycles of 5,000 vertices, the sweep that gave up and the
    matrix path together took 1.3 to 2.2 times the matrix path alone.
    Random 3-trees of 1,000 and 2,500 vertices needed under n^2 / 30.
    Measured through ``sampled_ecc`` on directed paths of 1,000, 2,000 and
    10,000 vertices (up to 1,843 sources), the sweep that gave up and the
    fallback together took 0.9 to 1.7 times the reference alone.
    """
    check_variant(g, variant)
    setup = _sweep_setup(g, budget, len(sources))
    if variant == ROUNDTRIP or setup is None:
        return None
    weight, budget = setup
    n = g.n
    start = [0] * n
    for i, s in enumerate(sources):
        start[s] = 1 << i
    full = (1 << len(sources)) - 1
    levels = _levels(n, g.adj_in, weight, start)
    # On an undirected graph the sweeps over both arc directions are one.
    if variant in (MAX, MIN) and not g.undirected:
        join = and_ if variant == MAX else or_
        levels = (
            (list(map(join, f, b)), f_settled and b_settled)
            for (f, f_settled), (b, b_settled) in zip(levels, _levels(n, g.adj_out, weight, start))
        )
    ecc = [INF] * len(sources)
    near = [INF] * n
    pending = range(n)
    unseen = range(n)
    common = 0
    work = 0
    for t, (masks, settled) in enumerate(levels):
        left = []
        for v in unseen:
            if masks[v]:
                near[v] = t
            else:
                left.append(v)
        unseen = left
        pending = [v for v in pending if masks[v] != full]
        # Bits enter the AND of all masks for good, since masks only grow.
        new = reduce(and_, map(masks.__getitem__, pending), full) & ~common
        common |= new
        while new:
            low = new & -new
            ecc[low.bit_length() - 1] = t
            new ^= low
        if not pending or settled:
            return ecc, near
        work += len(pending)
        if work > budget:
            return None


def sampled_ecc(g, variant, sources):
    """``exact_source_ecc`` by ``sweep_source_ecc`` where that answers, and
    by one shortest-path run each way per source where it gives up."""
    return sweep_source_ecc(g, variant, sources) or exact_source_ecc(g, variant, sources)


def sweep_median(g, cap=DEFAULT_CAP, budget=None):
    """``exact_median`` from the level sweep, or None when the largest weight
    exceeds SWEEP_MAX_WEIGHT or the work passes ``budget``, as in
    ``sweep_source_ecc``.

    The distance sum of u is the total over levels t of the vertices not yet
    within distance t, n - popcount(F_t[u]), and INF if F_t[u] never fills.
    """
    _check_cap(g, cap)
    setup = _sweep_setup(g, budget, g.n)
    if setup is None:
        return None
    weight, budget = setup
    n = g.n
    full = (1 << n) - 1
    sums = [0] * n
    pending = range(n)
    work = 0
    for masks, settled in _levels(n, g.adj_out, weight):
        pending = [u for u in pending if masks[u] != full]
        for u in pending:
            sums[u] += n - masks[u].bit_count()
        if not pending or settled:
            break
        work += len(pending)
        if work > budget:
            return None
    for u in pending:
        sums[u] = INF
    best = min(sums, default=INF)
    return (sums.index(best) if sums else 0), best
