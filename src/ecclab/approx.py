"""Subquadratic estimation algorithms for radius and diameter questions.

Each routine returns an ApproxResult whose guarantee is an exact rational
interval (lo, hi): the true quantity T and the estimate E always satisfy
lo-side / hi-side relations documented per function.  Estimates are one-sided
by construction; the multiplicative side holds with high probability where
noted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .graph import (
    BACKWARD,
    FORWARD,
    INF,
    Graph,
    condense_scc,
    relabel_topological,
    sample_vertex_set,
    shortest_paths,
    topological_order,
    truncated_shortest_paths,
)
from .oracle import (
    MIN,
    SOURCE,
    pair_row,
    sampled_ecc,
)


# The constant c of the sample sizes, c·√n·ln n (source radius) and
# c·n^(1−ε)·ln n (min-diameter), behind their high-probability guarantees.
SAMPLE_C = 2


@dataclass
class ApproxResult:
    estimate: "int | float"
    witness: "int | None"
    guarantee: "tuple[Fraction, Fraction]"
    whp: bool


def approx_source_radius(g, rng):
    """2-approximation of the source radius R = min_v max_u d(v -> u).

    Deterministically estimate >= R; estimate <= 2R with high probability.
    Steps: w, the first vertex farthest from a random sample S1, by one search
    from all of S1; S2, the ⌈√n⌉ vertices with the least d(. -> w), less S1;
    the exact eccentricities of S1 then S2, by one ``sampled_ecc`` call.  The
    estimate is the least of them, that of the first sampled vertex attaining it.
    """
    n = g.n
    if n == 0:
        raise ValueError("empty graph")
    size1 = min(n, max(1, math.ceil(SAMPLE_C * math.sqrt(n) * math.log(n))))
    s1 = sorted(sample_vertex_set(n, size1, rng))
    near = shortest_paths(g, s1, FORWARD)
    w = near.index(max(near))
    size2 = math.ceil(math.sqrt(n))
    s2 = sorted({v for v, _ in truncated_shortest_paths(g, w, size2, BACKWARD)}.difference(s1))

    best, witness = min(zip(sampled_ecc(g, SOURCE, s1 + s2), s1 + s2))
    return ApproxResult(best, witness, (Fraction(1), Fraction(2)), whp=True)


def approx_min_diameter(g, rng, epsilon):
    """Sampled lower bound on the min-diameter of an unweighted digraph.

    Deterministically estimate <= D; D <= max(3, n^epsilon) * estimate with
    high probability.
    """
    if not g.unit_weights:
        raise ValueError("approx_min_diameter requires an unweighted graph")
    if not 0 < float(epsilon) <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    n = g.n
    if n == 0:
        raise ValueError("empty graph")
    size = min(n, max(1, math.ceil(SAMPLE_C * n ** (1 - float(epsilon)) * math.log(n))))
    sample = sorted(sample_vertex_set(n, size, rng))
    ecc = sampled_ecc(g, MIN, sample)
    est = 1 if g.m else 0
    witness = None
    # The witness is the first vertex at the largest distance from the first
    # sampled vertex that attains it, as a scan of the samples in order finds.
    diameter = max(ecc)
    if diameter > est:
        s = sample[ecc.index(diameter)]
        row = list(pair_row(MIN, shortest_paths(g, s, FORWARD), shortest_paths(g, s, BACKWARD)))
        est, witness = diameter, row.index(diameter)
    factor = Fraction(max(3, math.ceil(n ** float(epsilon))))
    return ApproxResult(est, witness, (Fraction(1), factor), whp=True)


def _dag_interval_dist(adj, order, pos_lo, pos_hi, root):
    """Distances between root and the vertices of ``order`` inside the
    induced topological interval [pos_lo, pos_hi], in one scan: with adj_in
    and the positions above root in increasing order, d(root -> v); with
    adj_out and the positions below root in decreasing order, d(v -> root).

    Vertex ids must already be topological positions.
    """
    dist = {root: 0}
    for v in order:
        best = INF
        for u, w in adj[v]:
            if pos_lo <= u <= pos_hi and u in dist:
                d = dist[u] + w
                if d < best:
                    best = d
        if best < INF:
            dist[v] = best
    return dist


def approx_min_diameter_dag(g):
    """Deterministic 2-approximation of the min-diameter of a DAG.

    D/2 <= estimate <= D, via divide and conquer on the topological order.
    """
    h, _ = relabel_topological(g)
    n = h.n
    if n <= 1:
        return ApproxResult(0, None, (Fraction(1), Fraction(2)), whp=False)

    best = 0
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        w = (lo + hi) // 2
        into = _dag_interval_dist(h.adj_out, range(w - 1, lo - 1, -1), lo, hi, w)
        outof = _dag_interval_dist(h.adj_in, range(w + 1, hi + 1), lo, hi, w)
        for v in range(lo, w):
            best = max(best, into.get(v, INF))
        for v in range(w + 1, hi + 1):
            best = max(best, outof.get(v, INF))
        # Pairs inside a length-1 interval were just covered by the midpoint
        # passes; recursing on them would never shrink the interval.
        if w - lo >= 2:
            stack.append((lo, w))
        if hi - w >= 2:
            stack.append((w, hi))
        if best == INF:
            break
    return ApproxResult(best, None, (Fraction(1), Fraction(2)), whp=False)


def finite_min_eccentricities(g):
    """For every vertex, whether its min-eccentricity is finite.

    Linear time: condense strongly connected components and run the counting
    passes over a topological order of the condensation.
    """
    comp, dag = condense_scc(g)
    order = topological_order(dag)
    k = dag.n

    def covered(adj, order):
        # covered[i]: every node at position j < i has an edge to a position <= i.
        pos = [0] * k
        for i, v in enumerate(order):
            pos[v] = i
        diff = [0] * (k + 1)
        for j, node in enumerate(order):
            # j blocks the positions strictly between j and its first
            # neighbor's (all positions after j if it has none).
            first = min((pos[v] for v, _ in adj[node]), default=k)
            if j + 1 < first:
                diff[j + 1] += 1
                diff[first] -= 1
        return [run == 0 for run in itertools.accumulate(diff[:k])]

    # The symmetric pass runs on the reversed order with in-edges.
    before = covered(dag.adj_out, order)
    after = covered(dag.adj_in, order[::-1])[::-1]
    node_ok = [False] * k
    for i, v in enumerate(order):
        node_ok[v] = before[i] and after[i]
    return [node_ok[comp[v]] for v in range(g.n)]


def _records(dist, vs):
    """(v, d) for the v of vs whose d = dist.get(v, INF) beats every earlier one's."""
    ds = [dist.get(v, INF) for v in vs]
    tops = itertools.accumulate(ds, max, initial=-1)
    return [(v, d) for v, d, top in zip(vs, ds, tops) if d > top]


def approximate_center(g, r, scans=None):
    """Search a topologically-labeled DAG for a center within factor 3 of r.

    Returns a vertex v with min-eccentricity <= 3r, or None, in which case
    every vertex has min-eccentricity > r.  Vertex ids must already be a
    topological order.  ``scans``, a dict shared by the probes of one DAG,
    keeps each anchor's scans, which do not depend on r.
    """
    n = g.n
    if n == 0:
        raise ValueError("empty graph")
    if n == 1:
        return 0
    cnt = max(2, math.ceil(math.sqrt(n)))
    anchors = sorted({(i * (n - 1)) // (cnt - 1) for i in range(cnt)})
    scans = {} if scans is None else scans

    intervals = []
    for a in anchors:
        if a not in scans:
            into = _dag_interval_dist(g.adj_out, range(a - 1, -1, -1), 0, n - 1, a)
            outof = _dag_interval_dist(g.adj_in, range(a + 1, n), 0, n - 1, a)
            scans[a] = (_records(into, range(a)), _records(outof, range(n - 1, a, -1)))
        # [lo, hi] spans the vertices farther than 2r from a: the first one
        # before a and the last one after it.
        lo = next((v for v, d in scans[a][0] if d > 2 * r), a)
        hi = next((v for v, d in scans[a][1] if d > 2 * r), a)
        if lo == hi == a:
            return a
        if intervals and lo <= intervals[-1][1] + 1:
            plo, phi = intervals.pop()
            intervals.append((plo, max(phi, hi)))
        else:
            intervals.append((lo, hi))

    # Scan the gaps between excluded intervals.
    for (a0, b), (c, d0) in zip(intervals, intervals[1:]):
        for u in range(b + 1, c):
            into = _dag_interval_dist(g.adj_out, range(u - 1, a0 - 1, -1), a0, d0, u)
            outof = _dag_interval_dist(g.adj_in, range(u + 1, d0 + 1), a0, d0, u)
            if all(min(into.get(v, INF), outof.get(v, INF)) <= r for v in range(a0, d0 + 1)):
                return u
    return None


def approx_min_radius_dag(g):
    """3-approximation of the min-radius of a DAG.

    Returns the smallest threshold r for which a center was found; then
    R <= min-ecc(witness) <= 3R where R is the exact min-radius, and the
    estimate r satisfies r <= R.  A binary search finds r with one
    approximate_center probe per threshold, all sharing one dict of anchor
    scans.  Estimate is INF when every vertex has infinite min-eccentricity.
    """
    h, back = relabel_topological(g)
    n = h.n
    if n <= 1:
        return ApproxResult(0, back[0] if n else None, (Fraction(1), Fraction(3)), whp=False)
    hi = h.max_weight * n
    scans = {}
    found = approximate_center(h, hi, scans)
    if found is None:
        return ApproxResult(INF, None, (Fraction(1), Fraction(3)), whp=False)
    # Invariant: lo == 0 or the probe at lo - 1 returned None, so at the end
    # every vertex has min-eccentricity > hi - 1, that is, hi <= R.
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        v = approximate_center(h, mid, scans)
        if v is not None:
            found, hi = v, mid
        else:
            lo = mid + 1
    return ApproxResult(hi, back[found], (Fraction(1), Fraction(3)), whp=False)
