"""Subquadratic estimation algorithms for radius and diameter questions.

Each routine returns an ApproxResult whose guarantee is an exact rational
interval (lo, hi): the true quantity T and the estimate E always satisfy
lo-side / hi-side relations documented per function.  Estimates are one-sided
by construction; the multiplicative side holds with high probability where
noted.
"""

from __future__ import annotations

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
    MAX,
    MIN,
    ROUNDTRIP,
    SOURCE,
    UNDIRECTED,
    check_variant,
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
    The estimate is the exact source eccentricity of the returned witness,
    the first sampled vertex with the least eccentricity.
    """
    n = g.n
    if n == 0:
        raise ValueError("empty graph")
    size1 = min(n, max(1, math.ceil(SAMPLE_C * math.sqrt(n) * math.log(n)))) if n > 1 else 1
    s1 = sorted(sample_vertex_set(n, size1, rng))
    ecc1, near = sampled_ecc(g, SOURCE, s1)

    # w maximizes its distance to the sample (covered worst vertex).
    w = near.index(max(near))
    size2 = math.ceil(math.sqrt(n))
    s2 = sorted({v for v, _ in truncated_shortest_paths(g, w, size2, BACKWARD)}.difference(s1))
    ecc2, _ = sampled_ecc(g, SOURCE, s2)

    best, witness = min(zip(ecc1 + ecc2, s1 + s2))
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
    size = min(n, max(1, math.ceil(SAMPLE_C * n ** (1 - float(epsilon)) * math.log(max(n, 2)))))
    sample = sorted(sample_vertex_set(n, size, rng))
    ecc, _ = sampled_ecc(g, MIN, sample)
    est = 1 if g.has_edge() else 0
    witness = None
    # The witness is the first vertex at the largest distance from the first
    # sampled vertex that attains it, as a scan of the samples in order finds.
    diameter = max(ecc)
    if diameter > est:
        s = sample[ecc.index(diameter)]
        row = list(pair_row(MIN, shortest_paths(g, s, FORWARD), shortest_paths(g, s, BACKWARD)))
        est, witness = diameter, row.index(diameter)
    factor = Fraction(max(3, math.ceil(n ** float(epsilon)))) if n else Fraction(3)
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
        if hi - lo < 1:
            continue
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
    pos = [0] * k
    for i, v in enumerate(order):
        pos[v] = i

    def pass_ok(adj, order, pos):
        # ok[i]: every node at position j < i has an edge to a position <= i.
        first = [min((pos[v] for v, _ in adj[node]), default=k) for node in order]
        diff = [0] * (k + 1)
        for j, f in enumerate(first):
            # j blocks positions i with j < i < f  (and all i > j if no edge).
            lo, hi = j + 1, f - 1
            if lo <= hi:
                diff[lo] += 1
                diff[min(hi, k - 1) + 1] -= 1
        ok = [False] * k
        run = 0
        for i in range(k):
            run += diff[i]
            ok[i] = run == 0
        return ok

    ok_before = pass_ok(dag.adj_out, order, pos)

    # Symmetric pass on the reversed order with in-edges.
    rev_order = list(reversed(order))
    rpos = [0] * k
    for i, v in enumerate(rev_order):
        rpos[v] = i
    ok_after = pass_ok(dag.adj_in, rev_order, rpos)

    node_ok = [False] * k
    for i in range(k):
        node_ok[order[i]] = ok_before[i] and ok_after[rpos[order[i]]]
    return [node_ok[comp[v]] for v in range(g.n)]


def approximate_center(g, r):
    """Search a topologically-labeled DAG for a center within factor 3 of r.

    Returns a vertex v with min-eccentricity <= 3r, or None, in which case
    every vertex has min-eccentricity > r.  Vertex ids must already be a
    topological order.
    """
    n = g.n
    if n == 0:
        raise ValueError("empty graph")
    if n == 1:
        return 0
    cnt = max(2, math.ceil(math.sqrt(n)))
    anchors = sorted({(i * (n - 1)) // (cnt - 1) for i in range(cnt)})

    intervals = []
    for a in anchors:
        into = _dag_interval_dist(g.adj_out, range(a - 1, -1, -1), 0, n - 1, a)
        outof = _dag_interval_dist(g.adj_in, range(a + 1, n), 0, n - 1, a)
        ok = True
        first_bad = None
        last_bad = None
        for v in range(n):
            din = into.get(v, INF) if v <= a else INF
            dout = outof.get(v, INF) if v >= a else INF
            if min(din, dout) > 2 * r:
                ok = False
            if v < a and into.get(v, INF) > 2 * r and first_bad is None:
                first_bad = v
            if v > a and outof.get(v, INF) > 2 * r:
                last_bad = v
        if ok:
            return a
        lo = first_bad if first_bad is not None else a
        hi = last_bad if last_bad is not None else a
        if intervals and lo <= intervals[-1][1] + 1:
            plo, phi = intervals.pop()
            intervals.append((plo, max(phi, hi)))
        else:
            intervals.append((lo, hi))

    # Scan the gaps between excluded intervals.
    for i in range(len(intervals) - 1):
        _, b = intervals[i]
        c, _ = intervals[i + 1]
        a0 = intervals[i][0]
        d0 = intervals[i + 1][1]
        for u in range(b + 1, c):
            into = _dag_interval_dist(g.adj_out, range(u - 1, a0 - 1, -1), a0, d0, u)
            outof = _dag_interval_dist(g.adj_in, range(u + 1, d0 + 1), a0, d0, u)
            good = True
            for v in range(a0, d0 + 1):
                if min(into.get(v, INF), outof.get(v, INF)) > r:
                    good = False
                    break
            if good:
                return u
    return None


def approx_min_radius_dag(g):
    """3-approximation of the min-radius of a DAG.

    Returns the smallest threshold r for which a center was found; then
    R <= min-ecc(witness) <= 3R where R is the exact min-radius, and the
    estimate r satisfies r <= R.  Estimate is INF when every vertex has
    infinite min-eccentricity.
    """
    h, back = relabel_topological(g)
    n = h.n
    if n <= 1:
        return ApproxResult(0, back[0] if n else None, (Fraction(1), Fraction(3)), whp=False)
    hi = h.max_weight * n
    if approximate_center(h, hi) is None:
        return ApproxResult(INF, None, (Fraction(1), Fraction(3)), whp=False)
    lo = 0
    found = None
    while lo < hi:
        mid = (lo + hi) // 2
        v = approximate_center(h, mid)
        if v is not None:
            found = v
            hi = mid
        else:
            lo = mid + 1
    # The search predicate is not proven monotone; walk down to certify that
    # the threshold below the answer really excludes every vertex.
    while hi > 0:
        v = approximate_center(h, hi - 1)
        if v is None:
            break
        found = v
        hi -= 1
    if found is None:
        found = approximate_center(h, hi)
    return ApproxResult(hi, back[found], (Fraction(1), Fraction(3)), whp=False)


def trivial_metric_estimate(g, variant, probe=0):
    """Eccentricity of a probe vertex, a 2-approximation of the radius for
    the metric variants (undirected, max, roundtrip)."""
    check_variant(g, variant)
    if variant not in (UNDIRECTED, MAX, ROUNDTRIP):
        raise ValueError("trivial_metric_estimate needs a metric variant")
    if not 0 <= probe < g.n:
        raise ValueError("probe out of range")
    fwd = shortest_paths(g, probe, FORWARD)
    bwd = shortest_paths(g, probe, BACKWARD) if variant != UNDIRECTED else fwd
    e = max(pair_row(variant, fwd, bwd))
    return ApproxResult(e, probe, (Fraction(1), Fraction(2)), whp=False)
