"""Exact computations: all-pairs distances, eccentricities under all five
distance semantics, and the median.

Two exact paths compute them.

The matrix path is the trusted reference the rest of the package is tested
against, so it stays simple: n single-source runs give the distance matrix,
then each vertex's eccentricity is one reduction of its row (source,
undirected) or of its row paired with its column (max, min, roundtrip) by
``pair_row``, the one definition of the five pair distances, done by the
builtins ``max``, ``map`` and ``sum`` with no Python-level loop per pair.

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
at the samples of ``approx`` and returns their eccentricities alone, each
from one shortest-path run each way where the sweep gives up.
``sweep_median`` runs the sweep over the forward arcs from every vertex and
reads rows: F_t[u], the v with d(u -> v) <= t, and the distance sum of u is
the total over t of n - popcount(F_t[u]).

Roundtrip is not a threshold of the two one-way masks, so ``sweep_ecc``
keeps every level of both directions instead: with F_t[u] the v with
d(u -> v) <= t and B_t[u] the v with d(v -> u) <= t, the eccentricity of u
is the first r at which OR over t of F_t[u] & B_{r-t}[u] is full.

Both sweeps are generators that yield once per level, so one level loop
serves two readers: ``sweep_ecc`` runs it to the last level, and
``sweep_radius`` stops it at the first level at which some eccentricity is
found, which is the radius.  Neither computes a witness pair; that takes
``eccentricity_report``, one shortest-path run each way.

The sweep holds the last W + 1 levels, where W is the largest arc weight:
(W + 1) n k / 8 bytes for k sources, twice that for max and min; the
roundtrip sweep holds L n^2 / 8 bytes for L levels kept, at most
``ROUNDTRIP_MAX_LEVELS``.  It returns None, for the caller to fall back to
a matrix or row-by-row path, when W exceeds ``SWEEP_MAX_WEIGHT``, past the
roundtrip level bound, for ``roundtrip`` from sampled sources, and once its
work passes a budget set against the reference's (see ``sweep_source_ecc``
and ``_roundtrip_sweep``).  ``ecclab exact`` and ``ecclab verify`` try it
first, a radius check by ``sweep_radius``; the treewidth solver tries it at
every recursion node, under a budget of what splitting the node would cost
above its base cases.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add, and_, or_

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


def pair_row(variant, out_row, in_row):
    """The variant's pair distances from a vertex u to every v, as an iterable,
    given out_row[v] = d(u -> v) and in_row[v] = d(v -> u): the one definition
    of the five.  Each maps (0, 0) to 0, so u's own entry never raises its
    eccentricity."""
    # A comparison per pair costs a third of a call to the builtin max or min.
    if variant == MAX:
        return [x if x > y else y for x, y in zip(out_row, in_row)]
    if variant == MIN:
        return [x if x < y else y for x, y in zip(out_row, in_row)]
    if variant == ROUNDTRIP:
        return map(add, out_row, in_row)
    return out_row


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


def _report(variant, ecc, rows):
    """The report of ``ecc``.  Ties for the center break toward the smallest
    vertex id; the witness is the lexicographically smallest pair (u, v),
    u != v, attaining the diameter.  rows(u) gives u's out-row d(u -> .) and
    in-row d(. -> u)."""
    radius, diameter = min(ecc), max(ecc)
    witness = None
    if len(ecc) > 1:
        # A pair attaining the diameter starts at a vertex whose eccentricity
        # is the diameter, so the first such vertex holds the smallest pair.
        u = ecc.index(diameter)
        row = list(pair_row(variant, *rows(u)))
        v = row.index(diameter)
        if v == u:
            v = row.index(diameter, u + 1)
        witness = (u, v)
    return EccentricityReport(variant, list(ecc), radius, diameter, ecc.index(radius), witness)


def exact_eccentricities(g, variant, cap=DEFAULT_CAP):
    """Eccentricities of every vertex under the chosen variant, exactly.

    ecc[c] is the maximum over v != c of the variant's pair distance from c;
    a single isolated vertex has eccentricity 0.  The witness is the
    lexicographically smallest pair (u, v), u != v, attaining the diameter.
    """
    check_variant(g, variant)
    mat = all_pairs(g, cap)
    if variant in (SOURCE, UNDIRECTED):
        ecc = [max(row) for row in mat]
    else:
        # zip(*mat) yields the columns one at a time: column u holds d(v -> u).
        ecc = [max(pair_row(variant, row, col)) for row, col in zip(mat, zip(*mat))]
    return _report(variant, ecc, lambda u: (mat[u], [r[u] for r in mat]))


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
    comp, dag = condense_scc(Graph(n, [(u, x, 0) for u in range(n) for x, w in adj[u] if w == 0]))
    members = [[] for _ in range(dag.n)]
    for v, c in enumerate(comp):
        members[c].append(v)
    steps = []
    for c in reversed(topological_order(dag)):
        succ = [members[d][0] for d, _ in dag.adj_out[c]]
        if succ or len(members[c]) > 1:
            steps.append((members[c], succ))
    return steps


def _levels(g, adj, weight, start=None):
    """Yield (F_t, settled) for t = 0, 1, 2, ...

    F_0 is ``start`` closed over the zero-weight arcs, and F_t[u] =
    F_{t-1}[u] | OR over arcs (u -> x, w) of F_{t-w}[x], closed the same
    way.  With the default start, F_0[v] = 1 << v, F_t[u] is the bitmask of
    the v with d(u -> v) <= t along the arcs of adj, one of g's two
    adjacencies (bit v set).  A mask equal to the OR of the start masks is
    full and takes no more ORs.  settled is true once ``weight`` levels in a
    row brought no change: a level reads only the last ``weight`` ones, so no
    later level changes either, and every later item is the same.  Stopping
    at the first unchanged level would be wrong when an arc of weight w > 1
    has yet to bring in F_{t-w}.
    """
    n = g.n
    if start is None:
        start = [1 << u for u in range(n)]
    full = reduce(or_, start, 0)
    # A read table of its own for unit weights: the one weighted table for
    # both kinds made sweeps of six benchmark gadgets plus a 700-vertex
    # 2-tree take 10.9-11.3 ms against 10.0-10.4 ms (best of 7, three runs).
    if g.unit_weights:
        reads = [[x for x, _ in arcs] for arcs in adj]
        zero = []
    else:
        # Arc (u -> x, w > 0) reads entry x of F_{t-w}, which sits at
        # (w - 1) n + x in the last `weight` levels laid end to end.
        reads = [[(w - 1) * n + x for x, w in arcs if w] for arcs in adj]
        # Only the zero-weight arcs are missing from reads.
        zero = _zero_groups(n, adj) if sum(map(len, reads)) < sum(map(len, adj)) else []

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
        if still < weight:
            # A plain loop: a level of the 543-vertex min-diameter-dag gadget took
            # 228-316 against 416-565 us by reduce(or_, map(get, r), mask) per
            # vertex (Python 3.10-3.13).  At weight 1 all reads are in `level`.
            flat = level if weight == 1 else list(chain.from_iterable(past))
            new = []
            for r, mask in zip(reads, level):
                if mask != full:
                    for i in r:
                        mask |= flat[i]
                new.append(mask)
            close(new)
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
    or None where ``sweep_source_ecc`` seeded at every vertex is None, or,
    for ``roundtrip``, where ``_roundtrip_sweep`` gives up."""
    ecc = [INF] * g.n
    # The sweep runs to its last level unless it yields None, giving up.
    return None if None in _sweep(g, variant, cap, budget, ecc) else ecc


def sweep_radius(g, variant, cap=DEFAULT_CAP, budget=None):
    """The radius of ``exact_eccentricities`` from the sweep of ``sweep_ecc``,
    stopped at the first level at which some eccentricity is found: that
    level is the radius, and INF when the sweep ends before it.  None where
    the sweep gives up first."""
    for t, left in enumerate(_sweep(g, variant, cap, budget, [INF] * g.n)):
        if left is None:
            return None
        if left < g.n:
            return t
    return INF


def _sweep(g, variant, cap, budget, ecc):
    """The sweep of ``sweep_ecc`` with every vertex a source, as a generator
    that fills in ecc; see ``_source_sweep``."""
    check_variant(g, variant)
    _check_cap(g, cap)
    if variant == ROUNDTRIP:
        return _roundtrip_sweep(g, budget, ecc)
    return _source_sweep(g, variant, range(g.n), budget, ecc)


def _fill(pending, masks, full, ecc, t):
    """The pending vertices whose mask is not full; ecc[v] = t for the rest."""
    left = []
    for v in pending:
        if masks[v] == full:
            ecc[v] = t
        else:
            left.append(v)
    return left


# Most levels the roundtrip sweep keeps, over both directions: 64 levels of
# n^2 bits take the 8 bytes per vertex pair of the matrix path.  Each mask
# is an int object of about 36 bytes more, which counts at small n: on
# cycles with both arcs, run to the bound, the sweep peaked under tracemalloc
# at 1.31 MB against the matrix path's 0.81 MB at n = 300, and at 7.6
# against 23.9 MB at n = 1,000, where distances past 256 are int objects of
# their own.  The benchmark's roundtrip graphs (216 to 343 vertices) keep 6
# to 26 levels and peak below the matrix path.
ROUNDTRIP_MAX_LEVELS = 64


def _kept_levels(g, adj, weight):
    """Yield, for t = 0, 1, 2, ..., the levels [F_0, ..., F_t] of
    ``_levels(g, adj, weight)`` until they settle, and from then on
    [F_0, ..., F_L], L the last level that brought a change."""
    kept = []
    for level, settled in _levels(g, adj, weight):
        if settled:
            # The last `weight` levels kept equal F_L.
            del kept[len(kept) - weight + 1:]
            while True:
                yield kept
        kept.append(level)
        yield kept


def _roundtrip_sweep(g, budget, ecc):
    """The roundtrip sweep, yielding and filling in ecc as ``_source_sweep``
    does: roundtrip eccentricities from the levels F_t over the forward arcs and
    B_t over the reversed ones, all kept: F_t[u] holds the v with
    d(u -> v) <= t and B_t[u] the v with d(v -> u) <= t, so ecc(u) is the
    first r at which OR over t of F_t[u] & B_{r-t}[u] is full.  Past the
    guard below the graph is strongly connected, so with LF and LB the
    levels at which the two directions settle, every mask is full by
    r = LF + LB.

    It gives up when the largest weight exceeds SWEEP_MAX_WEIGHT, when the
    kept levels pass ROUNDTRIP_MAX_LEVELS, or once the work, the mask ANDs,
    passes ``budget``, by default n^2.  Run to the end, the sweep cost 0.07
    to 0.68 times the matrix path on 1-, 2- and 3-trees of 100 to 400
    vertices with both arcs (weights 1 or 1..3) that needed at most n^2
    ANDs, and 1.8 to 2.3 times on grids of 100 and 196 vertices with both
    arcs, the worst family tried, at 3.6 n^2.  The benchmark's directed
    3-trees of 250 vertices need 0.4 to 0.7 n^2 (seeds 1 to 12).

    One shortest-path run each way from vertex 0 comes first.  If ecc(0) is
    INF the graph is not strongly connected and every eccentricity is INF.
    Else vertex 0 stays pending up to r = ecc(0), with the levels of each
    direction changing up to the largest one-way distance from or to vertex
    0 at least, so a sweep whose work would pass the budget by then does not
    start.  When the tw solver still split the benchmark's ``tw-ktree`` jobs,
    its 74 roundtrip base cases at seed 1 (7 to 60 vertices, eccentricities
    close to n) took 1.9 to 2.1 times the matrix path without that guard, for
    sweeps that gave up and then the matrix path, and 1.3 times with it (4 of
    them start).  Since the sweep answers every ``tw-ktree`` job at the top
    node, no benchmark job reaches a base case, so no benchmark times the guard.
    """
    n = g.n
    setup = _sweep_setup(g, budget, 4 * n)
    if setup is None:
        yield None
        return
    if n == 0:
        return
    weight, budget = setup
    out_row, in_row = _rows(g, ROUNDTRIP, 0)
    ecc0 = max(pair_row(ROUNDTRIP, out_row, in_row))
    if ecc0 == INF:
        # Not strongly connected: every eccentricity stays INF.
        return
    # Each direction's levels change up to the largest one-way distance.
    last = max(max(out_row), max(in_row))
    floor = 0
    for r in range(ecc0):
        floor += n * (min(r, last) - max(0, r - last) + 1)
        if floor > budget:
            yield None
            return
    full = (1 << n) - 1
    pending = range(n)
    work = 0
    levels = zip(_kept_levels(g, g.adj_out, weight), _kept_levels(g, g.adj_in, weight))
    for r, (fwd, bwd) in enumerate(levels):
        if len(fwd) + len(bwd) > ROUNDTRIP_MAX_LEVELS:
            yield None
            return
        # F_t for t past the last kept level is the last one, and likewise
        # B_{r-t}, so only the t from lo to hi add to the join.
        lo, hi = max(0, r - len(bwd) + 1), min(r, len(fwd) - 1)
        terms = zip(fwd[lo:hi + 1], reversed(bwd[r - hi:r - lo + 1]))
        joined = map(and_, *next(terms))
        for f, b in terms:
            joined = map(or_, joined, map(and_, f, b))
        pending = _fill(pending, list(joined), full, ecc, r)
        yield len(pending)
        if not pending:
            return
        work += n * (hi - lo + 1)
        if work > budget:
            yield None
            return


def sweep_eccentricities(g, variant, cap=DEFAULT_CAP, budget=None):
    """The report of ``exact_eccentricities`` from ``sweep_ecc``, or None
    where that is None."""
    ecc = sweep_ecc(g, variant, cap, budget)
    return None if ecc is None else eccentricity_report(g, variant, ecc)


def eccentricity_report(g, variant, ecc):
    """The report of ``exact_eccentricities`` from the eccentricities ``ecc``
    of g.  The witness comes from one shortest-path run each way from the
    first vertex whose eccentricity is the diameter."""
    return _report(variant, ecc, lambda u: _rows(g, variant, u))


def _rows(g, variant, u):
    """u's out-row d(u -> .) and in-row d(. -> u) by one shortest-path run
    each way.  Source reads only the out-row; on an undirected graph the
    in-row is the out-row."""
    out_row = shortest_paths(g, u, FORWARD)
    if variant == SOURCE or g.undirected:
        return out_row, out_row
    return out_row, shortest_paths(g, u, BACKWARD)


def sweep_source_ecc(g, variant, sources, budget=None):
    """The variant's eccentricities of distinct source vertices, in order, by
    one level sweep seeded at them, or None: for ``roundtrip``, when the
    largest weight exceeds SWEEP_MAX_WEIGHT, or once its work passes ``budget``.

    Source i has bit i.  Over the reversed arcs, entry v of level t holds the
    i with d(s_i -> v) <= t; over the forward arcs, the i with
    d(v -> s_i) <= t.  Max joins the two by AND and min by OR, so an entry
    of the join holds the i whose pair distance to v is at most t.  ecc[i]
    is the first t at which bit i is set in every joined mask, and INF where
    that never comes.

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
    fallback together took 0.9 to 1.7 times the reference alone.  All this
    predates the plain OR loop of ``_levels``; the budget is kept on purpose.
    """
    check_variant(g, variant)
    if variant == ROUNDTRIP:
        return None
    ecc = [INF] * len(sources)
    # The sweep runs to its last level unless it yields None, giving up.
    return None if None in _source_sweep(g, variant, sources, budget, ecc) else ecc


def _source_sweep(g, variant, sources, budget, ecc):
    """The level loop of ``sweep_source_ecc`` as a generator: after each
    level t it fills in the eccentricities found at t and yields how many
    are still unknown, and it stops after the last level.  Where the sweep
    gives up it yields None and stops.  A caller that needs only the first
    levels stops taking items, and no later level is built."""
    setup = _sweep_setup(g, budget, len(sources))
    if setup is None:
        yield None
        return
    weight, budget = setup
    n = g.n
    start = [0] * n
    for i, s in enumerate(sources):
        start[s] = 1 << i
    full = (1 << len(sources)) - 1
    levels = _levels(g, g.adj_in, weight, start)
    # On an undirected graph the sweeps over both arc directions are one.
    if variant in (MAX, MIN) and not g.undirected:
        join = and_ if variant == MAX else or_
        levels = (
            (list(map(join, f, b)), f_settled and b_settled)
            for (f, f_settled), (b, b_settled) in zip(levels, _levels(g, g.adj_out, weight, start))
        )
    # With every vertex a source and a symmetric join, mask v is also the
    # row of source v, so ecc[v] is the first level at which it is full.
    by_row = sources == range(n) and (variant != SOURCE or g.undirected)
    pending = range(n)
    common = 0
    work = 0
    for t, (masks, settled) in enumerate(levels):
        if by_row:
            pending = _fill(pending, masks, full, ecc, t)
            yield len(pending)
        else:
            pending = [v for v in pending if masks[v] != full]
            # Bits enter the AND of all masks for good, since masks only grow.
            new = full & ~common
            for v in pending:
                new &= masks[v]
            common |= new
            while new:
                low = new & -new
                ecc[low.bit_length() - 1] = t
                new ^= low
            yield len(sources) - common.bit_count()
        if not pending or settled:
            return
        work += len(pending)
        if work > budget:
            yield None
            return


def sampled_ecc(g, variant, sources):
    """The eccentricities of the sources, as ``sweep_source_ecc`` gives them
    where it answers, and from one shortest-path run each way per source
    where it gives up."""
    ecc = sweep_source_ecc(g, variant, sources)
    return [max(pair_row(variant, *_rows(g, variant, s))) for s in sources] if ecc is None else ecc


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
    for masks, settled in _levels(g, g.adj_out, weight):
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
