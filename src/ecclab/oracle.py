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
``sweep_eccentricities`` seed it at every vertex, where source and max on
a directed graph need the forward sweep alone: its rows are the out-balls
and its columns the in-balls (Then et al., VLDB 2014).  ``sampled_ecc``
seeds it at the samples of ``approx`` and returns their eccentricities
alone, each from one shortest-path run each way where the sweep gives up.
``sweep_median`` runs the sweep over the forward arcs from every vertex and
reads rows: F_t[u], the v with d(u -> v) <= t, and the distance sum of u is
the total over t of n - popcount(F_t[u]).

Roundtrip is not a threshold of the two one-way masks, so ``sweep_ecc``
keeps every level of both directions instead, F_t[u] the v with
d(u -> v) <= t and B_t[u] the v with d(v -> u) <= t, and reads each
vertex's eccentricity from its own two columns of them: the largest
t + s over the shells F_t[u] & ~F_{t-1}[u], s the first level at which
B_s[u] holds the shell (see ``_roundtrip_sweep``).

The sweeps are generators that yield once per level, so one level loop
serves two readers: ``sweep_ecc`` runs it to the last level, and
``sweep_radius`` stops it at the first level at which some eccentricity is
found, which is the radius; the roundtrip sweep, which finds them all at
once, yields once per level up to the radius after that.  The report's
witness pair needs no search either: ``sweep_ecc`` reads it from the level
before the diameter, which holds each vertex's pair distances below it (see
``_witness``).  ``eccentricity_report`` finds it by one shortest-path run
each way for the eccentricities of other paths.

The sweep holds the last W + 1 levels, where W is the largest arc weight:
(W + 1) n k / 8 bytes for k sources, twice that for min, and for max from
sampled sources; the roundtrip sweep holds L n^2 / 8 bytes for L levels
kept, at most ``ROUNDTRIP_MAX_LEVELS`` or the bound its caller sets.  It
returns None, for the caller to fall back to a matrix or row-by-row path,
when W exceeds ``SWEEP_MAX_WEIGHT``, past the roundtrip level bound, for
``roundtrip`` from sampled sources, and once its work passes a budget set
against the reference's (see ``sweep_source_ecc`` and
``_roundtrip_sweep``).  ``ecclab exact`` and ``ecclab verify`` try it first,
a radius check by ``sweep_radius``; the treewidth solver tries it at every
recursion node, under a budget of what splitting the node would cost above
its base cases.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import reduce
from itertools import chain, repeat
from operator import add, and_, itemgetter, or_

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
# levels of n^2 bits per direction, 2 (W + 1) bits per vertex pair for min,
# where the matrix path holds one 64-bit reference per pair.  On a directed
# 3-tree of 3,000 vertices with both arcs of every edge, weights 1..W, the
# min sweep peaked at 73 MB for W = 16 and 114 MB for W = 31, the matrix
# path at 93 MB (ru_maxrss, Python 3.11); max, one sweep, at 48 and 69 MB.
# Time is bounded separately, by the work budget of ``sweep_source_ecc``.
SWEEP_MAX_WEIGHT = 16

# Most levels the roundtrip sweep keeps, over both directions, by default:
# 64 levels of n^2 bits take the 8 bytes per vertex pair of the matrix path.
# Each mask is an int object of about 36 bytes more, which counts at small
# n: on cycles with both arcs, run to the bound, the sweep peaked under
# tracemalloc at 1.31 MB against the matrix path's 0.81 MB at n = 300, and
# at 7.6 against 23.9 MB at n = 1,000, where distances past 256 are int
# objects of their own.  The benchmark's roundtrip graphs (216 to 343
# vertices) keep 6 to 26 levels and peak below the matrix path.
ROUNDTRIP_MAX_LEVELS = 64


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
        """The report as JSON: byte-equal to ``json.dumps(payload,
        sort_keys=True, indent=2)`` and a newline, where payload maps each
        field to its value, INF spelled "inf" and the witness a list or None.
        The text is written directly, since with ``indent`` ``json.dumps``
        runs its pure-Python encoder."""
        def array(values):
            # Never empty: a report has n >= 1 entries.  str(INF) is "inf",
            # which no integer's digits contain.
            items = ",\n    ".join(map(str, values)).replace("inf", '"inf"')
            return f"[\n    {items}\n  ]"

        def enc(x):
            return '"inf"' if x == INF else str(x)

        witness = "null" if self.witness is None else array(self.witness)
        return (f'{{\n  "center": {self.center},\n  "diameter": {enc(self.diameter)},\n'
                f'  "ecc": {array(self.ecc)},\n  "radius": {enc(self.radius)},\n'
                f'  "variant": "{self.variant}",\n  "witness": {witness}\n}}\n')

    def to_tsv(self):
        lines = ["vertex\tecc"]
        for v, e in enumerate(self.ecc):
            lines.append(f"{v}\t{'inf' if e == INF else e}")
        return "\n".join(lines) + "\n"


def _report(variant, ecc, witness):
    """The report of ``ecc`` with ``witness``; ties for the center break
    toward the smallest vertex id."""
    radius = min(ecc)
    return EccentricityReport(variant, list(ecc), radius, max(ecc), ecc.index(radius), witness)


def _search_witness(variant, ecc, rows):
    """The witness of a report of ``ecc``: the lexicographically smallest pair
    (u, v), u != v, attaining the diameter, None for a single vertex.
    rows(u) gives u's out-row d(u -> .) and in-row d(. -> u)."""
    if len(ecc) < 2:
        return None
    # A pair attaining the diameter starts at a vertex whose eccentricity is
    # the diameter, so the first such vertex holds the smallest pair.
    diameter = max(ecc)
    u = ecc.index(diameter)
    row = list(pair_row(variant, *rows(u)))
    v = row.index(diameter)
    if v == u:
        v = row.index(diameter, u + 1)
    return u, v


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
    witness = _search_witness(variant, ecc, lambda u: (mat[u], [r[u] for r in mat]))
    return _report(variant, ecc, witness)


def exact_median(g, cap=DEFAULT_CAP):
    """The vertex minimizing the sum of forward distances to all others.

    Returns (vertex, total).  The total is INF when no vertex reaches all
    others; ties break toward the smallest vertex id.
    """
    sums = [sum(row) for row in all_pairs(g, cap)]
    best = min(sums, default=INF)
    return (sums.index(best) if sums else 0), best


def _zero_groups(n, zero):
    """The closure of a level over the zero-weight arcs ``zero``, (u, x, 0)
    for u reads x, as steps (members, successors) in the order they run: one
    per strongly connected component of the zero arcs that has a zero arc
    leaving it or more than one member, sinks first.  successors holds one
    member of each component a zero arc leads to."""
    comp, dag = condense_scc(Graph._trusted(n, zero))
    members = [[] for _ in range(dag.n)]
    for v, c in enumerate(comp):
        members[c].append(v)
    steps = []
    for c in reversed(topological_order(dag)):
        succ = [members[d][0] for d, _ in dag.adj_out[c]]
        if succ or len(members[c]) > 1:
            steps.append((members[c], succ))
    return steps


def _reads(g, direction):
    """The read table of a level step along the arcs u -> x of g (FORWARD)
    or x -> u (BACKWARD), its zero-weight arcs (u, x, 0) and the set of its
    arc weights above 0: entry u reads x, at unit weights, and else
    (w - 1) n + x for each arc of weight w > 0, which is entry x of F_{t-w}
    in the last W levels laid end to end.  It is read from g's adjacency
    where a search built that already, and else from g.edges, so a sweep
    builds no adjacency list."""
    n = g.n
    weights = {1} if g.unit_weights else set(map(itemgetter(2), g.edges))
    # The zero arcs are listed only where some arc has weight 0.
    zeros = 0 in weights
    weights.discard(0)
    adj = vars(g).get("adj_out" if direction == FORWARD or g.undirected else "adj_in")
    if adj is not None:
        # Built by approx or a split, and grouped by vertex as the table is:
        # reading it took 11 ms on the directed 3-tree of _edge_reads,
        # grouping the edges again 15.
        if g.unit_weights:
            return [[x for x, _ in arcs] for arcs in adj], [], weights
        zero = [(u, x, 0) for u, arcs in enumerate(adj) for x, w in arcs if not w] if zeros else []
        return [[(w - 1) * n + x for x, w in arcs if w] for arcs in adj], zero, weights
    if not g.undirected:
        return (*_edge_reads(g, direction == BACKWARD, zeros), weights)
    (out, zero_out), (inc, zero_in) = _edge_reads(g, False, zeros), _edge_reads(g, True, zeros)
    return list(map(add, out, inc)), zero_out + zero_in, weights


def _edge_reads(g, backward, zeros):
    """``_reads`` from the edges (u, x, w) of g as arcs u -> x, or as arcs
    x -> u if ``backward``; the zero arcs are listed only if ``zeros``."""
    n = g.n
    reads = [[] for _ in range(n)]
    # A read table of its own for unit weights: the one weighted table for
    # both kinds made sweeps of six benchmark gadgets plus a 700-vertex
    # 2-tree take 10.9-11.3 ms against 10.0-10.4 ms (best of 7, three runs).
    if g.unit_weights:
        if backward:
            for x, u, _ in g.edges:
                reads[u].append(x)
        else:
            for u, x, _ in g.edges:
                reads[u].append(x)
        return reads, []
    # Each entry is a new int, made here in vertex order, the order a level
    # reads them in, from the edges grouped by the vertex that reads them.
    # Made in edge order instead, they made the sampled sweep of a directed
    # 3-tree of 12,800 vertices (weights 1..3) 18% slower.
    if backward:
        for e in g.edges:
            reads[e[1]].append(e)
        zero = [(x, u, 0) for u, x, w in g.edges if not w] if zeros else []
        return [[(w - 1) * n + x for x, _, w in r if w] for r in reads], zero
    for e in g.edges:
        reads[e[0]].append(e)
    zero = [e for e in g.edges if not e[2]] if zeros else []
    return [[(w - 1) * n + x for _, x, w in r if w] for r in reads], zero


def _levels(g, direction, weight, start=None):
    """Yield (F_t, settled) for t = 0, 1, 2, ...

    F_0 is ``start`` closed over the zero-weight arcs, and F_t[u] =
    F_{t-1}[u] | OR over arcs (u -> x, w) of F_{t-w}[x], closed the same
    way, the arcs taken in ``direction`` (see ``_reads``).  With the default
    start, F_0[v] = 1 << v, F_t[u] is the bitmask of the v with d(u -> v)
    <= t along those arcs (bit v set).  A mask equal to the OR of the start
    masks is full and takes no more ORs.  settled is true once ``weight``
    levels in a row brought no change: a level reads only the last
    ``weight`` ones, so no later level changes either, and every later item
    is the same.  Stopping at the first unchanged level would be wrong when
    an arc of weight w > 1 has yet to bring in F_{t-w}.

    Where no level t - w changed, for any arc weight w > 0 present, F_t is
    F_{t-1}: every mask it would OR in is already in F_{t-1}.  That level is
    the same list, built with no ORs.  On the min-diameter-weighted gadgets
    (weights 1, 7 and 14) that is 36 of 56 levels per direction.
    """
    n = g.n
    if start is None:
        start = [1 << u for u in range(n)]
    full = reduce(or_, start, 0)
    reads, zero, weights = _reads(g, direction)
    if zero:
        zero = _zero_groups(n, zero)
    # Bit w - 1 for each arc weight w: the levels t - w that F_t reads.
    read = sum(1 << (w - 1) for w in weights)

    def close(level):
        get = level.__getitem__
        for members, succ in zero:
            acc = reduce(or_, map(get, succ), reduce(or_, map(get, members)))
            for v in members:
                level[v] = acc
        return level

    level = close(list(start))
    past = deque([level] + [[0] * n] * (weight - 1), maxlen=weight)
    # Bit i set when level t - 1 - i changed, for the last `weight` levels;
    # level 0 counts as a change from the empty level -1.
    changed, last = 1, (1 << weight) - 1
    while True:
        yield level, not changed
        if changed:
            if changed & read:
                # A plain loop: a level of the 543-vertex min-diameter-dag
                # gadget took 228-316 against 416-565 us by reduce(or_,
                # map(get, r), mask) per vertex (Python 3.10-3.13).  At
                # weight 1 all reads are in `level`.
                flat = level if weight == 1 else list(chain.from_iterable(past))
                new = []
                for r, mask in zip(reads, level):
                    if mask != full:
                        for i in r:
                            mask |= flat[i]
                    new.append(mask)
                close(new)
                changed = (changed << 1 & last) | (new != level)
            else:
                new = level
                changed = changed << 1 & last
            past.appendleft(new)
            level = new


def _sweep_setup(g, budget, rows):
    """(W, work budget) for a sweep that stands in for ``rows`` single-source
    runs, or None when W exceeds SWEEP_MAX_WEIGHT."""
    weight = max(1, g.max_weight)
    if weight > SWEEP_MAX_WEIGHT:
        return None
    return weight, rows * g.n // 4 if budget is None else budget


def sweep_ecc(g, variant, cap=DEFAULT_CAP, budget=None, found=None,
              max_levels=ROUNDTRIP_MAX_LEVELS):
    """The eccentricities of ``exact_eccentricities`` from the level sweep,
    or None where ``sweep_source_ecc`` seeded at every vertex is None, or,
    for ``roundtrip``, where ``_roundtrip_sweep`` gives up, past
    ``max_levels`` kept levels among others.  Where the sweep answers and
    ``found`` is a list, the report's witness pair is appended to it, read
    from the sweep's own levels (see ``_witness``)."""
    ecc = [INF] * g.n
    # The sweep runs to its last level unless it yields None, giving up.
    return None if None in _sweep(g, variant, cap, budget, ecc, found, max_levels) else ecc


def sweep_radius(g, variant, cap=DEFAULT_CAP, budget=None):
    """The radius of ``exact_eccentricities`` from the sweep of ``sweep_ecc``,
    stopped at the first level at which some eccentricity is found: that
    level is the radius, and INF when the sweep ends before it.  None where
    the sweep gives up first.  The roundtrip sweep finds every eccentricity
    before its first item, so it saves nothing there."""
    for t, left in enumerate(_sweep(g, variant, cap, budget, [INF] * g.n)):
        if left is None:
            return None
        if left < g.n:
            return t
    return INF


def _sweep(g, variant, cap, budget, ecc, found=None, max_levels=ROUNDTRIP_MAX_LEVELS):
    """The sweep of ``sweep_ecc`` with every vertex a source, as a generator
    that fills in ecc, and ``found`` as ``sweep_ecc`` does; see
    ``_source_sweep`` and ``_roundtrip_sweep``."""
    check_variant(g, variant)
    _check_cap(g, cap)
    if variant == ROUNDTRIP:
        return _roundtrip_sweep(g, budget, ecc, found, max_levels)
    return _source_sweep(g, variant, range(g.n), budget, ecc, found)


def _fill(pending, masks, full, ecc, t):
    """The pending vertices whose mask is not full; ecc[v] = t for the rest."""
    left = []
    for v in pending:
        if masks[v] == full:
            ecc[v] = t
        else:
            left.append(v)
    return left


def _witness(ecc, masks, column):
    """The witness of ``_search_witness`` from a sweep that filled in ecc: u
    is the first vertex whose eccentricity is the diameter D, and v the
    lowest vertex other than u missing from u's joined set in ``masks``, the
    sweep's level D - 1, where the v at pair distance D from u are missing,
    or its settled level when D is INF.  masks None is level -1, where every
    v is missing.  The joined set is row u (mask u), and if ``column`` only
    the v in it that are also in column u (the v whose mask holds bit u);
    without ``column``, masks needs only entry u."""
    if len(ecc) < 2:
        return None
    u = ecc.index(max(ecc))
    near = 1 << u
    if masks is not None:
        joined = masks[u]
        if column:
            joined &= int("".join([str(m >> u & 1) for m in reversed(masks)]), 2)
        near |= joined
    # The lowest bit clear in near.
    return u, (~near & (near + 1)).bit_length() - 1


def _roundtrip_sweep(g, budget, ecc, found, max_levels):
    """The roundtrip sweep, filling in ecc and ``found`` as ``_source_sweep``
    does, from the levels F_t over the forward arcs and B_t over the
    reversed ones, each kept up to the last level that changed: F_t[u]
    holds the v with d(u -> v) <= t and B_t[u] the v with d(v -> u) <= t.

    Column u of each direction is read alone.  oe(u) and ie(u), the first
    levels at which F_t[u] and B_t[u] are full, are found by bisection, as
    the masks only grow.  The v at out-distance exactly t, the shell
    F_t[u] & ~F_{t-1}[u], all reach u within s_t(u), the first s at which
    B_s[u] holds the shell, so ecc(u) is the largest t + s_t(u).  t runs
    down from oe(u) and stops once t + ie(u) cannot pass the largest so far;
    a t whose shell is in B_s[u] for s = that largest - t cannot pass it.
    The graph is not strongly connected exactly when some forward mask never
    fills, and then every eccentricity is INF and no backward level is built.
    Where the forward levels pass ``max_levels`` or ``budget`` before they
    settle, the strongly connected components tell that instead.

    The generator yields nothing while it builds the levels, and None, to
    stop, where it gives up: when the largest weight exceeds
    SWEEP_MAX_WEIGHT, when the levels kept pass ``max_levels``, or once the
    work, the masks not yet full summed over the levels of both directions,
    passes ``budget``.  Where it answers, it then yields, for r = 0 up to
    the radius, the number of eccentricities above r, which is what
    ``sweep_radius`` reads.

    The default budget is n^2 / 2, the n^2 / 4 of one sweep in
    ``sweep_source_ecc`` for each direction.  Run to the end, the sweep
    cost 0.04 to 0.42 times the matrix path on 1-, 2- and 3-trees of 100 to
    400 vertices with both arcs (weights 1 or 1..3) and on grids of 100 and
    196 vertices, none of which needed more than 0.37 n^2 work; on cycles
    with both arcs, whose masks all stay open to level n / 2, it needs n^2
    and cost 1.1 to 1.2 times.  The benchmark's 60-vertex directed 2-trees
    (weights 1..3) need 0.25 to 0.32 n^2, and the sweep answers them in 0.5
    to 0.9 ms, where the matrix path takes about 4.
    """
    n = g.n
    setup = _sweep_setup(g, budget, 2 * n)
    if setup is None:
        yield None
        return
    if n == 0:
        return
    weight, budget = setup
    full = (1 << n) - 1
    work = 0
    kept = []
    for direction in (FORWARD, BACKWARD):
        levels = []
        kept.append(levels)
        pending = range(n)
        for level, settled in _levels(g, direction, weight):
            if settled:
                # The last `weight` levels equal the one before them.
                del levels[len(levels) - weight + 1:]
                break
            levels.append(level)
            if sum(map(len, kept)) > max_levels:
                break
            pending = [v for v in pending if level[v] != full]
            if not pending:
                break
            work += len(pending)
            if work > budget:
                break
        if not pending:
            continue
        if settled:
            # Not strongly connected.  Row 0 of the settled level holds the
            # v that 0 reaches and column 0 the v that reach 0.
            if found is not None:
                found.append(_witness(ecc, levels[-1], True))
            return
        # Past the level bound or the budget.  In the forward direction, the
        # strongly connected components tell, for two depth-first searches,
        # whether every eccentricity is INF all the same; the witness is
        # then 0 and the lowest vertex outside its component.
        comp = [] if direction == BACKWARD else condense_scc(g)[0]
        if 1 not in comp:
            yield None
            return
        if found is not None:
            found.append((0, comp.index(1)))
        return
    fwd, bwd = kept
    for u, (out_col, in_col) in enumerate(zip(zip(*fwd), zip(*bwd))):
        ie = bisect_left(in_col, full)
        best = 0
        for t in range(bisect_left(out_col, full), -1, -1):
            if t + ie <= best:
                break
            shell = out_col[t] & ~out_col[t - 1] if t else out_col[0]
            s = best - t
            if s >= 0 and not shell & ~in_col[s]:
                continue
            # s_t(u) is past s and at most ie.
            best = t + bisect_left(in_col, True, max(s + 1, 0), ie, key=lambda b: not shell & ~b)
        ecc[u] = best
    if found is not None:
        # u's set at level D - 1: the v in F_t[u] & B_{D-1-t}[u] for some t,
        # each direction's last level standing for the levels past it.
        d = max(ecc)
        u = ecc.index(d)
        last_out, last_in = len(fwd) - 1, len(bwd) - 1
        joined = reduce(or_, (fwd[min(t, last_out)][u] & bwd[min(d - 1 - t, last_in)][u]
                              for t in range(d)), 0)
        found.append(_witness(ecc, {u: joined} if d else None, False))
    radius = min(ecc)
    yield from repeat(n, radius)
    yield n - ecc.count(radius)


def sweep_eccentricities(g, variant, cap=DEFAULT_CAP, budget=None):
    """The report of ``exact_eccentricities`` from ``sweep_ecc``, witness
    included, or None where that is None."""
    found = []
    ecc = sweep_ecc(g, variant, cap, budget, found)
    return None if ecc is None else eccentricity_report(g, variant, ecc, found)


def eccentricity_report(g, variant, ecc, found=()):
    """The report of ``exact_eccentricities`` from the eccentricities ``ecc``
    of g.  The witness is found[0] where ``found`` holds the one a sweep
    gave (see ``sweep_ecc``), and else comes from one shortest-path run each
    way from the first vertex whose eccentricity is the diameter."""
    if found:
        return _report(variant, ecc, found[0])
    return _report(variant, ecc, _search_witness(variant, ecc, lambda u: _rows(g, variant, u)))


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
    that never comes.  With every vertex a source, source and max on a
    directed graph run the sweep over the forward arcs alone (see
    ``_source_sweep``).

    The work is the number of masks found not full, summed over the levels;
    a level does its ORs only for those, and in the one sweep of source or
    max over every vertex, those are the rows not yet full.  The default budget is
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


def _source_sweep(g, variant, sources, budget, ecc, found=None):
    """The level loop of ``sweep_source_ecc`` as a generator: after each
    level t it fills in the eccentricities found at t and yields how many
    are still unknown, and it stops after the last level.  Where the sweep
    gives up it yields None and stops.  A caller that needs only the first
    levels stops taking items, and no later level is built.  With every
    vertex a source, ``found`` is filled in as ``sweep_ecc`` says.

    With every vertex a source, source and max on a directed graph take one
    sweep, over the forward arcs from F_0[v] = 1 << v: mask u of level t is
    then row u, the v with d(u -> v) <= t, and the masks holding bit u are
    column u, the v with d(v -> u) <= t.  Row u fills at u's
    out-eccentricity, its source eccentricity, so only the rows not yet
    full count as work.  Under max, bit u enters the AND of all masks at
    u's in-eccentricity, and ecc[u] is the later of the two levels.
    """
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
    every = sources == range(n)
    rows = every and variant == MAX and not g.undirected
    levels = _levels(g, FORWARD if every and variant in (SOURCE, MAX) else BACKWARD, weight, start)
    # On an undirected graph the sweeps over both arc directions are one.
    if variant in (MAX, MIN) and not g.undirected and not rows:
        join = and_ if variant == MAX else or_
        levels = (
            (list(map(join, f, b)), f_settled and b_settled)
            for (f, f_settled), (b, b_settled) in zip(levels, _levels(g, FORWARD, weight, start))
        )
    # With every vertex a source, mask v is the row of source v for source
    # over the forward arcs and for a symmetric join, so ecc[v] is the first
    # level at which it is full.
    by_row = every and (variant != MAX or g.undirected)
    pending = range(n)
    unknown = len(sources)
    # The bits in every mask; under max over rows, also the rows that are
    # full; and the bits of the eccentricities filled in.
    common = 0
    filled = 0 if rows else full
    known = 0
    work = 0
    prev = before = None
    for t, (masks, settled) in enumerate(levels):
        if by_row:
            pending = _fill(pending, masks, full, ecc, t)
            left = len(pending)
        else:
            if rows:
                for v in pending:
                    if masks[v] == full:
                        filled |= 1 << v
            pending = [v for v in pending if masks[v] != full]
            # Bits enter the AND of all masks for good, since masks only grow.
            new = full & ~common
            for v in pending:
                new &= masks[v]
            common |= new
            new = common & filled & ~known
            known |= new
            while new:
                low = new & -new
                ecc[low.bit_length() - 1] = t
                new ^= low
            left = len(sources) - known.bit_count()
        yield left
        if found is not None:
            # The masks of the level before the last one that filled any in.
            if left < unknown:
                before = prev
            prev, unknown = masks, left
        if not pending or settled:
            if found is not None:
                found.append(_witness(ecc, masks if left else before, rows))
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
    for masks, settled in _levels(g, FORWARD, weight):
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
