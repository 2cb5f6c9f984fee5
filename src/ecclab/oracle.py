"""Exact brute-force computations: all-pairs distances, eccentricities under
all five distance semantics, and the median.

Everything here is the trusted reference the rest of the package is tested
against, so it stays simple: n single-source runs give the distance matrix,
then each vertex's eccentricity is one reduction of its row (source,
undirected) or of its row paired with its column (max, min, roundtrip)
under the variant's pair combiner, done by the builtins ``max``, ``map`` and
``sum`` with no Python-level loop per pair.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

from .graph import FORWARD, INF, Graph, shortest_paths

UNDIRECTED = "undirected"
SOURCE = "source"
MAX = "max"
MIN = "min"
ROUNDTRIP = "roundtrip"

VARIANTS = (UNDIRECTED, SOURCE, MAX, MIN, ROUNDTRIP)

DEFAULT_CAP = 5000


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


def all_pairs(g, cap=DEFAULT_CAP):
    """Forward distance matrix: row u holds d(u -> v) for every v."""
    if cap is not None and g.n > cap:
        raise CapacityError(f"all_pairs capacity cap {cap} exceeded (n={g.n})")
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
    report = report_from_ecc(variant, ecc)
    if len(ecc) > 1:
        # A pair attaining the diameter starts at a vertex whose eccentricity
        # is the diameter, so the first such vertex holds the smallest pair.
        diameter = report.diameter
        u = ecc.index(diameter)
        row = list(pair_row(variant, mat[u], [r[u] for r in mat]))
        v = row.index(diameter)
        if v == u:
            v = row.index(diameter, u + 1)
        report.witness = (u, v)
    return report


def exact_median(g, cap=DEFAULT_CAP):
    """The vertex minimizing the sum of forward distances to all others.

    Returns (vertex, total).  The total is INF when no vertex reaches all
    others; ties break toward the smallest vertex id.
    """
    sums = [sum(row) for row in all_pairs(g, cap)]
    best = min(sums, default=INF)
    return (sums.index(best) if sums else 0), best
