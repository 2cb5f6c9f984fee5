"""Shared helpers: independent reference implementations used as oracles."""

from __future__ import annotations

import argparse
import itertools
import random

from ecclab.cli import build_parser
from ecclab.graph import INF, Graph, GraphFormatError, shortest_paths
from ecclab.oracle import EccentricityReport
from ecclab.reduce23 import (
    DIAMETER,
    RADIUS,
    ReductionResult,
    closed_neighborhoods,
    default_delta,
    hashed_masks,
)
from ecclab.setsystem import OV, SetSystemInstance, solve_set_system
from ecclab.treewidth import DecompositionError, TreeDecomposition


def floyd_warshall(g):
    """All-pairs distances by the classic triple loop (independent of the
    library's BFS/Dijkstra paths)."""
    n = g.n
    dist = [[INF] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for u, v, w in g.directed_edges():
        if w < dist[u][v]:
            dist[u][v] = w
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def variant_pair(variant, duv, dvu):
    if variant == "source":
        return duv
    if variant == "max":
        return max(duv, dvu)
    if variant == "min":
        return min(duv, dvu)
    if variant == "roundtrip":
        return duv + dvu
    return duv  # undirected: symmetric matrix


def reference_eccentricities(g, variant):
    dist = floyd_warshall(g)
    n = g.n
    ecc = []
    for u in range(n):
        e = 0
        for v in range(n):
            if v != u:
                e = max(e, variant_pair(variant, dist[u][v], dist[v][u]))
        ecc.append(e)
    return ecc


def reference_report(g, variant):
    """The full eccentricity report from the Floyd-Warshall matrix: ecc,
    radius, diameter, center and the lexicographically smallest pair
    (u, v), u != v, attaining the diameter."""
    dist = floyd_warshall(g)
    ecc = reference_eccentricities(g, variant)
    radius, diameter = min(ecc), max(ecc)
    witness = next(
        ((u, v) for u in range(g.n) for v in range(g.n)
         if u != v and variant_pair(variant, dist[u][v], dist[v][u]) == diameter),
        None,
    )
    return EccentricityReport(variant, ecc, radius, diameter, ecc.index(radius), witness)


def reference_read_graph(text):
    """The graph text format parsed one line at a time, raising the first
    fault in file order: the line-by-line parser that ``read_graph``'s bulk
    parse must agree with, message for message."""
    header = None
    edges = []
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if header is None:
            if parts[0] != "p" or len(parts) != 5:
                raise GraphFormatError(f"bad header line: {raw!r}")
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise GraphFormatError(f"bad header counts: {raw!r}") from exc
            if n < 0 or m < 0:
                raise GraphFormatError(f"negative header counts: {raw!r}")
            if parts[3] not in ("D", "U") or parts[4] not in ("W", "1"):
                raise GraphFormatError(f"bad header flags: {raw!r}")
            header = (n, m, parts[3], parts[4])
            continue
        weighted = header[3] == "W"
        if len(parts) != 2 + weighted:
            raise GraphFormatError(f"expected {'u v w' if weighted else 'u v'!r}: {raw!r}")
        try:
            edges.append((int(parts[0]), int(parts[1]), int(parts[2]) if weighted else 1))
        except ValueError as exc:
            raise GraphFormatError(f"non-integer in edge line: {raw!r}") from exc
    if header is None:
        raise GraphFormatError("missing header line")
    n, m, kind, _ = header
    if len(edges) != m:
        raise GraphFormatError(f"header announces {m} edges, found {len(edges)}")
    return Graph(n, edges, undirected=(kind == "U"))


def reference_read_td(text, n):
    """The .td format parsed into a list of (bag id, bag) lines and checked
    after the last line: the parser that ``read_td``'s streaming one must
    agree with, result for result and message for message."""
    bag_lines = []
    edges = []
    header = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("c "):
            continue
        parts = line.split()
        if parts[0] == "s" and (len(parts) != 5 or parts[1] != "td"):
            raise DecompositionError(f"bad solution line: {raw!r}")
        if parts[0] == "s" and header is not None:
            raise DecompositionError(f"second 's td' line: {raw!r}")
        try:
            if parts[0] == "s":
                header = (int(parts[2]), int(parts[3]), int(parts[4]))
            elif parts[0] == "b":
                bag_lines.append((int(parts[1]), frozenset(int(x) for x in parts[2:])))
            elif len(parts) != 2:  # reported below as a malformed line
                raise ValueError("bad tree edge line")
            else:
                edges.append((int(parts[0]) - 1, int(parts[1]) - 1))
        except (ValueError, IndexError) as exc:
            raise DecompositionError(f"malformed .td line: {raw!r}") from exc
    if header is None:
        raise DecompositionError("missing 's td' line")
    nb, size, header_n = header
    if header_n != n:
        raise DecompositionError(f"'s td' line gives {header_n} vertices, the graph has {n}")
    bags = {}
    for i, bag in bag_lines:
        if not 1 <= i <= nb:
            raise DecompositionError(f"bag id {i} outside 1..{nb}")
        if i in bags:
            raise DecompositionError(f"bag id {i} listed twice")
        bags[i] = bag
    # A bag count the tree-edge lines cannot connect is refused before the
    # empty bags are built: validate's message, without the header's N alone
    # deciding an allocation.
    if nb > len(edges) + 1:
        raise DecompositionError(f"bag tree must have {nb - 1} edges, found {len(edges)}")
    td = TreeDecomposition([bags.get(i, frozenset()) for i in range(1, nb + 1)], edges)
    if size != td.width + 1:
        raise DecompositionError(f"'s td' line gives bag size {size}, the largest bag has {td.width + 1}")
    return td


def reference_validate(td, g):
    """Every check of a tree decomposition by plain scans, raising the first
    fault in this order: bag tree, vertex range, a vertex in no bag, the
    first edge of g.edges in no bag, then the first vertex whose bags are
    not connected.  ``TreeDecomposition.validate`` must raise the same."""
    nb = len(td.bags)
    if nb == 0:
        raise DecompositionError("decomposition has no bags")
    if len(td.tree) != nb - 1:
        raise DecompositionError(f"bag tree must have {nb - 1} edges, found {len(td.tree)}")
    for i, j in td.tree:
        if not (0 <= i < nb and 0 <= j < nb):
            raise DecompositionError(f"bag tree edge ({i},{j}) out of range")
    adj = td.neighbors()
    seen, stack = {0}, [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    if len(seen) != nb:
        raise DecompositionError("bag tree is not connected")
    covered = set().union(*td.bags)
    outside = [v for v in covered if not 0 <= v < g.n]
    if outside:
        raise DecompositionError(f"bag vertices outside 0..{g.n - 1}: {sorted(outside)[:5]}")
    missing = set(range(g.n)) - covered
    if missing:
        raise DecompositionError(f"vertices not covered by any bag: {sorted(missing)[:5]}")
    where = [[] for _ in range(g.n)]
    for bi, b in enumerate(td.bags):
        for v in b:
            where[v].append(bi)
    for u, v, _ in g.edges:
        if not any(v in td.bags[bi] for bi in where[u]):
            raise DecompositionError(f"edge ({u},{v}) not covered by any bag")
    # The bags containing v induce a forest of the bag tree, which is one
    # subtree exactly when its tree edges number one less than its bags.
    shared = [0] * g.n
    for i, j in td.tree:
        for v in td.bags[i] & td.bags[j]:
            shared[v] += 1
    for v in range(g.n):
        if shared[v] != len(where[v]) - 1:
            raise DecompositionError(f"bags containing vertex {v} are not connected")


def random_digraph(rng, n, m, max_weight=1):
    edges = []
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            w = 1 if max_weight <= 1 else rng.randint(1, max_weight)
            edges.append((u, v, w))
    return Graph(n, edges, undirected=False)


def random_undirected(rng, n, m, max_weight=1):
    edges = []
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            w = 1 if max_weight <= 1 else rng.randint(1, max_weight)
            edges.append((u, v, w))
    return Graph(n, edges, undirected=True)


def random_dag(rng, n, m, max_weight=1):
    edges = []
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        if u > v:
            u, v = v, u
        w = 1 if max_weight <= 1 else rng.randint(1, max_weight)
        edges.append((u, v, w))
    return Graph(n, edges, undirected=False)


def mixed_graph(rng, max_n, max_weight):
    """A graph on 1..max_n vertices, directed or undirected, with weights
    0..max_weight (all 1 when max_weight is 1), and a spanning cycle about
    half the time, so that both finite and INF eccentricities occur."""
    n = rng.randint(1, max_n)
    weight = (lambda: 1) if max_weight == 1 else (lambda: rng.randint(0, max_weight))
    edges = [(rng.randrange(n), rng.randrange(n), weight()) for _ in range(rng.randint(0, 2 * n))]
    if rng.random() < 0.5:
        edges += [(i, (i + 1) % n, weight()) for i in range(n)]
    return Graph(n, edges, undirected=rng.random() < 0.3)


def all_small_digraphs(max_n):
    """Every simple digraph on up to max_n vertices (unit weights)."""
    for n in range(1, max_n + 1):
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for bits in range(1 << len(arcs)):
            edges = [arcs[i] for i in range(len(arcs)) if bits >> i & 1]
            yield Graph(n, edges, undirected=False)


def sampled_small_digraphs(max_n, per_n, rng):
    """A deterministic sample of simple digraphs for each n <= max_n."""
    for n in range(1, max_n + 1):
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
        total = 1 << len(arcs)
        if total <= per_n:
            picks = range(total)
        else:
            picks = [rng.randrange(total) for _ in range(per_n)]
        for bits in picks:
            edges = [arcs[i] for i in range(len(arcs)) if bits >> i & 1]
            yield Graph(n, edges, undirected=False)


def reference_reduce23(g, target, rng, delta=None, rounds=20):
    """The 2-vs-3 reduction built from full hashed masks: each diameter round
    hands the low-degree masks to `solve_set_system`; each radius round keeps
    the candidates, after dropping those at distance >= 3 from a high-degree
    vertex, whose mask meets every low-degree mask."""
    if delta is None:
        delta = default_delta(g)
    width = 10 * delta * delta
    nbhd = closed_neighborhoods(g)
    high = [v for v in range(g.n) if len(g.adj_out[v]) >= delta]
    low = [v for v in range(g.n) if len(g.adj_out[v]) < delta]
    far = set()
    for v in high:
        dist = shortest_paths(g, v)
        far_v = [u for u in range(g.n) if dist[u] >= 3]
        if target == DIAMETER and far_v:
            return ReductionResult(3, DIAMETER, (v, far_v[0]), 0, delta, width, high,
                                   notes="high-degree traversal")
        if target == RADIUS and not far_v:
            return ReductionResult(2, RADIUS, v, 0, delta, width, high,
                                   notes="high-degree traversal")
        far.update(far_v)
    if target == DIAMETER:
        if not low:  # every pair touches a high-degree vertex: no round is drawn
            rounds = 0
        for rnd in range(rounds):
            masks = hashed_masks([nbhd[v] for v in low], width, rng)
            found, wit = solve_set_system(SetSystemInstance(width, masks, masks, OV))
            if found:
                return ReductionResult(3, DIAMETER, (low[wit[0]], low[wit[1]]), rnd + 1,
                                       delta, width, high, notes="hashed round")
        return ReductionResult(2, DIAMETER, None, rounds, delta, width, high)
    survivors = [c for c in low if c not in far]
    used = 0
    while survivors and used < rounds:
        masks = hashed_masks(nbhd, width, rng)
        survivors = [c for c in survivors if all(masks[c] & masks[v] for v in low)]
        used += 1
    if survivors:
        return ReductionResult(2, RADIUS, survivors[0], used, delta, width, high,
                               notes="hashed rounds")
    return ReductionResult(3, RADIUS, None, used, delta, width, high)


def cli_flags():
    """Each ecclab subcommand's flags, as build_parser() defines them."""
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
            for name, p in action.choices.items()}
