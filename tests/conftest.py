"""Shared helpers: independent reference implementations used as oracles."""

from __future__ import annotations

import itertools
import random

from ecclab.graph import INF, Graph
from ecclab.oracle import EccentricityReport


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
