"""Shared helpers: independent reference implementations used as oracles."""

from __future__ import annotations

import argparse
import itertools
import random

from ecclab.cli import build_parser
from ecclab.graph import INF, Graph, shortest_paths
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
