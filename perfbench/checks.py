"""Correctness gate: every job's output against the oracle or its documented
guarantee, computed after the timed phase.

``Verifier.check`` returns ``(reason, factor)``: ``reason`` is None when the
output is right and a one-line explanation when it is wrong; ``factor`` is the
realised approximation factor of an ``approx`` job (true/estimate for
lower-side estimates, estimate/true for upper-side ones), else None.
"""

from __future__ import annotations

import json
import math

from ecclab import graph, oracle

INF = graph.INF
# Largest graph checked with the oracle; above it the 2-vs-3 value of a
# reduce input comes from two-hop neighbourhood bitsets.
ORACLE_MAX_N = 1600


def _dec(x):
    return INF if x == "inf" else x


class Verifier:
    def __init__(self, inputs):
        self.inputs = inputs
        self._graphs = {}
        self._reports = {}

    def graph(self, gname):
        if gname not in self._graphs:
            with open(self.inputs.graphs[gname], encoding="utf-8") as fh:
                self._graphs[gname] = graph.read_graph(fh.read())
        return self._graphs[gname]

    def report(self, gname, variant):
        key = (gname, variant)
        if key not in self._reports:
            self._reports[key] = oracle.exact_eccentricities(self.graph(gname), variant, cap=None)
        return self._reports[key]

    def check(self, job, rc, text):
        kind, gname = job.check[0], job.check[1]
        if rc != 0:
            return f"exit code {rc}", None
        if kind == "exit0":
            return None, None
        try:
            out = json.loads(text)
        except ValueError:
            return "output is not JSON", None
        if kind == "ecc":
            return self._check_ecc(gname, job.check[2], out), None
        if kind == "median":
            want = oracle.exact_median(self.graph(gname), cap=None)
            got = (out["median"], _dec(out["sum"]))
            return (None if got == want else f"median {got} != oracle {want}"), None
        if kind == "approx":
            return self._check_approx(gname, job.check[2], out)
        if kind == "reduce":
            return self._check_reduce(gname, job.check[2], out), None
        raise ValueError(f"unknown check {kind!r}")

    def _check_ecc(self, gname, variant, out):
        want = self.report(gname, variant)
        if want.radius == INF:
            return "input has every eccentricity INF"
        got = ([_dec(e) for e in out["ecc"]], _dec(out["radius"]), _dec(out["diameter"]), out["center"])
        if got != (want.ecc, want.radius, want.diameter, want.center):
            bad = sum(a != b for a, b in zip(got[0], want.ecc))
            return f"{variant}: {bad} eccentricities differ from the oracle"
        return None

    def _check_approx(self, gname, algorithm, out):
        g = self.graph(gname)
        if algorithm == "finite-min-ecc":
            want = [e != INF for e in self.report(gname, "min").ecc]
            return (None if out["finite"] == want else "finite flags differ from the oracle"), None
        est, witness = _dec(out["estimate"]), out["witness"]
        if algorithm == "source-radius":
            rep = self.report(gname, "source")
            true, ok = rep.radius, rep.radius <= est <= 2 * rep.radius and rep.ecc[witness] == est
            factor = est / true if true else 1.0
        elif algorithm == "min-diameter":
            true = self.report(gname, "min").diameter
            ok = est <= true <= max(3, math.ceil(g.n ** 0.5)) * est
            factor = true / est if est else 1.0
        elif algorithm == "min-diameter-dag":
            true = self.report(gname, "min").diameter
            ok = true <= 2 * est and est <= true
            factor = true / est if est else 1.0
        elif algorithm == "min-radius-dag":
            rep = self.report(gname, "min")
            true, ok = rep.radius, est <= rep.radius and rep.ecc[witness] <= 3 * rep.radius
            factor = true / est if est else 1.0
        else:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        if true == INF:
            return "input has an INF true value", None
        return (None if ok else f"estimate {est} breaks the guarantee, true {true}"), factor

    def _check_reduce(self, gname, target, out):
        g = self.graph(gname)
        if g.n <= ORACLE_MAX_N:
            rep = self.report(gname, "undirected")
            true = rep.radius if target == "radius" else rep.diameter
        else:
            true = two_vs_three(g, target)
        if true not in (2, 3):
            return f"input {target} is {true}, not 2 or 3"
        return None if out["value"] == true else f"answered {out['value']}, true {target} {true}"


def two_vs_three(g, target):
    """Exact radius or diameter of an undirected graph when it is 2 or 3, else None.

    ecc(v) <= k exactly when the k-step closed neighbourhood of v, kept as a
    bitset, holds every vertex.
    """
    full = (1 << g.n) - 1
    adj = g.adj_out
    reach = [1 << v for v in range(g.n)]
    levels = []
    for _ in range(3):
        nxt = []
        for v in range(g.n):
            m = reach[v]
            for u, _ in adj[v]:
                m |= reach[u]
            nxt.append(m)
        reach = nxt
        levels.append([m == full for m in reach])
    pick = any if target == "radius" else all
    for k in (2, 3):
        if pick(levels[k - 1]) and not pick(levels[k - 2]):
            return k
    return None
