"""Per-layer tracing from outside the program.

``install`` replaces public functions of ``ecclab`` at the names their callers
bind (``ecclab.treewidth.shortest_paths`` is the portal SSSP,
``ecclab.oracle.shortest_paths`` the oracle sweep) with wrappers that record a
span each: name, start, end, parent span and job id, kept in flat arrays and
written out at the end.  ``uninstall`` puts the originals back, so untraced
rounds run the unmodified program.  Counters that need the call's arguments
or result (arcs scanned, cells of a three-layer instance, portals) are summed
at the same boundaries.

``RangeMaxIndex`` builds and queries are recorded at top level only: the
traced subclass swaps the plain class back in while it builds, so the nested
per-level indexes are plain, untraced objects.
"""

from __future__ import annotations

import gzip
import weakref
from array import array
from collections import Counter, defaultdict
from time import perf_counter

from ecclab import approx, cli, gadgets, oracle, rangemax, reduce23, setsystem, treewidth


# Per-layer metrics of a traced run, with units; BENCHMARK.json lists the same.
COUNT = "count"
METRICS = {
    "graph.bfs_calls": COUNT, "graph.bfs_s": "s",
    "graph.dijkstra_calls": COUNT, "graph.dijkstra_s": "s",
    "graph.sssp_arcs": COUNT,
    "graph.truncated_calls": COUNT, "graph.truncated_s": "s", "graph.scc_s": "s",
    "oracle.calls": COUNT, "oracle.s": "s", "oracle.sweep_s": "s", "oracle.pair_loop_s": "s",
    "oracle.pairs": COUNT, "oracle.median_s": "s",
    "treewidth.calls": COUNT, "treewidth.s": "s", "treewidth.self_s": "s",
    "treewidth.validate_s": "s", "treewidth.mindeg_s": "s",
    "treewidth.split_calls": COUNT, "treewidth.split_s": "s", "treewidth.split_fallbacks": COUNT,
    "treewidth.portals_max": COUNT,
    "treewidth.portal_sssp_calls": COUNT, "treewidth.portal_sssp_s": "s",
    "treewidth.base_calls": COUNT, "treewidth.base_vertices": COUNT, "treewidth.base_s": "s",
    "rangemax.calls": COUNT, "rangemax.s": "s", "rangemax.cells": COUNT, "rangemax.middle_max": COUNT,
    "rangemax.index_builds": COUNT, "rangemax.index_build_s": "s",
    "rangemax.index_queries": COUNT, "rangemax.index_query_s": "s",
    "rangemax.brute_calls": COUNT, "rangemax.brute_s": "s",
    "approx.source_radius_s": "s", "approx.min_diameter_s": "s", "approx.min_diameter_dag_s": "s",
    "approx.min_radius_dag_s": "s", "approx.finite_min_ecc_s": "s",
    "approx.sssp_calls": COUNT, "approx.center_calls": COUNT,
    "approx.factor_mean": "ratio",
    "reduce23.calls": COUNT, "reduce23.s": "s", "reduce23.self_s": "s", "reduce23.high_degree": COUNT,
    "reduce23.high_sssp_s": "s", "reduce23.rounds": COUNT, "reduce23.hash_s": "s",
    "setsystem.solve_calls": COUNT, "setsystem.solve_s": "s",
    "gadgets.build_s": "s",
    "cli.calls": COUNT, "cli.s": "s", "cli.io_s": "s",
    "cli.s.undirected": "s", "cli.s.source": "s", "cli.s.max": "s", "cli.s.min": "s",
    "cli.s.roundtrip": "s", "cli.s.approx": "s", "cli.s.reduce23": "s",
    "trace.overhead": "ratio",
}
COUNTERS = sorted(name for name, unit in METRICS.items() if unit == COUNT)


class Tracer:
    """Spans in flat arrays; ``job`` is the id stamped on new spans."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.jobs = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job = -1
        self.count = Counter()
        self.peak = Counter()
        self._patched = []

    def begin(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.jobs.append(self.job)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    def __len__(self):
        return len(self.start)

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr, name, on_call=None, on_result=None):
        fn = getattr(owner, attr)
        begin, finish = self.begin, self.finish

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args)
            i = begin(name(*args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(i)
            if on_result is not None:
                on_result(result)
            return result

        self._patch(owner, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self):
        count, peak = self.count, self.peak
        split_graphs = weakref.WeakSet()

        def sssp_name(site):
            def name(g, *args):
                return f"graph.{'bfs' if g.unit_weights else 'dijkstra'}:{site}"
            return name

        def sssp_call(g, *args):
            count["graph.sssp_arcs"] += g.m * (2 if g.undirected else 1)

        for site in (oracle, treewidth, approx, reduce23):
            self.wrap(site, "shortest_paths", sssp_name(site.__name__.split(".")[-1]), sssp_call)
        self.wrap(approx, "truncated_shortest_paths", "graph.truncated")
        self.wrap(approx, "condense_scc", "graph.scc")

        def pairs(g, *args):
            count["oracle.pairs"] += g.n * (g.n - 1)

        def base_case(g, *args):
            pairs(g)
            count["treewidth.base_vertices"] += g.n
            if g in split_graphs:
                count["treewidth.split_fallbacks"] += 1

        self.wrap(cli, "exact_eccentricities", "oracle.ecc:cli", pairs)
        self.wrap(cli, "exact_median", "oracle.median")
        self.wrap(oracle, "all_pairs", "oracle.all_pairs")

        self.wrap(cli, "tw_eccentricities", "treewidth.tw")
        self.wrap(cli, "min_degree_decomposition", "treewidth.mindeg")
        self.wrap(treewidth.TreeDecomposition, "validate", "treewidth.validate")

        def portals(split):
            peak["treewidth.portals_max"] = max(peak["treewidth.portals_max"], len(split.portals))

        self.wrap(treewidth, "find_portal_split", "treewidth.split",
                  lambda g, *args: split_graphs.add(g), portals)
        self.wrap(treewidth, "exact_eccentricities", "oracle.ecc:treewidth", base_case)

        def three_layer(inst, *args):
            count["rangemax.cells"] += inst.na * inst.nb * inst.nc
            peak["rangemax.middle_max"] = max(peak["rangemax.middle_max"], inst.nb)

        self.wrap(treewidth, "three_layer_farthest", "rangemax.farthest", three_layer)
        self.wrap(rangemax, "three_layer_brute", "rangemax.brute")
        self._patch(rangemax, "RangeMaxIndex", self._traced_index(rangemax.RangeMaxIndex))

        for fn, short in (("approx_source_radius", "source_radius"),
                          ("approx_min_diameter", "min_diameter"),
                          ("approx_min_diameter_dag", "min_diameter_dag"),
                          ("approx_min_radius_dag", "min_radius_dag"),
                          ("finite_min_eccentricities", "finite_min_ecc")):
            self.wrap(cli, fn, f"approx.{short}")
        self.wrap(approx, "approximate_center", "approx.center")

        def reduced(res):
            count["reduce23.high_degree"] += len(res.high_degree)
            count["reduce23.rounds"] += res.rounds_used

        self.wrap(cli, "reduce_decision23_to_set_system", "reduce23.reduce", on_result=reduced)
        self.wrap(reduce23, "hashed_masks", "reduce23.hash")
        for site in (reduce23, gadgets, setsystem):
            self.wrap(site, "solve_set_system", "setsystem.solve")
        for fn in dir(cli):
            if fn.startswith("gadget_"):
                self.wrap(cli, fn, "gadgets.build")
        for fn in ("read_graph", "write_graph", "read_td", "write_td"):
            self.wrap(cli, fn, "cli.io")

    def _traced_index(self, plain):
        begin, finish = self.begin, self.finish

        class TracedRangeMaxIndex(plain):
            def __init__(self, dims, points):
                i = begin("rangemax.index_build")
                rangemax.RangeMaxIndex = plain
                try:
                    super().__init__(dims, points)
                finally:
                    rangemax.RangeMaxIndex = TracedRangeMaxIndex
                    finish(i)

            def query(self, box):
                i = begin("rangemax.index_query")
                try:
                    return super().query(box)
                finally:
                    finish(i)

        return TracedRangeMaxIndex

    # -- analysis -----------------------------------------------------------

    def aggregate(self, lo, hi):
        """Per span name over spans lo..hi-1: [calls, total seconds, self seconds].

        Self time is a span's duration minus that of its direct children.
        """
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        own = dur[:]
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                own[p - lo] -= dur[i - lo]
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(lo, hi):
            a = agg[self.names[self.name[i]]]
            a[0] += 1
            a[1] += dur[i - lo]
            a[2] += own[i - lo]
        return agg

    def write(self, path, job_names):
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for i in range(len(self.start)):
                job = self.jobs[i]
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                         f"{self.parent[i]}\t{job_names[job] if job >= 0 else 'setup'}\n")


def layer_metrics(agg, count, peak, cls_totals):
    """Per-layer metrics from one scope's span aggregate and counters."""

    def calls(*names):
        return sum(agg[n][0] for n in names if n in agg)

    def total(*names):
        return sum(agg[n][1] for n in names if n in agg)

    def own(*names):
        return sum(agg[n][2] for n in names if n in agg)

    def matching(prefix, suffix=""):
        return [n for n in agg if n.startswith(prefix) and n.endswith(suffix)]

    bfs, dij = matching("graph.bfs:"), matching("graph.dijkstra:")
    m = {
        "graph.bfs_calls": calls(*bfs), "graph.bfs_s": total(*bfs),
        "graph.dijkstra_calls": calls(*dij), "graph.dijkstra_s": total(*dij),
        "graph.sssp_arcs": count["graph.sssp_arcs"],
        "graph.truncated_calls": calls("graph.truncated"), "graph.truncated_s": total("graph.truncated"),
        "graph.scc_s": total("graph.scc"),
        "oracle.calls": calls("oracle.ecc:cli", "oracle.ecc:treewidth", "oracle.median"),
        "oracle.s": total("oracle.ecc:cli", "oracle.ecc:treewidth", "oracle.median"),
        "oracle.sweep_s": total("oracle.all_pairs"),
        "oracle.pair_loop_s": own("oracle.ecc:cli", "oracle.ecc:treewidth"),
        "oracle.pairs": count["oracle.pairs"],
        "oracle.median_s": total("oracle.median"),
        "treewidth.calls": calls("treewidth.tw"), "treewidth.s": total("treewidth.tw"),
        "treewidth.self_s": own("treewidth.tw"),
        "treewidth.validate_s": total("treewidth.validate"), "treewidth.mindeg_s": total("treewidth.mindeg"),
        "treewidth.split_calls": calls("treewidth.split"), "treewidth.split_s": total("treewidth.split"),
        "treewidth.split_fallbacks": count["treewidth.split_fallbacks"],
        "treewidth.portals_max": peak["treewidth.portals_max"],
        "treewidth.portal_sssp_calls": calls(*matching("graph.", ":treewidth")),
        "treewidth.portal_sssp_s": total(*matching("graph.", ":treewidth")),
        "treewidth.base_calls": calls("oracle.ecc:treewidth"),
        "treewidth.base_vertices": count["treewidth.base_vertices"],
        "treewidth.base_s": total("oracle.ecc:treewidth"),
        "rangemax.calls": calls("rangemax.farthest"), "rangemax.s": total("rangemax.farthest"),
        "rangemax.cells": count["rangemax.cells"], "rangemax.middle_max": peak["rangemax.middle_max"],
        "rangemax.index_builds": calls("rangemax.index_build"),
        "rangemax.index_build_s": total("rangemax.index_build"),
        "rangemax.index_queries": calls("rangemax.index_query"),
        "rangemax.index_query_s": total("rangemax.index_query"),
        "rangemax.brute_calls": calls("rangemax.brute"), "rangemax.brute_s": total("rangemax.brute"),
        "approx.sssp_calls": calls(*matching("graph.", ":approx")),
        "approx.center_calls": calls("approx.center"),
        "reduce23.calls": calls("reduce23.reduce"), "reduce23.s": total("reduce23.reduce"),
        "reduce23.self_s": own("reduce23.reduce"),
        "reduce23.high_degree": count["reduce23.high_degree"],
        "reduce23.high_sssp_s": total(*matching("graph.", ":reduce23")),
        "reduce23.rounds": count["reduce23.rounds"], "reduce23.hash_s": total("reduce23.hash"),
        "setsystem.solve_calls": calls("setsystem.solve"), "setsystem.solve_s": total("setsystem.solve"),
        "gadgets.build_s": total("gadgets.build"),
        "cli.calls": calls("cli.main"), "cli.s": total("cli.main"), "cli.io_s": total("cli.io"),
    }
    for short in ("source_radius", "min_diameter", "min_diameter_dag", "min_radius_dag", "finite_min_ecc"):
        m[f"approx.{short}_s"] = total(f"approx.{short}")
    for cls, seconds in cls_totals.items():
        m[f"cli.s.{cls}"] = seconds
    return m
