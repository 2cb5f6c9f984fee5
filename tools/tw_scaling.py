"""Scaling of the treewidth solver against the level sweep.

    python3 tools/tw_scaling.py                 # n = 1,600, 3,200 and 6,400
    python3 tools/tw_scaling.py --n 12800 25600
    python3 tools/tw_scaling.py --family cycle --n 1600 3200
    python3 tools/tw_scaling.py --family cylinder --n 1600 3200

For each n the input is one undirected graph of the family:

- ``ktree`` (default): the 3-tree ``generate_partial_ktree(n, 3, 1.0,
  Random(1))`` with the generator's decomposition; the solver's sweep
  answers it at the top of the recursion;
- ``cycle``: the unit cycle 0..n-1 with the width-2 decomposition of bags
  {0, i, i+1}; its diameter is n // 2, so the sweep gives up at the upper
  nodes and the solver splits them;
- ``cylinder``: the 2 x L cylinder, n = 2L: the unit cycles 0..L-1 and
  L..2L-1 joined by the rungs (i, L + i), with the width-5 decomposition of
  bags {0, L, i, i+1, L+i, L+i+1}; its diameter is about L / 2 + 1, so the
  solver splits there too, on up to six portals.

Four cases run on it, each in its own subprocess so that the process's
peak RSS is the case's own:

- ``td``: ``read_td(text, n).validate(g)`` on the family's decomposition,
  ``text`` its ``write_td`` (written before the clock starts): what ``ecclab
  tw --td`` pays to read and check it.  It computes no eccentricities, so
  its digest is ``-`` and it is outside the agreement check;
- ``tw-td``: ``tw_eccentricities`` with the family's decomposition;
- ``tw-mindeg``: ``min_degree_decomposition`` then ``tw_eccentricities``,
  the ``ecclab tw`` path without ``--td`` (the time includes both);
- ``sweep``: ``oracle.sweep_ecc(g, "undirected", None)``.

A header line gives the Python version and the CPU count.  Each row gives
the solve time (the graph's generation is not timed), the peak RSS of the
whole process and a digest of the eccentricities.  The
script exits 1 when two cases of one n disagree, and notes a sweep that
gave up (returned None) without counting it as a disagreement.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from random import Random

SRC = Path(__file__).resolve().parent.parent / "src"
CASES = ("td", "tw-td", "tw-mindeg", "sweep")
FAMILIES = ("ktree", "cycle", "cylinder")


def build(family, n):
    """The family's n-vertex graph and its decomposition."""
    from ecclab.graph import Graph
    from ecclab.treewidth import TreeDecomposition, generate_partial_ktree

    if family == "ktree":
        return generate_partial_ktree(n, 3, 1.0, Random(1))
    if family == "cycle":
        g = Graph(n, [(u, (u + 1) % n) for u in range(n)], undirected=True)
        return g, TreeDecomposition([{0, i, i + 1} for i in range(1, n - 1)],
                                    [(i, i + 1) for i in range(n - 3)])
    L = n // 2
    edges = [(s + u, s + (u + 1) % L) for s in (0, L) for u in range(L)]
    g = Graph(2 * L, edges + [(u, L + u) for u in range(L)], undirected=True)
    return g, TreeDecomposition([{0, L, i, i + 1, L + i, L + i + 1} for i in range(1, L - 1)],
                                [(i, i + 1) for i in range(L - 3)])


def run_case(family, case, n):
    """Time one case on the family's n-vertex graph; return its row as a dict."""
    sys.path.insert(0, str(SRC))
    from ecclab.oracle import sweep_ecc
    from ecclab.treewidth import min_degree_decomposition, read_td, tw_eccentricities, write_td

    g, td = build(family, n)
    text = write_td(td, n) if case == "td" else None
    start = time.perf_counter()
    if case == "td":
        read_td(text, n).validate(g)
        ecc = "-"
    elif case == "tw-td":
        ecc = tw_eccentricities(g, td, "undirected").ecc
    elif case == "tw-mindeg":
        ecc = tw_eccentricities(g, min_degree_decomposition(g), "undirected").ecc
    else:
        ecc = sweep_ecc(g, "undirected", None)
    seconds = time.perf_counter() - start
    digest = ecc if ecc in (None, "-") else hashlib.sha256(json.dumps(ecc).encode()).hexdigest()[:12]
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"case": case, "n": n, "s": seconds, "peak_rss_mb": peak_mb, "digest": digest}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, nargs="+", default=[1600, 3200, 6400],
                    help="graph sizes (default: 1600 3200 6400)")
    ap.add_argument("--family", choices=FAMILIES, default="ktree",
                    help="input family (default: ktree)")
    ap.add_argument("--case", choices=CASES, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.case:
        print(json.dumps(run_case(args.family, args.case, args.n[0])))
        return 0

    print(f"# Python {platform.python_version()}, {os.cpu_count()} CPUs, family {args.family}")
    print(f"{'n':>7} {'case':<10} {'time s':>8} {'peak MB':>8}  digest")
    ok = True
    for n in args.n:
        digests = set()
        for case in CASES:
            proc = subprocess.run([sys.executable, __file__, "--family", args.family,
                                   "--case", case, "--n", str(n)],
                                  capture_output=True, text=True, check=True)
            row = json.loads(proc.stdout.splitlines()[-1])
            digest = row["digest"] or "gave up"
            print(f"{n:>7} {case:<10} {row['s']:>8.2f} {row['peak_rss_mb']:>8.1f}  {digest}",
                  flush=True)
            if row["digest"] not in (None, "-"):
                digests.add(row["digest"])
        if len(digests) > 1:
            print(f"error: the cases disagree at n={n}", file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
