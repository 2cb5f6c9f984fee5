"""Scaling of the treewidth solver against the level sweep on 3-trees.

    python3 tools/tw_scaling.py                 # n = 1,600, 3,200 and 6,400
    python3 tools/tw_scaling.py --n 12800 25600

For each n the input is the undirected 3-tree
``generate_partial_ktree(n, 3, 1.0, Random(1))``.  Three cases run on it,
each in its own subprocess so that the process's peak RSS is the case's own:

- ``tw-td``: ``tw_eccentricities`` with the generator's decomposition;
- ``tw-mindeg``: ``min_degree_decomposition`` then ``tw_eccentricities``,
  the ``ecclab tw`` path without ``--td`` (the time includes both);
- ``sweep``: ``oracle.sweep_ecc(g, "undirected", None)``.

Each row gives the solve time (the graph's generation is not timed), the
peak RSS of the whole process and a digest of the eccentricities.  The
script exits 1 when two cases of one n disagree, and notes a sweep that
gave up (returned None) without counting it as a disagreement.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from random import Random

SRC = Path(__file__).resolve().parent.parent / "src"
CASES = ("tw-td", "tw-mindeg", "sweep")


def run_case(case, n):
    """Time one case on the n-vertex 3-tree; return its row as a dict."""
    sys.path.insert(0, str(SRC))
    from ecclab.oracle import sweep_ecc
    from ecclab.treewidth import generate_partial_ktree, min_degree_decomposition, tw_eccentricities

    g, td = generate_partial_ktree(n, 3, 1.0, Random(1))
    start = time.perf_counter()
    if case == "tw-td":
        ecc = tw_eccentricities(g, td, "undirected").ecc
    elif case == "tw-mindeg":
        ecc = tw_eccentricities(g, min_degree_decomposition(g), "undirected").ecc
    else:
        ecc = sweep_ecc(g, "undirected", None)
    seconds = time.perf_counter() - start
    digest = None if ecc is None else hashlib.sha256(json.dumps(ecc).encode()).hexdigest()[:12]
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"case": case, "n": n, "s": seconds, "peak_rss_mb": peak_mb, "digest": digest}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, nargs="+", default=[1600, 3200, 6400],
                    help="graph sizes (default: 1600 3200 6400)")
    ap.add_argument("--case", choices=CASES, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.case:
        print(json.dumps(run_case(args.case, args.n[0])))
        return 0

    print(f"{'n':>7} {'case':<10} {'time s':>8} {'peak MB':>8}  digest")
    ok = True
    for n in args.n:
        digests = set()
        for case in CASES:
            proc = subprocess.run([sys.executable, __file__, "--case", case, "--n", str(n)],
                                  capture_output=True, text=True, check=True)
            row = json.loads(proc.stdout.splitlines()[-1])
            digest = row["digest"] or "gave up"
            print(f"{n:>7} {case:<10} {row['s']:>8.2f} {row['peak_rss_mb']:>8.1f}  {digest}",
                  flush=True)
            if row["digest"] is not None:
                digests.add(row["digest"])
        if len(digests) > 1:
            print(f"error: the cases disagree at n={n}", file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
