"""Benchmark of ecclab through its command line, run in process.

    python3 perfbench/run.py --workload tw-ktree --seed 1 --seconds 30 --trace 0

Set-up writes the workload's input files under ``.perfbench/work``; with
``--trace 0`` it runs three times before the timed phase, once after each
round and three times after, and ``setup_s`` is the median.  The timed phase
repeats the workload's job list in rounds until ``--seconds`` have passed.
Each job is one ``ecclab.cli.main(argv)`` call, after ``gc.collect()`` and a
timed run of a fixed reference loop (``Reference``).  ``solve_s`` is the
median over rounds of a round's summed job time.  ``solve_rel`` is the
median over rounds of a round's time over the median reference time in that
round: the round's cost in units of the machine's speed at the time.
``peak_rss_mb`` is ``ru_maxrss`` read once, right after the timed phase.
After set-up has run again, the first round's outputs are checked against
the oracle or the documented guarantee (checks.py), and every later round
must reproduce them byte for byte.  A job
that exits non-zero, raises, or gives a wrong output counts as failed; the
run never stops on one.  Probes, jobs that show a known defect of the
program, then run once, untimed; their check result is printed and recorded
but not counted.

``--trace 1`` runs half the time untraced and half (at least two rounds)
with the wrappers of tracing.py installed, and reports the per-layer metrics
of one set-up plus one traced round (median over traced rounds; counters must
agree across rounds).
``trace.overhead`` is the traced round time over the untraced one, minus 1.

Earlier stdout lines are a readable summary; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the
run (environment at start and end, per-round times, output digests, failures,
and for traced runs the per-layer metrics and a span file) goes to
``.perfbench/runs`` or to ``--record``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("tw-ktree", "oracle-gadgets", "approx-reduce")
SETUP_REPEATS = 3
END_TO_END = {"setup_s": "s", "solve_rel": "ratio", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="run record path (default .perfbench/runs/...)")
    return p.parse_args(argv)


def env_info():
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "unix_time": time.time(),
    }


class Reference:
    """A fixed Dijkstra search with ``heapq`` in plain Python, the kind of
    work ecclab's oracle does, timed before every job of an untraced run.

    On a shared machine the speed of plain Python code moves between levels
    up to twice apart, for seconds to minutes at a time, and the jobs' times
    move with it.  A round's time over the median loop time in that round
    keeps the program's cost and drops most of the machine's speed.
    """

    N, M = 5000, 20000

    def __init__(self):
        rng = random.Random(0)
        self.adj = [[(v + 1, 5)] if v + 1 < self.N else [] for v in range(self.N)]
        for _ in range(self.M):
            self.adj[rng.randrange(self.N)].append((rng.randrange(self.N), rng.randint(1, 9)))
        self.times = []

    def measure(self):
        t0 = time.perf_counter()
        adj, dist, heap = self.adj, [None] * self.N, [(0, 0)]
        dist[0] = 0
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                if dist[v] is None or d + w < dist[v]:
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        self.times.append(time.perf_counter() - t0)


def run_job(cli, job, tracer=None, ref=None):
    """One timed ``cli.main`` call: (exit code or error text, seconds, output text)."""
    gc.collect()
    if ref is not None:
        ref.measure()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        t0 = time.perf_counter()
        span = tracer.begin("cli.main") if tracer is not None else None
        try:
            rc = cli.main(job.argv)
        except Exception as exc:  # a raising job is a failed job; the run goes on
            rc = f"raised {type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.finish(span)
        seconds = time.perf_counter() - t0
    text = buf.getvalue()
    if job.output is not None and rc == 0:
        with open(job.output, encoding="utf-8") as fh:
            text = fh.read()
    return rc, seconds, text


def run_rounds(cli, jobs, seconds, tracer=None, min_rounds=1, ref=None, after_round=None):
    """Rounds of the whole job list until ``seconds`` have passed and
    ``min_rounds`` have run.

    With ``ref``, the reference loop is timed before each job, and the
    round's ``rel`` is its time over the median loop time in the round.
    ``after_round`` runs after each round.
    """
    rounds = []
    t_start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - t_start < seconds:
        first_span = len(tracer) if tracer is not None else 0
        if tracer is not None:
            tracer.count.clear()
            tracer.peak.clear()
        results = []
        for j, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = j
            results.append(run_job(cli, job, tracer, ref))
        rnd = {"results": results, "total": sum(r[1] for r in results)}
        if ref is not None:
            rnd["rel"] = rnd["total"] / statistics.median(ref.times[-len(jobs):])
        if tracer is not None:
            rnd["spans"] = (first_span, len(tracer))
            rnd["count"], rnd["peak"] = Counter(tracer.count), Counter(tracer.peak)
        rounds.append(rnd)
        if after_round is not None:
            after_round()
    return rounds


def class_totals(jobs, rnd):
    totals = defaultdict(float)
    for job, (_, seconds, _) in zip(jobs, rnd["results"]):
        totals[job.cls] += seconds
    return totals


def check(verifier, job, rc, text):
    """(reason the output is wrong or None, realised approximation factor or None)."""
    try:
        return verifier.check(job, rc, text)
    except Exception as exc:  # a malformed output is a wrong output
        return f"check raised {type(exc).__name__}: {exc}", None


def verify(verifier, jobs, rounds):
    """Failures per (job, round) and the realised approximation factors."""
    failures, factors = [], []
    for j, job in enumerate(jobs):
        rc, _, text = rounds[0]["results"][j]
        reason, factor = check(verifier, job, rc, text)
        if factor is not None:
            factors.append(factor)
        for r, rnd in enumerate(rounds):
            if reason is not None:
                failures.append((job.name, r, reason))
            elif rnd["results"][j][::2] != (rc, text):
                failures.append((job.name, r, "output differs from round 0"))
    return failures, factors


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def traced_metrics(tracing, tracer, jobs, setup, rounds):
    """Per-layer metrics of set-up plus each traced round; median over rounds."""
    per_round = []
    for rnd in rounds:
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        for lo, hi in (setup["spans"], rnd["spans"]):
            for name, vals in tracer.aggregate(lo, hi).items():
                for k in range(3):
                    agg[name][k] += vals[k]
        per_round.append(tracing.layer_metrics(
            agg, setup["count"] + rnd["count"], setup["peak"] | rnd["peak"], class_totals(jobs, rnd)))
    metrics = {}
    for name, unit in tracing.METRICS.items():
        values = [m.get(name, 0) for m in per_round]
        metrics[name] = statistics.median(values) if unit != tracing.COUNT else values[0]
    same = all(all(m.get(c, 0) == per_round[0].get(c, 0) for c in tracing.COUNTERS) for m in per_round)
    return metrics, same


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "ecclab" / "__init__.py").is_file():
        print(f"error: no ecclab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from ecclab import cli
    import checks
    import inputs
    import tracing

    env_start = env_info()
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    build = inputs.WORKLOAD_INPUTS[args.workload]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env_start": env_start}
    try:
        tracer = tracing.Tracer() if args.trace else None
        setup_times = []

        def set_up():
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            t0 = time.perf_counter()
            built = build(args.seed, str(workdir))
            setup_times.append(time.perf_counter() - t0)
            return built

        if tracer is None:
            # Set-up runs before, between the rounds of and after the timed
            # phase (rewriting the same files), so its median covers the
            # machine's state over the run.
            for _ in range(SETUP_REPEATS):
                inp = set_up()
            ref = Reference()
            rounds = untraced = run_rounds(cli, inp.jobs, args.seconds, ref=ref, after_round=set_up)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            for _ in range(SETUP_REPEATS):
                set_up()
        else:
            tracer.install()
            inp = set_up()
            tracer.uninstall()
            setup = {"spans": (0, len(tracer)), "count": Counter(tracer.count), "peak": Counter(tracer.peak)}
            untraced = run_rounds(cli, inp.jobs, args.seconds / 2)
            tracer.install()
            # Two traced rounds at least, so their counters can disagree.
            traced = run_rounds(cli, inp.jobs, args.seconds / 2, tracer, min_rounds=2)
            tracer.uninstall()
            rounds = untraced + traced
        jobs = inp.jobs
        verifier = checks.Verifier(inp)
        failures, factors = verify(verifier, jobs, rounds)
        # Probes of a known defect run once, untimed; their result is shown
        # and recorded but does not count as a failure.
        probes = [(job.name, check(verifier, job, *run_job(cli, job)[::2])[0]) for job in inp.probes]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(jobs) * len(rounds)
    factor_mean = statistics.fmean(factors) if factors else None
    by_class = {cls: statistics.median(class_totals(jobs, r)[cls] for r in untraced)
                for cls in inputs.CLASSES if any(job.cls == cls for job in jobs)}
    record.update({
        "setup_s": setup_times,
        "round_s": [r["total"] for r in rounds],
        "jobs": [{"name": job.name, "class": job.cls, "argv": job.argv,
                  "rc": [r["results"][j][0] for r in rounds],
                  "seconds": [r["results"][j][1] for r in rounds],
                  "digest": digest(rounds[0]["results"][j][2])} for j, job in enumerate(jobs)],
        "gadget_answers": inp.answers,
        "failures": failures,
        "probes": probes,
        "approx_factors": factors,
    })
    correct = not failures
    if tracer is None:
        solve_s, ref_s = statistics.median(r["total"] for r in untraced), statistics.median(ref.times)
        record.update(solve_s=solve_s, ref_s=ref.times, round_rel=[r["rel"] for r in untraced])
        values = {
            "setup_s": statistics.median(setup_times),
            "solve_rel": statistics.median(r["rel"] for r in untraced),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    else:
        layer, same = traced_metrics(tracing, tracer, jobs, setup, traced)
        untraced_s = statistics.median(r["total"] for r in untraced)
        layer["trace.overhead"] = statistics.median(r["total"] for r in traced) / untraced_s - 1
        layer["approx.factor_mean"] = factor_mean or 0.0
        record["counters_agree"] = same
        if not same:
            correct = False
            print("counters differ between traced rounds")
        metrics = {name: (layer[name], unit) for name, unit in tracing.METRICS.items()}
        spans_path = OUT / "runs" / f"{args.workload}-seed{args.seed}-spans.tsv.gz"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        names = [job.name for job in jobs]
        tracer.write(spans_path, names)
        record["spans_file"] = str(spans_path.relative_to(ROOT))

    record["metrics"] = {name: value for name, (value, _) in metrics.items()}
    record["env_end"] = env_info()
    path = Path(args.record) if args.record else (
        OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(jobs)} jobs x "
          f"{len(rounds)} rounds, python {env_start['python']}, nproc {env_start['nproc']}, "
          f"load {env_start['loadavg'][0]:.2f} -> {record['env_end']['loadavg'][0]:.2f}")
    print(f"fail_rate {len(failures) / attempted:.4f} ratio ({len(failures)} of {attempted})")
    for name, r, reason in failures:
        if r == 0:
            print(f"  FAILED {name}: {reason}")
    for name, reason in probes:
        print(f"probe {name} (known defect, not counted): {reason or 'correct'}")
    for cls, seconds in by_class.items():
        print(f"solve_s.{cls} {seconds:.4f} s")
    if tracer is None:
        print(f"solve_s {solve_s:.4f} s over reference loop {ref_s:.6f} s (median of {len(ref.times)})")
    if factor_mean is not None:
        print(f"approx_factor_mean {factor_mean:.4f} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
