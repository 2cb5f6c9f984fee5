"""Determinism self-check of the benchmark.

    python3 perfbench/selfcheck.py

For every workload, runs ``run.py --trace 1 --seed 1 --seconds 2`` twice,
each in a fresh process, and fails unless the two runs give identical
per-layer counters and identical job outputs (exact eccentricities included),
each run's counters agreed across its own traced rounds (run.py makes at
least two), and each run recorded the Python version, CPU count and load
average at start and end.  It also
fails unless BENCHMARK.json lists exactly the metrics run.py and tracing.py
report.  Exit code 0 means every check held.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
SECONDS = 2


def traced_run(workload, record):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "1", "--record", str(record)]
    subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(record.read_text())


def check_workload(workload, counters):
    problems = []
    runs = [traced_run(workload, ROOT / ".perfbench" / "selfcheck" / f"{workload}-{i}.json")
            for i in (1, 2)]
    for i, rec in enumerate(runs, 1):
        if not rec["counters_agree"]:
            problems.append(f"run {i}: counters differ between its traced rounds")
        for key in ("env_start", "env_end"):
            if not {"python", "nproc", "loadavg"} <= rec[key].keys():
                problems.append(f"run {i}: {key} lacks python, nproc or loadavg")
    a, b = runs
    for name in counters:
        if a["metrics"][name] != b["metrics"][name]:
            problems.append(f"counter {name}: {a['metrics'][name]} != {b['metrics'][name]}")
    for ja, jb in zip(a["jobs"], b["jobs"]):
        if ja["digest"] != jb["digest"]:
            problems.append(f"job {ja['name']}: outputs differ between runs")
    return problems


def check_declared(run, tracing):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, want in (("end_to_end", run.END_TO_END), ("per_layer", tracing.METRICS)):
        got = {m["name"]: m["unit"] for m in declared[key]}
        if got != want:
            problems.append(f"BENCHMARK.json {key} differs from the metrics the benchmark reports")
    return problems


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import run
    import tracing

    problems = check_declared(run, tracing)
    for workload in run.WORKLOADS:
        found = check_workload(workload, tracing.COUNTERS)
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        problems += [f"{workload}: {msg}" for msg in found]
    for msg in problems:
        print(msg)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
