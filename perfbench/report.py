#!/usr/bin/env python3
"""Per-layer report: one traced run of every workload, one table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workloads ...]

Runs `run.py --trace 1` for each workload, prints each run's own table
(with the basis of every ratio), then one matrix with a row per per-layer
metric and a column per workload.  Phase accounts (the *_ms rows marked
"phase account") nest inclusively and cover only the measure window of
the traced pass; harness.unattributed_ms is traced job time minus set-up
time minus kernel_dispatch.  Exits non-zero if a run fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def traced_run(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"report: traced run of {workload} failed")
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--workloads", default="dense,saturated,faults")
    args = p.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    results = {w: traced_run(w, args.seed, args.seconds) for w in workloads}

    names = list(dict.fromkeys(
        name for r in results.values() for name in r["metrics"]))
    width = max(len(n) for n in names) + 2
    print("per-layer metrics (traced run, seed %d)" % args.seed)
    print("metric".ljust(width) + "unit".ljust(7)
          + "".join(w.rjust(14) for w in workloads))
    for name in names:
        cells = []
        unit = ""
        for w in workloads:
            m = results[w]["metrics"].get(name)
            unit = unit or (m["unit"] if m else "")
            cells.append(f"{m['value']:.6g}" if m else "-")
        print(name.ljust(width) + unit.ljust(7)
              + "".join(c.rjust(14) for c in cells))
    failed = {w: r["failed"] for w, r in results.items() if r["failed"]}
    print("jobs: " + ", ".join(
        f"{w} {r['attempted'] - r['failed']}/{r['attempted']} ok"
        for w, r in results.items()))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
