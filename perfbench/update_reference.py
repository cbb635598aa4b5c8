#!/usr/bin/env python3
"""Rewrites perfbench/reference_digests.json from the current sources.

    python3 perfbench/update_reference.py

Run it only when a change is meant to move simulated outputs, or when the
job set of a workload changes: the digests are what makes the benchmark
count a job whose outputs differ as failed.  It records every job of every
workload for seeds 0-31 at full scale; runs on other seeds check only that
repeated jobs agree.
"""

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import run

SEEDS = range(32)
WORKERS = 4


def digests(build_dir, workload, seed):
    out = subprocess.run(
        [str(build_dir / "perfbench"), "--print-digests", "--workload",
         workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out)


def main():
    try:
        build_dir = run.build()
    except run.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    tasks = [(w, s) for w in run.WORKLOADS for s in SEEDS]
    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(lambda t: digests(build_dir, *t), tasks))
    workloads = {}
    for (workload, seed), result in zip(tasks, results):
        entry = workloads.setdefault(workload, {"jobs": result["jobs"],
                                                "seeds": {}})
        entry["seeds"][str(seed)] = result["digests"]
    # One line per (workload, seed) keeps diffs readable.
    blocks = []
    for workload, entry in workloads.items():
        seeds = ",\n".join(f"    {json.dumps(s)}: {json.dumps(d)}"
                           for s, d in entry["seeds"].items())
        blocks.append(f"  {json.dumps(workload)}: {{\n"
                      f"   \"jobs\": {json.dumps(entry['jobs'])},\n"
                      f"   \"seeds\": {{\n{seeds}\n   }}\n  }}")
    text = ('{"scale": "full", "workloads": {\n' + ",\n".join(blocks)
            + "\n}}\n")
    json.loads(text)
    path = run.BENCH_DIR / "reference_digests.json"
    path.write_text(text)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
