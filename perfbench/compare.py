#!/usr/bin/env python3
"""Noise-aware comparison of two checkouts on the repository benchmark.

    python3 perfbench/compare.py --base DIR --change DIR \
        [--workloads dense,saturated,faults] [--pairs 10] [--seconds S] \
        [--first-seed N] [--save samples.json]
    python3 perfbench/compare.py --load samples.json

For every workload it runs `pairs` untraced runs of each checkout, pair i
on seed first_seed + i, alternating which side runs first.  It prints one
row per workload and end-to-end metric: each side's median and quartiles,
the change in the median, the change's win share over the pairs and a
verdict (rule from the choosing-metrics guide, section 8):

  better      the change wins >= 9/10 of the pairs and its median differs
              from the base median by more than the base's quartile spread
  worse       the change's median is worse than the base's by more than
              the metric's bound from BENCHMARK.json
  same        neither of the above
  unresolved  either side's quartile spread, as a share of its median, is
              wider than the bound -- unless every change run beats (or
              loses to) every base run, which reads "better (every run)"
              or "worse (every run)"

A pair whose run failed, or a run with failed jobs, makes the workload
FAILED.  The exit code is 1 when any row is worse or failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median (0 for a zero median)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def improves(new, old, better):
    return (old - new if better == "lower" else new - old) > 0


def wins(base, change, better):
    """Pairs the change won; ties count for neither side."""
    return sum(1 for b, c in zip(base, change) if improves(c, b, better))


def verdict(base, change, bound, better="lower"):
    """Classifies one (workload, metric) row; `base` and `change` are
    paired samples (index i ran on the same seed)."""
    sign = 1.0 if better == "lower" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    pairs = min(len(base), len(change))
    if spread(base) > bound or spread(change) > bound:
        if all(improves(c, b, better) for c in change for b in base):
            return "better (every run)"
        if all(improves(b, c, better) for c in change for b in base):
            return "worse (every run)"
        return "unresolved"
    if (pairs and wins(base, change, better) >= 0.9 * pairs
            and improves(cmed, bmed, better)
            and abs(cmed - bmed) > bq3 - bq1):
        return "better"
    worse_by = sign * (cmed - bmed) / bmed if bmed else 0.0
    if worse_by > bound:
        return "worse"
    return "same"


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def collect(args):
    samples = {"base": str(args.base), "change": str(args.change),
               "seconds": args.seconds, "runs": []}
    for workload in args.workloads:
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                checkout = args.base if side == "base" else args.change
                result = run_once(checkout, workload, seed, args.seconds)
                samples["runs"].append({"workload": workload, "seed": seed,
                                        "side": side, "result": result})
                print(f"  {workload} seed {seed} {side}: "
                      f"{'ok' if result and result['failed'] == 0 else 'FAILED'}",
                      file=sys.stderr)
    return samples


def report(samples, spec):
    rows, bad = [], False
    for workload in dict.fromkeys(r["workload"] for r in samples["runs"]):
        runs = [r for r in samples["runs"] if r["workload"] == workload]
        failed = [r for r in runs
                  if not r["result"] or r["result"]["failed"] != 0]
        if failed:
            rows.append((workload, "-", "", "", "", "",
                         f"FAILED ({len(failed)} runs)"))
            bad = True
            continue
        by_seed = {}
        for r in runs:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]
        paired = [v for _, v in sorted(by_seed.items())
                  if "base" in v and "change" in v]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [p["base"]["metrics"][name]["value"] for p in paired]
            change = [p["change"]["metrics"][name]["value"] for p in paired]
            b = quartiles(base)
            c = quartiles(change)
            won = wins(base, change, metric["better"])
            v = verdict(base, change, metric["bound"], metric["better"])
            bad = bad or v.startswith("worse")
            delta = (c[1] - b[1]) / b[1] * 100 if b[1] else 0.0
            rows.append((workload, f"{name} [{metric['unit']}]",
                         f"{b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}]",
                         f"{c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}]",
                         f"{delta:+.1f}%", f"{won}/{len(paired)}", v))
    header = ("workload", "metric", "base median [q1, q3]",
              "change median [q1, q3]", "median", "wins", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)))
    return bad


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", type=Path)
    p.add_argument("--change", type=Path)
    p.add_argument("--workloads", default="dense,saturated,faults")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float)
    p.add_argument("--first-seed", type=int, default=1000)
    p.add_argument("--save", type=Path)
    p.add_argument("--load", type=Path)
    args = p.parse_args(argv)
    if not args.load and not (args.base and args.change):
        p.error("give --base and --change, or --load")
    args.workloads = [w for w in args.workloads.split(",") if w]
    return args


def main(argv=None):
    args = parse_args(argv)
    spec_path = (args.change / "BENCHMARK.json" if args.change
                 else BENCH_DIR.parent / "BENCHMARK.json")
    spec = json.loads(spec_path.read_text())
    if args.load:
        samples = json.loads(args.load.read_text())
    else:
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        samples = collect(args)
        if args.save:
            args.save.write_text(json.dumps(samples, indent=1) + "\n")
    return 1 if report(samples, spec) else 0


if __name__ == "__main__":
    sys.exit(main())
