#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload dense|saturated|faults \
        [--seed N] [--seconds S] [--trace 0|1] [--scale full|tiny]

Run it from the root of a checkout.  It builds the perfbench binary from
the checkout's sources (perfbench/CMakeLists.txt) into .bench_build/ (or
$CARGO_TARGET_DIR when set), runs one workload, prints a metric table and,
as the last stdout line, one JSON object with the keys correct, attempted,
failed and metrics.  Any failure to build or run exits non-zero with a
message on stderr and prints no result line.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("dense", "saturated", "faults")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run measures for --seconds plus a warm pass (and a traced pass with
# --trace 1); the benchmark contract allows 180 s per run.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    """A failure that must stop the benchmark with a message."""


def build_root():
    return Path(os.environ.get("CARGO_TARGET_DIR")
                or BENCH_DIR.parent / ".bench_build")


def require_tool(name):
    path = shutil.which(name)
    if not path:
        raise BenchError(f"required tool '{name}' is not on PATH")
    return path


def run_logged(cmd, log, timeout):
    with open(log, "ab") as out:
        try:
            proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout, check=False)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"timed out after {timeout} s: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-25:]
        raise BenchError(f"command failed ({proc.returncode}): {' '.join(cmd)}\n"
                         + "\n".join(tail))


def build():
    """Configures and builds the perfbench binary; returns its directory."""
    cmake = require_tool("cmake")
    build_dir = build_root() / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    log.write_text("")
    configure = [cmake, "-S", str(BENCH_DIR), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (build_dir / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    run_logged(configure, log, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged([cmake, "--build", str(build_dir), "-j", jobs], log,
               BUILD_TIMEOUT_S)
    for target in ("perfbench", "perfbench_selftest"):
        if not (build_dir / target).is_file():
            raise BenchError(f"build produced no {build_dir / target}")
    return build_dir


def describe_exit(code):
    if code < 0:
        try:
            return f"killed by {signal.Signals(-code).name}"
        except ValueError:
            return f"killed by signal {-code}"
    return f"exit code {code}"


def run_benchmark(build_dir, args):
    out_dir = build_dir / "out"
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale,
           "--out", str(out_dir),
           "--reference", str(BENCH_DIR / "reference_digests.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload {args.workload} did not finish within "
                         f"{RUN_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BenchError(f"workload {args.workload}: the benchmark process "
                         f"died ({describe_exit(proc.returncode)})")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        raise BenchError("the benchmark process printed no result line")
    return proc.stdout


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        output = run_benchmark(build(), args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
