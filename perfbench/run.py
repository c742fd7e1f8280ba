#!/usr/bin/env python3
"""Builds the appliance from source and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload adhoc_small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under that root; the first run configures and compiles it, later
runs only check that it is up to date. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result.

--self-test runs the statistics helpers' unit tests (stats_test.cc, and the
repeated-run quartiles of spread.py), then runs adhoc_small and report_large
twice each with one seed and checks that the deterministic counts
(dms_mb_per_query, pdw.dsql_steps, optimizer.memo_exprs,
optimizer.qerror_max) repeat exactly.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from spread import spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no appliance sources under {ROOT / 'src'}; nothing to build")
        sys.exit(2)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(2)
    return out


def run_bench(out, workload, seed, seconds, trace):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    cmd = [str(out / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(out / f"spans-{workload}-{seed}.json")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout.splitlines()


def counts_of(lines):
    for line in lines:
        if line.startswith("counts "):
            return json.loads(line[len("counts "):])
    return None


def self_test(out):
    ok = subprocess.run([str(out / "perfbench_stats_test")]).returncode == 0
    # Quartiles over repeated runs: statistics.quantiles of 1..10 gives
    # 2.75, 5.5 and 8.25, so the spread is 5.5 / 5.5.
    if spread(list(range(10, 0, -1))) != (2.75, 5.5, 8.25, 1.0):
        log("spread() of 1..10 is wrong")
        ok = False
    for workload in ("adhoc_small", "report_large"):
        seen = []
        for _ in range(2):
            code, lines = run_bench(out, workload, 7, 2, 0)
            if code != 0:
                log(f"{workload}: benchmark exited with {code}")
                ok = False
            seen.append(counts_of(lines))
        same = seen[0] is not None and seen[0] == seen[1]
        log(f"{workload}: counts {'repeat exactly' if same else 'DIFFER'}: "
            f"{seen[0]} / {seen[1]}")
        ok = ok and same
    log("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    out = build()
    if args.self_test:
        return self_test(out)
    if not args.workload:
        parser.error("--workload is required")
    code, lines = run_bench(out, args.workload, args.seed, args.seconds,
                            args.trace)
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
