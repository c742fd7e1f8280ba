#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload report_large --seeds 1-10 [--trace 0]
        [--json PATH] [--against PATH]

For every metric of the runs' JSON results it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread: the
interquartile range as a share of the median. Compare the spread of each
end-to-end metric with a third of its bound in BENCHMARK.json. --json PATH
also writes the raw per-run values; --against PATH reads such a file from an
earlier set and prints how far each median moved from it, flagging a move in
the worse direction beyond the metric's bound. A run that is wrong (exit 1) or
invalid (exit 3: an open-loop run whose backlog grew) stops the set.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    """Returns (q1, median, q3, (q3 - q1) / median) of repeated-run values."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--json", help="write the per-run values here")
    parser.add_argument("--against", help="per-run values of an earlier set")
    args = parser.parse_args()

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    values = {}
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            kind = {1: "wrong results", 3: "invalid run"}.get(done.returncode,
                                                               "error")
            print(f"seed {seed}: exit {done.returncode} ({kind})",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            file=sys.stderr, flush=True)

    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound/3':>8} {'vs earlier':>10}")
    for name, v in values.items():
        if len(v) < 2:
            continue
        q1, med, q3, sp = spread(v)
        metric = metrics.get(name)
        bound = metric["bound"] if metric else None
        limit = f"{bound / 3:8.3f}" if bound is not None else " " * 8
        flag = " !" if bound is not None and sp >= bound / 3 else ""
        moved = " " * 10
        if name in earlier and len(earlier[name]) >= 2:
            before = statistics.median(earlier[name])
            change = (med - before) / before if before else 0.0
            moved = f"{change:+10.3f}"
            worse = change if metric and metric["better"] == "lower" else -change
            if bound is not None and worse > bound:
                flag += " WORSE"
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.3f} "
              f"{limit} {moved}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(values, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
