#!/usr/bin/env python3
"""Benchmark of ghost_turb's simulate and analytic commands.

Run from the repository root:

    python3 perfbench/run.py --workload sim_turbulent --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --smoke

One process imports ghost_turb from src/ and drives its CLI entry point,
ghost_turb.cli.main, in a closed loop with one client: a command starts
when the previous one has returned.  Each run sets up the workload's
inputs several times (setup_s), runs one untimed warm-up command, then
timed commands back to back for --seconds (at least three), and checks
every command's output with the gates in bench_gates.py.

With --trace 0 the last line of standard output holds the end-to-end
metrics, medians over the timed commands.  With --trace 1 half of the
time runs untraced and half with the wrappers of bench_trace.py
installed, and the last line holds the per-layer metrics.  Lines before
it are a report for people: the machine, every metric with its unit,
and each gate that failed.

--seed sets the program's seed.  The same seed gives the same inputs and
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from bench_core import WORKLOADS, load_program, measure


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, then one table."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)],
                              capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        try:
            results[name] = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {done.returncode}): {done.stderr.strip()}")
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print(f"{'workload':<15} {'attempted':>9} {'failed':>6}  metrics")
    for name, res in results.items():
        shown = ", ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"{name:<15} {res['attempted']:>9} {res['failed']:>6}  {shown}")
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{k}": v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short self-check of metric names and correctness gates")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.smoke and args.workload is None:
        parser.error("--workload or --smoke is required")
    load_program()
    if args.smoke:
        from bench_smoke import smoke
        return smoke()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result, lines = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
