"""Run each workload repeatedly and print the spread of every end-to-end metric.

    python3 bench/steadiness.py [--workload NAME ...] [--runs 10] [--first-seed 1]

Each run is `bench/run.py --workload NAME --seed S --seconds <run_seconds>
--trace 0` with its own seed (first-seed, first-seed+1, ...), one after the
other, so the load is one worker process at a time.  For every metric the
summary gives the median and the spread, (Q3 - Q1) / median with the
quartiles of `statistics.quantiles(values, n=4)`, next to the metric's bound
from BENCHMARK.json; a spread should stay below a third of its bound.  With
`--runs 1` this is the one command that runs every workload once.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="benchmark steadiness check")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workload or names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        failed_shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed_shares.add(result["failed"] / result["attempted"])
            line = " ".join(f"{name}={m['value']:.6g}{m['unit']}"
                            for name, m in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {line}",
                  flush=True)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: failed share per run {sorted(failed_shares)}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            s = spread(vals)
            verdict = "ok" if s < bounds[name] / 3 else "WIDE"
            print(f"  {name:12s} median {statistics.median(vals):.6g}  spread {s:.4f}  "
                  f"bound {bounds[name]}  {verdict}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
