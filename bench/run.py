"""Steklov benchmark entry point.

    python3 bench/run.py --workload oracle|degeneration|density --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in a fresh worker
process (`worker.py`) importing `steklov` from `src/` of the same checkout,
with one BLAS thread (see README.md for why).  With `--trace 0` the last line
of standard output is one JSON object with the end-to-end metrics `setup_s`,
`run_s`, `op_p50_s` and `peak_rss_mb`; `setup_s` is the median over the
worker and SETUP_PROBES extra processes that only set up, half of them started
before the worker and half after it, so that they sample the host at both ends
of the run.  With `--trace 1` it carries the
per-layer metrics instead (see README.md).  Exit status is 0 when a result was
printed, and nonzero, without a result, when the checkout or a worker is
broken.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 4
# one BLAS thread: on a 2-core machine a second OpenBLAS thread made every
# workload slower and noisier (README.md, "Threads")
BLAS_THREADS = "1"
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("STEKLOV_OUT", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(args, extra, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the worker started")
    t0 = time.monotonic()
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--t0", repr(t0)] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S:g} s limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def stop_on_sigterm(signum, frame):
    # raising inside subprocess.run makes it kill the worker and wait for it
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, stop_on_sigterm)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    parser = argparse.ArgumentParser(description="Steklov benchmark")
    parser.add_argument("--workload", choices=workloads, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(SRC, "steklov", "__init__.py")):
        print(f"no steklov sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [run_worker(args, ["--setup-only"], deadline)["setup_s"]
                  for _ in range(probes // 2)]
        result = run_worker(args, [], deadline)
        setups += [run_worker(args, ["--setup-only"], deadline)["setup_s"]
                   for _ in range(probes - probes // 2)]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
