#!/usr/bin/env python3
"""Benchmark dispatch resilience: what supervision costs with no faults.

The supervised :class:`~repro.bench.pool.WorkerPool` behind the bench
engine's cell fan-out ships every pooled task on its own and polls for
dead workers while it waits; the contract is that a clean run pays
little for it.  Measured two ways and written to
``BENCH_resilience.json``: the serial fast path against a plain
in-process loop, and the pooled path against a raw
``multiprocessing.Pool`` mapping the same tasks batched (the
pre-supervision seed behaviour).  Each time is the median and
interquartile range over at least ten interleaved rounds.  Every path's
results must equal the plain loop's bit for bit; exit code 1 otherwise.
(Recovery under injected faults is pinned by
``tests/test_failure_injection.py``.)

Usage::

    PYTHONPATH=src python tools/bench_resilience.py --smoke   # CI
    PYTHONPATH=src python tools/bench_resilience.py           # full bench
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.bench.pool import WorkerPool  # noqa: E402

#: Interleaved timing rounds per path (median and IQR are over these).
ROUNDS = 10


def _work(n: int) -> float:
    """One micro-task of several ms.

    Deliberately elementwise-only: BLAS kernels spin their own thread
    pools inside each worker, and the resulting scheduler noise swamps
    the per-task dispatch deltas this benchmark exists to measure."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal(100_000).astype(np.float32)
    for _ in range(10):
        a = np.tanh(a * 1.01) + 0.1
    return float(a.sum())


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _spread(samples) -> dict:
    """Median and quartiles (seconds) of one path's rounds."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def bench_overhead(tasks: int, jobs: int) -> tuple:
    """Supervised vs unsupervised mapping of identical task lists."""
    work = list(range(tasks))

    def plain_loop():
        return [_work(t) for t in work]

    def supervised_serial():
        with WorkerPool(1) as pool:
            return pool.map(_work, work)

    def raw_pool():
        # close+join (not the context manager's terminate): the seed
        # engine tore its pool down gracefully, and so does WorkerPool.
        pool = multiprocessing.Pool(jobs)
        try:
            return pool.map(_work, work, chunksize=1)
        finally:
            pool.close()
            pool.join()

    def supervised_pool():
        with WorkerPool(jobs) as pool:
            return pool.map(_work, work)

    paths = (plain_loop, supervised_serial, raw_pool, supervised_pool)
    # Warm-up (allocators, fork machinery) doubles as the parity check.
    reference = plain_loop()
    mismatched = [fn.__name__ for fn in paths[1:] if fn() != reference]
    # Interleave the paths round by round so machine drift lands on
    # every side of each comparison equally.
    samples = {fn.__name__: [] for fn in paths}
    for _ in range(ROUNDS):
        for fn in paths:
            samples[fn.__name__].append(_timed(fn))
    seconds = {name: _spread(times) for name, times in samples.items()}

    def overhead(base, path):
        return round((seconds[path]["median"] - seconds[base]["median"])
                     / seconds[base]["median"] * 100, 2)

    result = {
        "tasks": tasks,
        "jobs": jobs,
        "rounds": ROUNDS,
        "seconds": seconds,
        "serial_overhead_pct": overhead("plain_loop", "supervised_serial"),
        "pooled_overhead_pct": overhead("raw_pool", "supervised_pool"),
        "results_bit_identical": not mismatched,
    }
    print(f"zero-fault overhead over {tasks} tasks, median (IQR) of "
          f"{ROUNDS} rounds:")
    for label, base, path, pct in (
            ("serial  plain", "plain_loop", "supervised_serial",
             "serial_overhead_pct"),
            ("pooled  raw  ", "raw_pool", "supervised_pool",
             "pooled_overhead_pct")):
        print(f"  {label} {seconds[base]['median'] * 1e3:8.1f} "
              f"({seconds[base]['iqr'] * 1e3:.1f}) ms   supervised "
              f"{seconds[path]['median'] * 1e3:8.1f} "
              f"({seconds[path]['iqr'] * 1e3:.1f}) ms  "
              f"({result[pct]:+.1f}%)")
    return result, mismatched


def run(smoke: bool, jobs: int, out_path: Path) -> int:
    tasks = 16 if smoke else 64
    overhead, mismatched = bench_overhead(tasks, jobs)
    if mismatched:
        print(f"PARITY FAILURES: {', '.join(mismatched)} differ from "
              f"the plain loop")
        return 1

    payload = {
        "description": "Zero-fault supervision overhead of the bench "
                       "engine's pool: the supervised WorkerPool's "
                       "serial fast path vs a plain loop, and its "
                       "pooled path (one dispatch per task, polling "
                       "for dead workers) vs a raw multiprocessing.Pool "
                       "mapping the same tasks batched (the seed "
                       "behaviour); wall-clock seconds as median and "
                       "quartiles over interleaved rounds, overheads "
                       "from the medians.  Every path's results "
                       "verified bit-for-bit equal to the plain loop's.",
        "smoke": smoke,
        "zero_fault_overhead": overhead,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small task counts for CI")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes (default 2)")
    parser.add_argument("--out",
                        default=str(REPO_ROOT / "BENCH_resilience.json"))
    args = parser.parse_args()
    return run(args.smoke, args.jobs, Path(args.out))


if __name__ == "__main__":
    raise SystemExit(main())
