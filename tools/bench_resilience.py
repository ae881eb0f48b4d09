#!/usr/bin/env python3
"""Benchmark dispatch resilience: what supervision costs with no faults.

The supervised :class:`~repro.bench.pool.WorkerPool` behind the bench
engine's cell fan-out polices per-task deadlines, dead workers and
result checksums; the contract is that a clean run pays ~nothing for
any of it.  Measured two ways and written to ``BENCH_resilience.json``:
the serial fast path against a plain in-process loop, and the pooled
path against a raw ``multiprocessing.Pool`` (the pre-supervision seed
behaviour).  Every path's results must equal the plain loop's bit for
bit; exit code 1 otherwise.  (Recovery under injected faults is pinned
by ``tests/test_failure_injection.py``.)

Usage::

    PYTHONPATH=src python tools/bench_resilience.py --smoke   # CI
    PYTHONPATH=src python tools/bench_resilience.py           # full bench
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.bench.pool import WorkerPool  # noqa: E402


def _work(n: int) -> float:
    """One micro-task of several ms.

    Deliberately elementwise-only: BLAS kernels spin their own thread
    pools inside each worker, and the resulting scheduler noise swamps
    the ~1 ms/task dispatch deltas this benchmark exists to measure."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal(100_000).astype(np.float32)
    for _ in range(10):
        a = np.tanh(a * 1.01) + 0.1
    return float(a.sum())


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def bench_overhead(tasks: int, jobs: int, repeats: int) -> tuple:
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

    # Interleave the paired measurements so machine drift lands on both
    # sides of each comparison equally; best-of across the rounds.
    repeats = max(repeats, 5)
    # Warm-up (allocators, fork machinery) doubles as the parity check.
    reference = plain_loop()
    mismatched = [fn.__name__ for fn in (supervised_serial, raw_pool,
                                         supervised_pool)
                  if fn() != reference]
    serial_s = serial_sup_s = pooled_s = pooled_sup_s = float("inf")
    for _ in range(repeats):
        serial_s = min(serial_s, _timed(plain_loop))
        serial_sup_s = min(serial_sup_s, _timed(supervised_serial))
        pooled_s = min(pooled_s, _timed(raw_pool))
        pooled_sup_s = min(pooled_sup_s, _timed(supervised_pool))
    result = {
        "tasks": tasks,
        "jobs": jobs,
        "seconds": {
            "plain_loop": serial_s,
            "supervised_serial": serial_sup_s,
            "raw_pool": pooled_s,
            "supervised_pool": pooled_sup_s,
        },
        "serial_overhead_pct": round(
            (serial_sup_s - serial_s) / serial_s * 100, 2),
        "pooled_overhead_pct": round(
            (pooled_sup_s - pooled_s) / pooled_s * 100, 2),
        "results_bit_identical": not mismatched,
    }
    print(f"zero-fault overhead over {tasks} tasks:")
    print(f"  serial  plain {serial_s * 1e3:8.1f} ms   supervised "
          f"{serial_sup_s * 1e3:8.1f} ms  ({result['serial_overhead_pct']:+.1f}%)")
    print(f"  pooled  raw   {pooled_s * 1e3:8.1f} ms   supervised "
          f"{pooled_sup_s * 1e3:8.1f} ms  ({result['pooled_overhead_pct']:+.1f}%)")
    return result, mismatched


def run(smoke: bool, jobs: int, out_path: Path) -> int:
    tasks, repeats = (16, 2) if smoke else (64, 3)
    overhead, mismatched = bench_overhead(tasks, jobs, repeats)
    if mismatched:
        print(f"PARITY FAILURES: {', '.join(mismatched)} differ from "
              f"the plain loop")
        return 1

    payload = {
        "description": "Zero-fault supervision overhead of the bench "
                       "engine's pool: the supervised WorkerPool's "
                       "serial fast path vs a plain loop, and its "
                       "pooled path vs a raw multiprocessing.Pool (the "
                       "seed behaviour); best-of wall-clock over "
                       "interleaved rounds.  Every path's results "
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
