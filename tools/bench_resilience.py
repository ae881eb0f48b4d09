#!/usr/bin/env python3
"""Benchmark dispatch resilience: zero-fault overhead, fault-rate sweep.

Two questions, one JSON answer (``BENCH_resilience.json``):

1. **What does supervision cost when nothing goes wrong?**  The
   supervised :class:`~repro.bench.pool.WorkerPool` polices per-task
   deadlines, dead workers and result checksums; the contract is that a
   clean run pays ~nothing for any of it.  Measured two ways: the
   serial fast path against a plain in-process loop, and the pooled
   path against a raw ``multiprocessing.Pool`` (the pre-supervision
   seed behaviour).

2. **What does recovery cost when things do go wrong?**  A sharded
   pipeline run under deterministic injected faults (worker crashes and
   corrupted result transport, ``repro.faults``) at 0 / 5 / 20 %
   per-attempt failure rates — asserting **bit-for-bit output parity**
   against the clean unsharded run at every rate, and recording the
   wall-clock plus the :class:`DispatchReport` counters that explain it.

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

from repro import faults  # noqa: E402
from repro.bench.pool import WorkerPool  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.frameworks import PipelineSpec, get_backend  # noqa: E402
from repro.plan.sharding import ShardingPolicy  # noqa: E402

#: Per-attempt injected failure probabilities for the sweep.
FAILURE_RATES = (0.0, 0.05, 0.20)


def _work(n: int) -> float:
    """One micro-task sized like a real shard task (several ms).

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


def _best(fn, repeats: int) -> float:
    fn()  # warm-up: allocator, BLAS threads, lazy structures
    return min(_timed(fn) for _ in range(repeats))


def bench_overhead(tasks: int, jobs: int, repeats: int) -> dict:
    """Supervised vs unsupervised mapping of identical task lists."""
    work = list(range(tasks))

    def plain_loop():
        return [_work(t) for t in work]

    def supervised_serial():
        with WorkerPool(1) as pool:
            pool.map(_work, work)

    def raw_pool():
        # close+join (not the context manager's terminate): the seed
        # engine tore its pool down gracefully, and so does WorkerPool.
        pool = multiprocessing.Pool(jobs)
        try:
            pool.map(_work, work, chunksize=1)
        finally:
            pool.close()
            pool.join()

    def supervised_pool():
        with WorkerPool(jobs) as pool:
            pool.map(_work, work)

    # Interleave the paired measurements so machine drift lands on both
    # sides of each comparison equally; best-of across the rounds.
    repeats = max(repeats, 5)
    for fn in (plain_loop, supervised_serial, raw_pool, supervised_pool):
        fn()   # warm-up: allocators, BLAS threads, fork machinery
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
    }
    print(f"zero-fault overhead over {tasks} tasks:")
    print(f"  serial  plain {serial_s * 1e3:8.1f} ms   supervised "
          f"{serial_sup_s * 1e3:8.1f} ms  ({result['serial_overhead_pct']:+.1f}%)")
    print(f"  pooled  raw   {pooled_s * 1e3:8.1f} ms   supervised "
          f"{pooled_sup_s * 1e3:8.1f} ms  ({result['pooled_overhead_pct']:+.1f}%)")
    return result


def bench_fault_rates(scale: float, shards: int, jobs: int,
                      repeats: int) -> tuple:
    """Sharded pipeline throughput at each injected failure rate."""
    graph = load_dataset("cora", scale=scale, seed=0)
    spec = PipelineSpec(model="gcn", compute_model="MP", out_features=8)
    backend = get_backend("gsuite")
    reference = backend.build(spec, graph, fuse=False).run()
    print(f"gcn/MP cora@{scale:g}  N={graph.num_nodes} E={graph.num_edges} "
          f"K={shards} jobs={jobs}")

    rows, failures = [], []
    clean_seconds = None
    for rate in FAILURE_RATES:
        if rate:
            faults.activate(f"seed=1;worker_crash:p={rate:g},tries=1;"
                            f"corrupt_result:p={rate:g},tries=1")
        try:
            built = backend.build(spec, graph, fuse=False) \
                .configure_sharding(
                    ShardingPolicy(num_shards=shards, jobs=jobs))
            out = built.run()
            if not np.array_equal(out, reference):
                failures.append(f"rate={rate:g}: output mismatch")
                continue
            seconds = _best(built.run, repeats)
        finally:
            faults.deactivate()
        report = built.dispatch_report.to_dict()
        if clean_seconds is None:
            clean_seconds = seconds
        row = {
            "failure_rate": rate,
            "seconds": seconds,
            "runs_per_second": round(1.0 / seconds, 3),
            "slowdown_vs_clean": round(seconds / clean_seconds, 3),
            "dispatch": report,
            "outputs_bit_identical": True,
        }
        rows.append(row)
        print(f"  rate={rate:4.0%}  {seconds * 1e3:9.1f} ms/run "
              f"({row['slowdown_vs_clean']:.2f}x clean)  "
              f"retries={report['retries']} deaths={report['worker_deaths']} "
              f"corrupt={report['corrupt_results']} "
              f"resets={report['pool_resets']}  [outputs bit-identical]")
    return rows, failures


def run(smoke: bool, jobs: int, out_path: Path) -> int:
    if smoke:
        tasks, repeats, scale, shards = 16, 2, 0.15, 4
    else:
        tasks, repeats, scale, shards = 64, 3, 0.4, 8

    overhead = bench_overhead(tasks, jobs, repeats)
    rates, failures = bench_fault_rates(scale, shards, jobs, repeats)

    if failures:
        print("PARITY FAILURES:")
        for failure in failures:
            print(f"  {failure}")
        return 1

    payload = {
        "description": "Dispatch resilience: (a) zero-fault supervision "
                       "overhead — the supervised WorkerPool's serial "
                       "fast path vs a plain loop, and its pooled path "
                       "vs a raw multiprocessing.Pool (the seed "
                       "behaviour); (b) sharded gcn/MP inference "
                       f"wall-clock (best of {repeats}) at injected "
                       "per-attempt failure rates of 0/5/20% "
                       "(deterministic worker crashes + corrupted "
                       "result transport, repro.faults).  Outputs "
                       "verified bit-for-bit identical to the clean "
                       "unsharded run at every rate; the dispatch "
                       "counters record what recovery took.",
        "smoke": smoke,
        "zero_fault_overhead": overhead,
        "failure_rate_sweep": rates,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small task counts and scales for CI")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes (default 2)")
    parser.add_argument("--out",
                        default=str(REPO_ROOT / "BENCH_resilience.json"))
    args = parser.parse_args()
    return run(args.smoke, args.jobs, Path(args.out))


if __name__ == "__main__":
    raise SystemExit(main())
