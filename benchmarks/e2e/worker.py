"""One workload in one process: set up, measure, verify, write a result.

Started by run.py with an isolated environment (fresh cache and
calibration directories, BLAS pinned to one thread before NumPy loads).
Writes one JSON object to ``--result``; prints nothing the parent reads.

``--trace 0``: one untraced measurement of ``--seconds`` gives the
end-to-end metrics.  ``--trace 1``: a quarter of ``--seconds`` untraced
(the reference for ``driver.trace_overhead_share``), then the rest with
the layers wrapped, gives the per-layer metrics.  ``--setup-only``
stops after set-up and reports ``setup_s`` alone.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()     # set-up time counts the imports below

import argparse
import json
import os
import platform
import resource
import sys
from contextlib import nullcontext

import numpy as np
import scipy

from repro.cache import code_version
from repro.core.kernels import record_launches

import metrics
from tracing import SPAN_FIELDS, Tracer, instrument
from workloads import WORKLOADS


def host_block():
    """Where the numbers were taken (one per result file)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "code_version": code_version(),
        "cost_profile": "paper",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", action="store_true",
                        help="include the traced run's spans in the result")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = Tracer() if args.trace else None
    with instrument(tracer) if tracer is not None else nullcontext():
        workload.setup()
    result = {"workload": args.workload, "seed": args.seed,
              "setup_s": time.perf_counter() - _STARTED}

    if not args.setup_only:
        untraced_s = args.seconds / 4 if tracer is not None else args.seconds
        m = workload.measure(untraced_s)
        if tracer is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["metrics"] = metrics.end_to_end(m, result["setup_s"],
                                                   rss_mb)
            result["raw"] = {**metrics.timings(m.latencies, m.clients),
                             "host_slowness": m.host_slowness()}
        else:
            untraced = m
            tracer.phase = "run"
            with instrument(tracer), record_launches(sample_cap=1024):
                m = workload.measure(args.seconds - untraced_s, tracer)
            result["metrics"], result["span_sum_max_error"] = \
                metrics.per_layer(tracer, m, untraced)
            if args.spans:
                result["spans"] = {
                    "fields": SPAN_FIELDS,
                    "rows": [span.row() for span in tracer.spans]}
        result.update(attempted=m.attempted, failed=m.failed,
                      samples=len(m.latencies), wall_s=m.wall_s,
                      host=host_block())

    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
