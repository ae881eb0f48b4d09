"""Deterministic closed-loop load generator for the inference service.

``concurrency`` client coroutines each issue ``requests_per_client``
requests back-to-back (closed loop: a client waits for its response
before sending the next).  The traffic mix is a fixed template cycle —
client ``c``'s ``i``-th request uses template
``(c * requests_per_client + i) % len(templates)`` — so two runs with
the same parameters issue byte-identical request streams; the only
nondeterminism left is scheduling, which the single-worker execution
thread keeps out of the *results*.

Latency is measured per request (submit to response) and summarised as
p50/p99; throughput is completed requests over the closed-loop wall
clock.  Parity verification (``verify=True``) runs *after* the timed
window: every response is re-executed on a fresh build and compared
bit-for-bit.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ServeError
from repro.serve.requests import InferenceRequest
from repro.serve.service import InferenceService, solo_reference

__all__ = ["LoadReport", "dataset_mix", "percentile", "run_loadgen"]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by nearest-rank on sorted values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def dataset_mix(datasets: Sequence[str], out_features: Optional[int] = None,
                **params) -> List[InferenceRequest]:
    """Request templates over a dataset list, head width pinned.

    A multi-dataset mix pins ``out_features`` — to the given value, or
    to the first dataset's class count — so every request of the mix
    has one head width.  Single-dataset mixes keep their natural head
    width.
    """
    if not datasets:
        raise ServeError("dataset mix must name at least one dataset")
    from repro.datasets import get_spec
    if out_features is None and len(datasets) > 1:
        out_features = get_spec(datasets[0]).num_classes
    return [InferenceRequest(request_id="template", dataset=name,
                             out_features=out_features, **params)
            for name in datasets]


@dataclass
class LoadReport:
    """One load-generation run, summarised."""

    concurrency: int
    requests: int
    wall_s: float
    p50_ms: float
    p99_ms: float
    mean_ms: float
    throughput_rps: float
    plan_cache_hits: int
    parity_checked: int = 0
    parity_failures: int = 0

    def to_dict(self) -> dict:
        out = self.__dict__.copy()
        out["wall_s"] = round(self.wall_s, 4)
        for key in ("p50_ms", "p99_ms", "mean_ms", "throughput_rps"):
            out[key] = round(out[key], 3)
        return out

    def summary(self) -> str:
        return (f"C={self.concurrency} n={self.requests}: "
                f"p50 {self.p50_ms:.2f} ms, p99 {self.p99_ms:.2f} ms, "
                f"{self.throughput_rps:.1f} req/s, "
                f"{self.plan_cache_hits} on a resident pipeline")


def run_loadgen(templates: Sequence[InferenceRequest], concurrency: int,
                requests_per_client: int,
                verify: bool = False) -> LoadReport:
    """Drive one closed-loop run against a fresh service; summarise it."""
    if concurrency < 1 or requests_per_client < 1:
        raise ServeError(
            f"concurrency and requests_per_client must be >= 1, got "
            f"{concurrency} and {requests_per_client}")
    if not templates:
        raise ServeError("loadgen needs at least one request template")
    service = InferenceService()
    results = []                  # (request, response), completion order

    async def client(index: int) -> None:
        for i in range(requests_per_client):
            template = templates[
                (index * requests_per_client + i) % len(templates)]
            request = replace(template, request_id=f"c{index}-r{i}")
            response = await service.submit(request)
            results.append((request, response))

    async def drive() -> float:
        async with service:
            start = time.perf_counter()
            await asyncio.gather(*(client(c) for c in range(concurrency)))
            return time.perf_counter() - start

    wall = asyncio.run(drive())
    stats = service.stats()

    checked = failures = 0
    if verify:
        for request, response in results:
            reference = solo_reference(request)
            checked += 1
            if not np.array_equal(response.output, reference):
                failures += 1

    latencies = [resp.latency_s * 1e3 for _, resp in results]
    total = len(results)
    return LoadReport(
        concurrency=concurrency,
        requests=total,
        wall_s=wall,
        p50_ms=percentile(latencies, 0.50),
        p99_ms=percentile(latencies, 0.99),
        mean_ms=sum(latencies) / total if total else 0.0,
        throughput_rps=total / wall if wall > 0 else 0.0,
        plan_cache_hits=stats["plan_cache_hits"],
        parity_checked=checked,
        parity_failures=failures,
    )
