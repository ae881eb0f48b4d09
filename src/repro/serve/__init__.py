"""Online inference serving over :class:`~repro.core.pipeline.GNNPipeline`.

The serving layer puts the suite's batched-execution machinery behind
concurrent traffic: validated requests (:mod:`repro.serve.requests`)
queue into a work-conserving micro-batcher
(:mod:`repro.serve.batcher`: a group is cut when the worker is free,
never on a timer) that packs compatible graphs into one block-diagonal
:class:`~repro.graph.BatchedGraph` workload under the planner's
:func:`~repro.plan.planner.choose_batching` budgets; an
asyncio service (:mod:`repro.serve.service`) executes the packed plans
and unpacks per-member responses; a deterministic load generator
(:mod:`repro.serve.loadgen`) measures p50/p99 latency and throughput.

Requests batch only at equal feature width (it is part of the
batcher's queue key), so every request runs at its own width and every
response — batched or solo — is bit-for-bit
:func:`~repro.serve.service.solo_reference` of its request.
"""

from repro.serve.batcher import BatchGroup, MicroBatcher
from repro.serve.loadgen import LoadReport, run_loadgen
from repro.serve.padding import pad_features
from repro.serve.requests import InferenceRequest, InferenceResponse
from repro.serve.service import InferenceService, serve_tcp, solo_reference

__all__ = [
    "BatchGroup",
    "InferenceRequest",
    "InferenceResponse",
    "InferenceService",
    "LoadReport",
    "MicroBatcher",
    "pad_features",
    "run_loadgen",
    "serve_tcp",
    "solo_reference",
]
