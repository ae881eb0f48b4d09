"""Online inference serving over :class:`~repro.core.pipeline.GNNPipeline`.

The serving layer puts the suite's pipelines behind concurrent
traffic: validated requests (:mod:`repro.serve.requests`) queue in
arrival order (:mod:`repro.serve.batcher`: the worker cuts the oldest
request itself when it is free, never on a timer); an asyncio service
(:mod:`repro.serve.service`) queues requests and resolves their
futures on the event loop while its one worker thread runs each
request alone, on a resident pipeline where it can; a deterministic
load generator (:mod:`repro.serve.loadgen`) measures p50/p99 latency
and throughput.

Every response is bit-for-bit
:func:`~repro.serve.service.solo_reference` of its request.
"""

from repro.serve.loadgen import LoadReport, run_loadgen
from repro.serve.padding import pad_features
from repro.serve.requests import InferenceRequest, InferenceResponse
from repro.serve.service import InferenceService, serve_tcp, solo_reference

__all__ = [
    "InferenceRequest",
    "InferenceResponse",
    "InferenceService",
    "LoadReport",
    "pad_features",
    "run_loadgen",
    "serve_tcp",
    "solo_reference",
]
