"""Backend abstraction for the framework-comparison experiments.

Fig. 3/4 compare four execution paths over the *same* GNN function:
PyG, DGL, gSuite-MP and gSuite-SpMM.  Here each path is a
:class:`Backend` that turns a :class:`PipelineSpec` plus a graph into a
:class:`BuiltPipeline`.  All backends route their math through the
instrumented core kernels (so kernel-level recording works everywhere)
and compute the same function for the same spec, to float32 rounding
— the differences are the *execution structures*: per-call dispatch and
re-validation (PyG-like), up-front graph object construction with fused
SpMM (DGL-like), or the minimal plan walk (native gSuite).

A build is also where a plan is finished: :meth:`Backend.build` lowers
through :func:`repro.plan.lowering.cached_plan`, which fuses what it
lowers unless ``fuse=False``, so every caller of ``build`` — the
pipeline facade, the serving layer, the tools — runs the same plan and
a :class:`BuiltPipeline` carries no fusion state of its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.models import build_model
from repro.core.models.base import check_features
from repro.errors import BackendError
from repro.graph import Graph
from repro.plan import PlanExecutor

__all__ = ["PipelineSpec", "BuiltPipeline", "Backend", "time_end_to_end"]


@dataclass(frozen=True)
class PipelineSpec:
    """Everything needed to build one GNN inference pipeline.

    This is the paper's "user parameters" bundle: model, computational
    model, stack geometry and seed.  Dataset choice lives outside (the
    graph is passed separately) so one spec can sweep datasets.
    """

    model: str = "gcn"
    compute_model: str = "MP"
    hidden: int = 16
    out_features: int = 7
    num_layers: int = 2
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        if self.num_layers < 1:
            raise BackendError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.hidden < 1 or self.out_features < 1:
            raise BackendError(
                f"hidden and out_features must be positive, got "
                f"{self.hidden} and {self.out_features}"
            )

    def zoo_model(self, graph: Graph, compute_model: str):
        """The model-zoo instance every backend lowers: this spec's
        model, geometry and seed over ``graph``'s feature width."""
        return build_model(
            self.model, in_features=graph.num_features, hidden=self.hidden,
            out_features=self.out_features, num_layers=self.num_layers,
            compute_model=compute_model, activation=self.activation,
            seed=self.seed)


class BuiltPipeline:
    """A ready-to-run inference pipeline bound to one graph.

    Every backend sets :attr:`plan` to the finished
    :class:`~repro.plan.ir.ExecutionPlan` at build time, and ``run``
    executes that plan and nothing else.
    """

    #: Whether a plain ``run()`` binds the graph's own feature array as
    #: the plan input, so a first layer can read the graph's resident
    #: row-sparse form of it (:meth:`repro.graph.Graph.feature_rows`).
    resident_features = True

    def __init__(self, backend_name: str, spec: PipelineSpec, graph: Graph):
        self.backend_name = backend_name
        self.spec = spec
        self.graph = graph
        #: The input width the plan's weights were built for.
        self.num_features = graph.num_features
        self._executor = PlanExecutor()

    def run(self, features: Optional[np.ndarray] = None) -> np.ndarray:
        """Execute inference, returning ``[num_nodes, out_features]``."""
        return self._executor.run(self.plan, self.graph,
                                  {"X": self.input_features(features)})

    def input_features(self,
                       features: Optional[np.ndarray] = None) -> np.ndarray:
        """The ``X`` a run binds: ``features``, else the graph's own
        in its stored form (:attr:`~repro.graph.Graph.stored_features`).

        Refuses a missing matrix or one not shaped ``(num_nodes,
        num_features)`` with :class:`~repro.errors.ModelError` before
        any kernel launches.  A float32 array passes through as the
        same object, so the graph's ``X`` keeps its resident row-sparse
        form.
        """
        return check_features(self.graph, self.num_features, features)


class Backend:
    """A framework execution path.

    Subclasses set ``name`` (the label used in figures) and implement
    :meth:`build`.  ``supported_compute_models`` documents which side of
    the MP/SpMM split the framework realises (PyG is MP-based, DGL is
    SpMM-based, gSuite does both).
    """

    name: str = "base"
    supported_compute_models = ("MP", "SpMM")

    def build(self, spec: PipelineSpec, graph: Graph,
              fuse: bool = True) -> BuiltPipeline:
        """Construct a pipeline for ``spec`` over ``graph``.

        ``fuse`` reaches :func:`repro.plan.lowering.cached_plan`: the
        built plan is the fused plan unless ``False`` (``fuse="off"``,
        the paper's Table II kernels).  The PyG-like backend lowers
        unfused whatever it says — its tape observes the per-op stream.
        """
        raise NotImplementedError

    def check_spec(self, spec: PipelineSpec) -> None:
        """Reject specs whose compute model this backend cannot realise."""
        if spec.compute_model not in self.supported_compute_models:
            raise BackendError(
                f"backend {self.name!r} does not support the "
                f"{spec.compute_model} computational model"
            )


def time_end_to_end(backend: Backend, spec: PipelineSpec, graph: Graph,
                    repeats: int = 3, fuse: bool = True) -> List[float]:
    """Wall-clock end-to-end times (build + inference), one per repeat.

    This is the paper's Fig. 3 measurement: each repeat pays the
    framework's full pipeline-construction cost, which is exactly where
    PyG-style initialization overheads show up.
    """
    if repeats < 1:
        raise BackendError(f"repeats must be >= 1, got {repeats}")
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        pipeline = backend.build(spec, graph, fuse=fuse)
        pipeline.run()
        times.append(time.perf_counter() - start)
    return times
