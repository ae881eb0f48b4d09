"""The native gSuite backend: the minimal, dependency-free path.

Instantiates a registered model, lowers it onto the shared
:class:`~repro.plan.ir.ExecutionPlan` IR, and executes the plan through
the instrumented kernels.  Exposed as two figure labels —
``gSuite-MP`` and ``gSuite-SpMM`` — depending on the spec's compute
model.  Every build lowers (and fuses) its plan afresh: that is
cheaper than any store could hand it back.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.models import build_model
from repro.frameworks.base import Backend, BuiltPipeline, PipelineSpec
from repro.graph import Graph
from repro.plan import PlanExecutor, cached_plan

__all__ = ["NativeBackend"]


class _NativePipeline(BuiltPipeline):
    def __init__(self, backend_name: str, spec: PipelineSpec, graph: Graph,
                 fuse: bool):
        super().__init__(backend_name, spec, graph)
        self._model = build_model(
            spec.model,
            in_features=graph.num_features,
            hidden=spec.hidden,
            out_features=spec.out_features,
            num_layers=spec.num_layers,
            compute_model=spec.compute_model,
            activation=spec.activation,
            seed=spec.seed,
        )
        self.plan = cached_plan(graph, self._model.lower, fuse=fuse)
        self._executor = PlanExecutor()

    def run(self, features: Optional[np.ndarray] = None) -> np.ndarray:
        return self._executor.run(self.plan, self.graph,
                                  {"X": self.input_features(features)})


class NativeBackend(Backend):
    """gSuite's own execution path (both computational models)."""

    name = "gsuite"
    supported_compute_models = ("MP", "SpMM")

    def build(self, spec: PipelineSpec, graph: Graph,
              fuse: bool = True) -> BuiltPipeline:
        self.check_spec(spec)
        return _NativePipeline(self.figure_label(spec), spec, graph, fuse)

    def figure_label(self, spec: PipelineSpec) -> str:
        """The paper's label for this path: gSuite-MP or gSuite-SpMM."""
        return f"gSuite-{spec.compute_model}"
