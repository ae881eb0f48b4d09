"""The ``gsuite-adaptive`` backend: cost-model-driven format selection.

The paper's framework-independence claim means the *same* GNN function
can execute as message passing or as fused SpMM — and which one wins is
workload-dependent.  The three fixed backends each hard-code one
answer; this backend asks the planner instead.  Per pipeline it

1. measures the workload (:class:`~repro.plan.planner.GraphStats`);
2. chooses an execution format *per layer* from the kernel cost models
   (:func:`~repro.plan.planner.choose_formats`), honouring each model's
   lowerable formats;
3. lowers the native model onto the plan IR with those formats and runs
   it through the shared :class:`~repro.plan.executor.PlanExecutor`.

On Reddit/LiveJournal-scale graphs (high average degree, narrow
features) the planner picks SpMM everywhere; on Cora/CiteSeer-scale
citation graphs (sparse rows, wide features) the per-layer savings
never beat the structure-setup cost and the plan stays MP — the
Fig. 3/4 grids gain a fourth column showing the suite *choosing* the
winning side per dataset.
"""

from __future__ import annotations

from repro.core.models import get_model_class
from repro.frameworks.base import Backend, BuiltPipeline, PipelineSpec
from repro.graph import Graph
from repro.plan import GraphStats, cached_plan, choose_formats

__all__ = ["AdaptiveBackend"]


def plan_formats(spec: PipelineSpec, graph: Graph, model=None):
    """The per-layer formats the planner selects for one pipeline.

    ``model`` lets callers that already constructed the reference model
    reuse it; its :meth:`~repro.core.models.base.GNNModel.supported_lowerings`
    hook bounds the choice (the same validation :meth:`lower` applies)
    and its :meth:`~repro.core.models.base.GNNModel.aggregation_width`
    hook calibrates the per-layer cost widths (GCN's transform-first MP
    path aggregates at the *output* width).
    """
    if model is None:
        model = _reference_model(spec, graph)
    return choose_formats(model.dims, GraphStats.from_graph(graph),
                          allowed=model.supported_lowerings(),
                          width_hook=model.aggregation_width)


def _reference_model(spec: PipelineSpec, graph: Graph):
    cls = get_model_class(spec.model)
    base = "MP" if "MP" in cls.supported_compute_models else "SpMM"
    return spec.zoo_model(graph, base)


class _AdaptivePipeline(BuiltPipeline):
    def __init__(self, spec: PipelineSpec, graph: Graph, fuse: bool):
        super().__init__("gSuite-Adaptive", spec, graph)
        self._model = _reference_model(spec, graph)
        self.formats = plan_formats(spec, graph, model=self._model)
        self.plan = cached_plan(
            graph, lambda: self._model.lower(self.formats, flavor="adaptive"),
            fuse=fuse)


class AdaptiveBackend(Backend):
    """Format-planning execution path over the native kernels."""

    name = "gsuite-adaptive"
    supported_compute_models = ("MP", "SpMM")

    def build(self, spec: PipelineSpec, graph: Graph,
              fuse: bool = True) -> BuiltPipeline:
        # The spec's compute_model is advisory here: the planner owns
        # the decision, so any spec is accepted (like the DGL path).
        return _AdaptivePipeline(spec, graph, fuse)

    def figure_label(self, spec: PipelineSpec) -> str:
        return "gSuite-Adaptive"
