"""The GNN pipeline facade — gSuite's User Interface + Abstraction Module.

One call chains the whole Fig. 1 flow: user parameters are merged over
defaults (:class:`~repro.core.config.SuiteConfig`), the Data Loader
produces the workload graph, the Abstraction Module picks the framework
backend (PyG-like, DGL-like, or the native kernels when "no framework is
indicated"), and the resulting pipeline can be run, timed, recorded at
kernel level, or pushed through the GPU simulator and profiler.

Example
-------
>>> from repro.core.pipeline import GNNPipeline
>>> pipe = GNNPipeline.from_params(model="gcn", dataset="cora")
>>> logits = pipe.run()
>>> times = pipe.measure()                      # Fig. 3 measurement
>>> launches = pipe.record().launches           # kernel-level records
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from repro.core.config import SuiteConfig
from repro.core.kernels import LaunchRecorder, record_launches
from repro.datasets import get_spec, load_dataset
from repro.frameworks import Backend, PipelineSpec, get_backend
from repro.graph import BatchedGraph, Graph

__all__ = ["GNNPipeline"]

#: Candidate sweep width ``--batch auto`` offers the planner: the
#: default number of seed-variant member graphs a batched pipeline
#: considers packing (``choose_batching`` may pick fewer — down to 1 —
#: when the packed working set would outgrow its cache budget).  Sweeps
#: that know their true width pass ``batch=B`` explicitly or call
#: :func:`repro.plan.planner.choose_batching` themselves.
AUTO_BATCH_SWEEP = 8


class GNNPipeline:
    """A fully-resolved benchmark pipeline.

    Parameters
    ----------
    config:
        Complete suite configuration.
    graph:
        Optional pre-loaded workload; when omitted the configured dataset
        is loaded (generated) on first use.
    """

    def __init__(self, config: SuiteConfig, graph: Optional[Graph] = None):
        self.config = config
        self._graph = graph
        self._explicit_graph = graph is not None
        self._batch_decision = None
        self._graph_stats = None
        self._backend: Backend = get_backend(config.framework)
        out_features = config.out_features
        if out_features is None:
            out_features = get_spec(config.dataset).num_classes
        self.spec = PipelineSpec(
            model=config.model,
            compute_model=config.compute_model,
            hidden=config.hidden,
            out_features=out_features,
            num_layers=config.num_layers,
            activation=config.activation,
            seed=config.seed,
        )

    @classmethod
    def from_params(cls, **params) -> "GNNPipeline":
        """Build a pipeline from user parameters over the defaults.

        This is the paper's "pass only a few parameters" entry point.
        """
        return cls(SuiteConfig.from_dict(params))

    # -- data ---------------------------------------------------------------
    def batch_decision(self):
        """The resolved batched-plan decision: a
        :class:`~repro.plan.planner.BatchDecision` ``(size, source)``.

        ``source`` is ``"off"`` (single-graph), ``"forced"``
        (``config.batch >= 2``), ``"planner"`` (``config.batch == 0``:
        :func:`repro.plan.planner.choose_batching` prices a
        :data:`AUTO_BATCH_SWEEP`-wide sweep from the dataset *spec* —
        no graph is materialised to decide) or ``"graph"`` (an
        explicitly supplied :class:`~repro.graph.BatchedGraph`
        workload, whose membership wins over the config).
        """
        from repro.plan.planner import BatchDecision
        if self._batch_decision is not None:
            return self._batch_decision
        if self._explicit_graph:
            if isinstance(self._graph, BatchedGraph):
                self._batch_decision = BatchDecision(self._graph.num_graphs,
                                                     "graph")
            else:
                self._batch_decision = BatchDecision(1, "off")
        elif self.config.batch == 1:
            self._batch_decision = BatchDecision(1, "off")
        elif self.config.batch >= 2:
            self._batch_decision = BatchDecision(self.config.batch, "forced")
        else:  # 0 = auto: estimate from the spec, like the format planner
            from repro.core.models import get_model_class
            from repro.core.models.base import layer_dimensions
            from repro.datasets import scaled_spec
            from repro.plan.planner import (
                GraphStats,
                choose_batching,
                choose_formats,
            )
            spec = scaled_spec(get_spec(self.config.dataset),
                               self.config.scale)
            stats = GraphStats.from_spec(spec)
            cls = get_model_class(self.config.model)
            dims = layer_dimensions(spec.feature_length, self.spec.hidden,
                                    self.spec.out_features,
                                    self.spec.num_layers)
            if getattr(self._backend, "name", "") == "gsuite-adaptive":
                # The adaptive backend will pick its own per-layer
                # formats; price the batch the same way, so an
                # all-SpMM plan gets choose_batching's free-batching
                # rule instead of being costed at MP message widths.
                formats = list(choose_formats(
                    dims, stats, allowed=cls.supported_lowerings(),
                    width_hook=cls.aggregation_width))
            else:
                formats = [self.spec.compute_model] * len(dims)
            chosen = choose_batching(
                AUTO_BATCH_SWEEP, dims, stats, formats=formats,
                width_hook=cls.aggregation_width)
            self._batch_decision = BatchDecision(chosen, "planner")
        return self._batch_decision

    @property
    def graph(self) -> Graph:
        """The workload graph (loaded lazily, cached).

        When the config asks for batched plans (``batch != 1``) this is
        a block-diagonal :class:`~repro.graph.BatchedGraph` packing the
        decided number of seed-variant member graphs (seeds ``seed``,
        ``seed + 1``, ...) — one lowered plan then executes the whole
        sweep.  An explicitly supplied graph always wins.
        """
        if self._graph is None:
            size, _ = self.batch_decision()
            if size > 1:
                members = [load_dataset(self.config.dataset,
                                        scale=self.config.scale,
                                        seed=self.config.seed + i)
                           for i in range(size)]
                self._graph = BatchedGraph(members)
            else:
                self._graph = load_dataset(self.config.dataset,
                                           scale=self.config.scale,
                                           seed=self.config.seed)
        return self._graph

    @property
    def backend(self) -> Backend:
        """The resolved framework backend."""
        return self._backend

    def graph_stats(self):
        """Planner statistics of the workload graph, measured once.

        :meth:`plan` consumes them, and the in-degree pass behind
        :meth:`GraphStats.from_graph` is O(E) — memoising keeps repeated
        calls from re-walking LiveJournal-scale edge lists.
        :meth:`build` never asks.
        """
        if self._graph_stats is None:
            from repro.plan.planner import GraphStats
            self._graph_stats = GraphStats.from_graph(self.graph)
        return self._graph_stats

    def figure_label(self) -> str:
        """This pipeline's label in the paper's figures."""
        label = getattr(self._backend, "figure_label", None)
        if callable(label):
            return label(self.spec)
        return self._backend.name

    # -- execution ------------------------------------------------------------
    def build(self):
        """Construct the backend pipeline (framework init included)."""
        return self._backend.build(self.spec, self.graph,
                                   fuse=self.config.fuse != "off")

    def plan(self, built=None):
        """Every decision the planner took, as one typed record.

        Builds the pipeline (or inspects a ``built`` one from
        :meth:`build`) and returns a
        :class:`~repro.plan.planner.PlannerDecisions`: per-layer
        formats, fused sites, batch size and the explain strings, with
        the lowered :class:`~repro.plan.ir.ExecutionPlan` on
        ``.execution_plan``.  ``gsuite plan`` renders from this record,
        so the report can never drift from what the build actually
        applied.
        """
        from repro.plan import fusion_summary
        from repro.plan.planner import PlannerDecisions, explain_choice
        if built is None:
            built = self.build()
        plan = built.plan
        formats = tuple(plan.layer_formats)
        # The adaptive backend chose its formats; the fixed backends
        # execute the spec's compute model as given.
        formats_source = "planner" \
            if getattr(built, "formats", None) is not None else "fixed"
        batch = self.batch_decision()
        explain = ""
        if plan.meta.get("dims"):
            from repro.core.models import get_model_class
            explain = explain_choice(
                plan.meta["dims"], self.graph_stats(),
                chosen=formats,
                width_hook=get_model_class(
                    self.config.model).aggregation_width)
        return PlannerDecisions(
            formats=formats,
            formats_source=formats_source,
            fused_sites=fusion_summary(plan),
            batch=batch.size,
            batch_source=batch.source,
            explain=explain,
            execution_plan=plan,
        )

    def run(self, features: Optional[np.ndarray] = None) -> np.ndarray:
        """Build and execute one inference pass.

        For a batched pipeline the return is the *packed* output
        (``[sum of member node counts, out_features]``); use
        :meth:`run_batch` for per-member blocks.
        """
        return self.build().run(features)

    def run_batch(self, features: Optional[np.ndarray] = None) -> List[np.ndarray]:
        """One inference pass, returned as per-member output blocks.

        A batched pipeline runs its single packed plan and unpacks the
        result (each block bit-for-bit equal to running that member's
        unbatched plan alone); an unbatched pipeline returns a
        one-element list, so sweep code can treat both uniformly.
        """
        out = self.run(features)
        graph = self.graph
        if isinstance(graph, BatchedGraph):
            return graph.unpack(out)
        return [out]

    def measure(self, repeats: Optional[int] = None) -> List[float]:
        """End-to-end wall-clock seconds per repeat (build + inference).

        The paper's Fig. 3 methodology: each run is measured three times
        and the mean of the statistics is reported.
        """
        repeats = repeats if repeats is not None else self.config.repeats
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.build().run()
            times.append(time.perf_counter() - start)
        return times

    def record(self, features: Optional[np.ndarray] = None) -> LaunchRecorder:
        """Run once under kernel instrumentation; returns the recorder."""
        pipeline = self.build()
        with record_launches(sample_cap=self.config.sample_cap) as recorder:
            pipeline.run(features)
        return recorder

    def simulate(self, simulator=None, cache=None) -> list:
        """Record one pass and simulate every launch on the GPU model.

        ``simulator`` defaults to a :class:`~repro.gpu.simulator.GpuSimulator`
        wired to the persistent trace cache (``cache`` overrides which
        one; the bench engine's behaviour) — so API users hit
        ``results/.cache`` exactly like warm benchmark runs.  An
        explicit ``simulator`` is used as configured; passing ``cache``
        alongside one attaches it only if the simulator has none.
        """
        from repro.cache import get_cache
        from repro.gpu.simulator import GpuSimulator
        if simulator is None:
            simulator = GpuSimulator(
                cache=cache if cache is not None else get_cache())
        elif cache is not None and simulator.cache is None:
            simulator.cache = cache
        return simulator.simulate_all(self.record().launches)

    def profile(self, profiler=None, cache=None) -> list:
        """Record one pass and profile every launch (nvprof substitute).

        Like :meth:`simulate`, the default profiler is wired to the
        persistent trace cache so repeated profiles of an unchanged
        pipeline are disk reads.
        """
        from repro.cache import get_cache
        from repro.gpu.profiler import NvprofProfiler
        if profiler is None:
            profiler = NvprofProfiler(
                cache=cache if cache is not None else get_cache())
        elif cache is not None and profiler.cache is None:
            profiler.cache = cache
        return profiler.profile_all(self.record().launches)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"GNNPipeline({self.figure_label()}, model={self.config.model},"
                f" dataset={self.config.dataset})")
