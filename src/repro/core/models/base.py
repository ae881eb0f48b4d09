"""Base classes for GNN models built from gSuite core kernels.

A model is a stack of layers with deterministic, seeded weights and
nothing else: it *is* its lowering to an
:class:`~repro.plan.ir.ExecutionPlan`, which every backend executes.
Each concrete model lowers to a message-passing (MP) plan, and those
with a published SpMM formulation (GCN, GIN) to an SpMM plan too.  Both
compute the *same function* — the premise of the paper's MP-vs-SpMM
comparison — and the test suite pins every plan against one float64
re-derivation of that function (``tests/oracle.py``).

Extending gSuite with a new model means subclassing :class:`GNNModel`
and emitting plan ops (gather, scatter-reduce, SGEMM, SpMM, Normalize)
in :meth:`GNNModel.lower_prepare` / :meth:`GNNModel.lower_layer`;
:func:`~repro.core.models.registry.register_model` refuses a class
without ``lower_layer``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.models.activations import get_activation
from repro.errors import ModelError
from repro.graph import Graph

__all__ = ["GNNModel", "check_features", "layer_dimensions"]

#: Computational models a GNN implementation may follow.
COMPUTE_MODELS = ("MP", "SpMM")


def check_features(graph: Graph, width: int,
                   features: Optional[np.ndarray] = None) -> np.ndarray:
    """Resolve and validate an input feature matrix.

    ``features`` overrides the graph's own ``X``, which is returned in
    the form the graph stores it
    (:attr:`~repro.graph.Graph.stored_features`: a row-sparse CSR is
    not densified here).  The result is float32 of shape
    ``(graph.num_nodes, width)`` (a float32 array passes through as the
    same object), else :class:`~repro.errors.ModelError`.
    """
    x = features if features is not None else graph.stored_features
    if x is None:
        raise ModelError(
            f"graph {graph.name!r} carries no features and none were given"
        )
    if x is not graph.stored_features:
        x = np.asarray(x, dtype=np.float32)
    if x.shape != (graph.num_nodes, width):
        raise ModelError(
            f"features must have shape ({graph.num_nodes}, {width}), "
            f"got {x.shape}"
        )
    return x


def layer_dimensions(in_features: int, hidden: int, out_features: int,
                     num_layers: int) -> List[tuple]:
    """Per-layer (fan_in, fan_out) pairs for a standard GNN stack.

    One layer maps straight from input to output; deeper stacks route
    through ``hidden`` everywhere in between.
    """
    if num_layers < 1:
        raise ModelError(f"num_layers must be >= 1, got {num_layers}")
    if min(in_features, hidden, out_features) < 1:
        raise ModelError(
            f"dimensions must be positive, got in={in_features}, "
            f"hidden={hidden}, out={out_features}"
        )
    if num_layers == 1:
        return [(in_features, out_features)]
    dims = [(in_features, hidden)]
    dims.extend((hidden, hidden) for _ in range(num_layers - 2))
    dims.append((hidden, out_features))
    return dims


class GNNModel:
    """Abstract multi-layer GNN.

    Parameters
    ----------
    in_features / hidden / out_features / num_layers:
        Stack geometry (see :func:`layer_dimensions`).
    compute_model:
        ``"MP"`` or ``"SpMM"``; must be one of the subclass's
        ``supported_compute_models``.
    activation:
        Inter-layer activation name (the final layer applies none,
        producing logits — standard inference convention).
    seed:
        Weight initialisation seed; identical seeds give identical
        models, so MP and SpMM instances can be compared numerically.
    """

    #: Subclasses override: canonical name and supported models.
    name: str = "base"
    supported_compute_models: Sequence[str] = ("MP",)

    #: Formats the model can *lower to* in the plan IR.  Usually equal
    #: to ``supported_compute_models``, but a model may provide an SpMM
    #: lowering for the adaptive planner even when the paper's model is
    #: MP-only (SAGE's mean aggregation is one row-normalised SpMM).
    #: ``None`` means "same as supported_compute_models".
    lowerable_formats: Optional[Sequence[str]] = None

    def __init__(self, in_features: int, hidden: int, out_features: int,
                 num_layers: int = 2, compute_model: str = "MP",
                 activation: str = "relu", seed: int = 0):
        if compute_model not in COMPUTE_MODELS:
            raise ModelError(
                f"unknown compute model {compute_model!r}; "
                f"expected one of {COMPUTE_MODELS}"
            )
        if compute_model not in self.supported_compute_models:
            raise ModelError(
                f"{self.name} does not support the {compute_model} model "
                f"(supported: {list(self.supported_compute_models)})"
            )
        self.compute_model = compute_model
        self.dims = layer_dimensions(in_features, hidden, out_features,
                                     num_layers)
        self.num_layers = num_layers
        get_activation(activation)   # refuse an unknown name up front
        self.activation_name = activation
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.weights: List[dict] = [self._init_layer(fan_in, fan_out)
                                    for fan_in, fan_out in self.dims]

    # -- weight initialisation --------------------------------------------
    def _init_layer(self, fan_in: int, fan_out: int) -> dict:
        """Glorot-uniform weight + zero bias for one layer.

        Subclasses needing extra parameters override and extend the dict.
        """
        return {
            "W": self._glorot(fan_in, fan_out),
            "b": np.zeros(fan_out, dtype=np.float32),
        }

    def _glorot(self, fan_in: int, fan_out: int) -> np.ndarray:
        """Glorot/Xavier uniform initialisation."""
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return self._rng.uniform(-limit, limit,
                                 size=(fan_in, fan_out)).astype(np.float32)

    # -- cost-model widths --------------------------------------------------
    @classmethod
    def aggregation_width(cls, fmt: str, fan_in: int, fan_out: int) -> int:
        """The feature width one layer's aggregation runs at under ``fmt``.

        The planner's per-layer cost estimates are driven by this hook.
        The default — aggregate at the *input* width — matches models
        that gather raw features before transforming (GIN, SAGE).
        Transform-first models override: GCN's MP path multiplies by
        ``W`` before gathering, so its messages are ``fan_out`` wide.
        """
        return fan_in

    # -- plan lowering ------------------------------------------------------
    @classmethod
    def supported_lowerings(cls) -> Sequence[str]:
        """Execution formats :meth:`lower` accepts per layer."""
        return tuple(cls.lowerable_formats or cls.supported_compute_models)

    def lower(self, formats: Optional[Sequence[str]] = None,
              flavor: str = "native", prepare: Optional[Callable] = None):
        """Lower this model to an :class:`~repro.plan.ir.ExecutionPlan`.

        ``formats`` selects the execution format *per layer* (default:
        the model's configured compute model everywhere).  By default
        structure preparation (:meth:`lower_prepare`) is emitted before
        layer 0, once per distinct format in order of first appearance,
        and shared by every layer of that format.  A framework backend
        passes ``prepare(builder, fmt, layer) -> state`` instead, called
        before each layer, to supply the structures its framework
        builds (and when it builds them) to the same :meth:`lower_layer`.
        """
        from repro.plan.ir import PlanBuilder
        if formats is None:
            formats = [self.compute_model] * self.num_layers
        formats = [str(fmt) for fmt in formats]
        if len(formats) != self.num_layers:
            raise ModelError(
                f"{self.name}: {len(formats)} layer formats for "
                f"{self.num_layers} layers"
            )
        allowed = set(self.supported_lowerings())
        unsupported = sorted(set(formats) - allowed)
        if unsupported:
            raise ModelError(
                f"{self.name} cannot lower to {unsupported} "
                f"(lowerable: {sorted(allowed)})"
            )
        builder = PlanBuilder(model=self.name, flavor=flavor)
        x = builder.input("X", fmt="dense")
        if prepare is None:
            state = {}
            for fmt in formats:
                if fmt not in state:
                    state[fmt] = self.lower_prepare(builder, fmt)

            def prepare(builder, fmt, layer):
                return state[fmt]
        for layer in range(self.num_layers):
            fmt = formats[layer]
            x = self.lower_layer(layer, x, builder,
                                 prepare(builder, fmt, layer), fmt)
            if layer < self.num_layers - 1:
                x = builder.activation(x, self.activation_name)
        return builder.build(x, layer_formats=tuple(formats),
                             meta={"seed": self.seed, "dims": list(self.dims)})

    def lower_prepare(self, builder, fmt: str) -> dict:
        """Emit the structure-preparation ops for one execution format.

        Graph-dependent state shared by all layers of that format
        (self-loop insertion, GCN edge weights, an SpMM operator);
        returns the state dict of value refs :meth:`lower_layer`
        consumes.  Default: no preparation.
        """
        return {}

    def lower_layer(self, layer: int, x, builder, state: dict, fmt: str):
        """Emit one layer's ops and return the layer's output value ref.

        This, with :meth:`lower_prepare`, *is* the model as every
        backend runs it, so every model implements it — a registered
        extension model included (``register_model`` refuses one that
        does not).  ``state`` is what :meth:`lower_prepare` returned for
        ``fmt``, or what a framework's ``prepare`` hook supplied in its
        place (:meth:`lower`).
        """
        raise NotImplementedError(
            f"{type(self).__name__} provides no plan lowering"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(dims={self.dims}, "
                f"compute_model={self.compute_model!r})")
