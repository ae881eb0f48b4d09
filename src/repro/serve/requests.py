"""Validated request/response models for the inference service.

An :class:`InferenceRequest` names a workload — either a registered
dataset (generated server-side, like every bench run) or an inline
graph payload — plus the pipeline parameters
(:class:`~repro.frameworks.base.PipelineSpec` fields and the backend).
Validation happens at construction, so a malformed request can never
reach the service's queue: it only ever holds requests the executor is
guaranteed to be able to build.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import Optional

import numpy as np

from repro.core.config import INT64_MAX, INT64_MIN
from repro.errors import BackendError, DatasetError, GSuiteError, ServeError
from repro.frameworks import PipelineSpec
from repro.graph import Graph, validate_graph

__all__ = ["InferenceRequest", "InferenceResponse"]

#: What each scalar field must hold, checked before any field is read:
#: a mistyped wire value is refused as a ServeError instead of escaping
#: as an ``AttributeError`` / ``TypeError`` from whatever reads it.
_FIELD_TYPES = (
    ("a string", str,
     ("request_id", "model", "framework", "compute_model", "activation")),
    ("a string or null", (str, type(None)), ("dataset",)),
    ("an integer", Integral, ("hidden", "num_layers", "seed")),
    ("an integer or null", (Integral, type(None)), ("out_features",)),
    ("a number", Real, ("scale",)),
)


@dataclass(frozen=True)
class InferenceRequest:
    """One validated inference request.

    Exactly one of ``dataset`` / ``graph`` names the workload.  Dataset
    requests resolve ``out_features`` from the dataset's class count
    when unset; inline-graph requests must pin it explicitly (there is
    no registry to default from).
    """

    request_id: str
    dataset: Optional[str] = None
    graph: Optional[Graph] = None
    model: str = "gcn"
    framework: str = "gsuite"
    compute_model: str = "MP"
    hidden: int = 16
    num_layers: int = 2
    out_features: Optional[int] = None
    activation: str = "relu"
    seed: int = 0
    scale: float = 1.0

    def __post_init__(self):
        for noun, types, names in _FIELD_TYPES:
            for name in names:
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, types):
                    raise ServeError(
                        f"request field {name!r} must be {noun}, got "
                        f"{type(value).__name__}")
                # A JSON integer can be arbitrarily long; past int64 it
                # overflows a float conversion on the worker later.
                if (isinstance(value, Integral)
                        and not INT64_MIN <= value <= INT64_MAX):
                    raise ServeError(
                        f"request field {name!r} must be within the "
                        f"int64 range, got a {value.bit_length()}-bit "
                        f"integer")
        if not self.request_id:
            raise ServeError("request_id must be a non-empty string")
        if (self.dataset is None) == (self.graph is None):
            raise ServeError(
                f"request {self.request_id!r} must name exactly one of "
                f"'dataset' or 'graph'")
        if self.graph is not None:
            if not isinstance(self.graph, Graph):
                raise ServeError(
                    f"request {self.request_id!r}: 'graph' must be a "
                    f"repro.graph.Graph, got {type(self.graph).__name__}")
            if not self.graph.num_features:
                raise ServeError(
                    f"request {self.request_id!r}: graph payloads must "
                    f"carry node features (at least one column)")
            if self.out_features is None:
                raise ServeError(
                    f"request {self.request_id!r}: graph payloads must "
                    f"pin 'out_features' (no dataset class count to "
                    f"default from)")
        if self.dataset is not None:
            from repro.datasets import get_spec
            try:
                get_spec(self.dataset)
            except DatasetError as exc:
                raise ServeError(
                    f"request {self.request_id!r}: {exc}") from exc
        from repro.core.models import ACTIVATIONS, get_model_class
        from repro.core.models.base import COMPUTE_MODELS
        try:
            # The build reads the model class on the worker: an unknown
            # name must die here, not there.
            get_model_class(self.model)
        except GSuiteError as exc:
            raise ServeError(
                f"request {self.request_id!r}: {exc}") from exc
        # Names the build reads only once the request is dequeued, and
        # the seed a dataset request generates its graph from.
        for name, known in (("compute_model", COMPUTE_MODELS),
                            ("activation", tuple(sorted(ACTIVATIONS)))):
            if getattr(self, name) not in known:
                raise ServeError(
                    f"request {self.request_id!r}: unknown {name} "
                    f"{getattr(self, name)!r}; known: {list(known)}")
        if self.seed < 0:
            raise ServeError(
                f"request {self.request_id!r}: seed must be >= 0, got "
                f"{self.seed}")
        from repro.frameworks import BACKEND_NAMES, get_backend
        try:
            get_backend(self.framework)
        except BackendError:
            raise ServeError(
                f"request {self.request_id!r}: unknown framework "
                f"{self.framework!r}; known: {sorted(BACKEND_NAMES)}"
            ) from None
        if not 0.0 < self.scale <= 1.0:
            raise ServeError(
                f"request {self.request_id!r}: scale must be in (0, 1], "
                f"got {self.scale}")
        try:
            # PipelineSpec validates geometry (layers, hidden, head width).
            self.pipeline_spec()
        except GSuiteError as exc:
            raise ServeError(
                f"request {self.request_id!r}: {exc}") from exc

    # -- derived views -----------------------------------------------------
    def resolved_out_features(self) -> int:
        """The head width this request executes with."""
        if self.out_features is not None:
            return self.out_features
        from repro.datasets import get_spec
        return get_spec(self.dataset).num_classes

    def pipeline_spec(self) -> PipelineSpec:
        """The :class:`~repro.frameworks.base.PipelineSpec` to build."""
        return PipelineSpec(
            model=self.model,
            compute_model=self.compute_model,
            hidden=self.hidden,
            out_features=self.resolved_out_features(),
            num_layers=self.num_layers,
            activation=self.activation,
            seed=self.seed,
        )

    def resolve_graph(self) -> Graph:
        """The workload graph (dataset requests generate it here)."""
        if self.graph is not None:
            return self.graph
        from repro.datasets import load_dataset
        return load_dataset(self.dataset, scale=self.scale, seed=self.seed)

    # -- wire form (the JSON-lines TCP server) ------------------------------
    @classmethod
    def from_dict(cls, payload: dict) -> "InferenceRequest":
        """Build a request from a decoded JSON object.

        Inline graphs travel as ``{"edge_index": [[...], [...]],
        "features": [[...], ...], "num_nodes": N}``; everything else is
        the dataclass fields verbatim, and the payload must pass
        :func:`~repro.graph.validate_graph` (ids in range, finite
        features).  Unknown keys refuse, so client typos surface as
        errors instead of silently-defaulted fields.
        """
        if not isinstance(payload, dict):
            raise ServeError(
                f"request payload must be a JSON object, got "
                f"{type(payload).__name__}")
        payload = dict(payload)
        graph_spec = payload.pop("graph", None)
        graph = None
        if graph_spec is not None:
            if not isinstance(graph_spec, dict) \
                    or "edge_index" not in graph_spec:
                raise ServeError(
                    "inline 'graph' must be an object with 'edge_index' "
                    "(and usually 'features')")
            try:
                graph = validate_graph(Graph(
                    np.asarray(graph_spec["edge_index"], dtype=np.int64),
                    features=np.asarray(graph_spec["features"],
                                        dtype=np.float32)
                    if graph_spec.get("features") is not None else None,
                    num_nodes=graph_spec.get("num_nodes"),
                    name=graph_spec.get("name", "payload"),
                ))
            except (GSuiteError, TypeError, ValueError) as exc:
                # Arrays that are not arrays (objects, ragged or
                # non-numeric lists) fail in the conversion itself.
                raise ServeError(f"bad inline graph: {exc}") from exc
        known = {f.name for f in _REQUEST_FIELDS}
        unknown = set(payload) - known
        if unknown:
            raise ServeError(
                f"unknown request keys: {sorted(unknown)}; "
                f"known: {sorted(known | {'graph'})}")
        try:
            return cls(graph=graph, **payload)
        except TypeError as exc:
            raise ServeError(f"bad request payload: {exc}") from exc

    def to_dict(self) -> dict:
        """JSON-serialisable form (round-trips through :meth:`from_dict`)."""
        out = {f.name: getattr(self, f.name) for f in _REQUEST_FIELDS
               if getattr(self, f.name) is not None}
        if self.graph is not None:
            out["graph"] = {
                "edge_index": self.graph.edge_index.tolist(),
                "features": self.graph.features.tolist(),
                "num_nodes": self.graph.num_nodes,
                "name": self.graph.name,
            }
        return out


_REQUEST_FIELDS = tuple(f for f in fields(InferenceRequest)
                        if f.name != "graph")


@dataclass
class InferenceResponse:
    """One served result.

    ``padded_to`` is the feature width the request executed at — always
    its own graph's; the service pads nothing.
    """

    request_id: str
    output: np.ndarray
    padded_to: int = 0
    latency_s: float = 0.0

    def summary(self) -> dict:
        """JSON-serialisable summary (the TCP server's reply line)."""
        return {
            "request_id": self.request_id,
            "output_shape": list(self.output.shape),
            "output_checksum": float(np.float64(self.output.sum())),
            "padded_to": self.padded_to,
            "latency_ms": round(self.latency_s * 1e3, 3),
        }
