"""Model registry — the "GNN model" axis of the benchmark grid.

``build_model`` is what the pipeline and CLI use; the registry itself is
the extension point for plug-and-play models: register a
:class:`~repro.core.models.base.GNNModel` subclass and every experiment
driver can sweep it.
"""

from __future__ import annotations

from typing import Dict, Type

from repro.core.models.base import GNNModel
from repro.core.models.gcn import GCN
from repro.core.models.gin import GIN
from repro.core.models.sage import SAGE
from repro.errors import ModelError

__all__ = ["MODELS", "MODEL_NAMES", "get_model_class", "build_model",
           "register_model"]

MODELS: Dict[str, Type[GNNModel]] = {
    "gcn": GCN,
    "gin": GIN,
    "sage": SAGE,
}

#: Paper presentation order (GCN, GIN, SAG).
MODEL_NAMES = ("gcn", "gin", "sage")

_ALIASES = {"sag": "sage", "graphsage": "sage"}


def get_model_class(name: str) -> Type[GNNModel]:
    """Resolve a model name or alias to its class."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in MODELS:
        known = ", ".join(sorted(set(MODELS) | set(_ALIASES)))
        raise ModelError(f"unknown model {name!r}; known: {known}")
    return MODELS[key]


def build_model(name: str, in_features: int, hidden: int, out_features: int,
                num_layers: int = 2, compute_model: str = "MP",
                seed: int = 0, **kwargs) -> GNNModel:
    """Instantiate a registered model with the given stack geometry."""
    cls = get_model_class(name)
    return cls(in_features, hidden, out_features, num_layers=num_layers,
               compute_model=compute_model, seed=seed, **kwargs)


def register_model(name: str, cls: Type[GNNModel],
                   overwrite: bool = False) -> None:
    """Add a user-defined model to the registry (plug-and-play extension).

    Every backend runs a model as its lowered plan, so ``cls`` must
    implement :meth:`~repro.core.models.base.GNNModel.lower_layer`.
    """
    key = name.strip().lower()
    if not key:
        raise ModelError("model name must be non-empty")
    if key in MODELS and not overwrite:
        raise ModelError(f"model {name!r} already registered")
    if not (isinstance(cls, type) and issubclass(cls, GNNModel)):
        raise ModelError(f"{cls!r} is not a GNNModel subclass")
    if cls.lower_layer is GNNModel.lower_layer:
        raise ModelError(
            f"{cls.__name__} implements no lower_layer: every backend runs "
            f"a model as its lowered plan"
        )
    MODELS[key] = cls
