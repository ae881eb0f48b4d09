"""Activation functions for GNN layers.

The paper's Theta is "an activation function such as a Rectified Linear
Unit (ReLU) or a Sigmoid function"; both are provided (final layers
apply none).  Each takes an optional ``out`` array (``out=x`` applies
it in place, as the ``sgemm`` / ``spmm`` epilogues do to their own
product), with the same bits as the out-of-place call.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.errors import ModelError

__all__ = ["ACTIVATIONS", "get_activation", "relu", "sigmoid"]


def relu(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0, out=out)


def sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Numerically stable logistic sigmoid.  ``out=x`` is safe: each
    entry is read before it is written."""
    if out is None:
        out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


ACTIVATIONS: Dict[str, Callable[..., np.ndarray]] = {
    "relu": relu,
    "sigmoid": sigmoid,
}


def get_activation(name: str) -> Callable[..., np.ndarray]:
    """Look up an activation by name."""
    if name not in ACTIVATIONS:
        raise ModelError(
            f"unknown activation {name!r}; known: {sorted(ACTIVATIONS)}"
        )
    return ACTIVATIONS[name]
