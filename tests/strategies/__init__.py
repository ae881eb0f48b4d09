"""Hypothesis strategies shared across the test suite.

Re-exports the commonly used strategies and settings profiles for
convenience::

    from strategies import power_law_graphs, PARITY_SETTINGS

(The ``tests/`` directory sits on ``sys.path`` during a pytest run, so
the package imports as top-level ``strategies``.)
"""

from .features import feature_matrices
from .graphs import power_law_graphs
from .modes import (
    EXECUTABLE_COMBOS,
    FUSABLE_COMBOS,
    batch_member_lists,
    executable_combos,
    fusable_combos,
    lowered,
)
from .settings import PARITY_SETTINGS, STANDARD_SETTINGS

__all__ = [
    "EXECUTABLE_COMBOS",
    "FUSABLE_COMBOS",
    "PARITY_SETTINGS",
    "STANDARD_SETTINGS",
    "batch_member_lists",
    "executable_combos",
    "feature_matrices",
    "fusable_combos",
    "lowered",
    "power_law_graphs",
]
