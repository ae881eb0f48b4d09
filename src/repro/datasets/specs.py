"""Dataset specifications matching the paper's Table IV.

The paper evaluates on five graphs.  This environment has no network
access, so each dataset is backed by a deterministic synthetic generator
whose *statistics* match Table IV exactly: node count, directed edge
count, and feature length.  The degree distribution and feature style are
modelled after the published descriptions of the real datasets, because
those are the properties that drive the memory behaviour the paper
characterises (irregular gathers, scatter contention, cache locality).

+-------------+-----------+----------------+------------+-------+
| Dataset     | Nodes     | Feature length | Edges      | Short |
+-------------+-----------+----------------+------------+-------+
| Cora        | 2,708     | 1,433          | 5,429      | CR    |
| CiteSeer    | 3,327     | 3,703          | 4,732      | CS    |
| PubMed      | 19,717    | 500            | 44,438     | PB    |
| Reddit      | 232,965   | 602            | 11,606,919 | RD    |
| LiveJournal | 4,847,571 | 1              | 68,993,773 | LJ    |
+-------------+-----------+----------------+------------+-------+
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict

from repro.errors import DatasetError

__all__ = [
    "DatasetSpec",
    "DATASETS",
    "DATASET_NAMES",
    "SHORT_FORMS",
    "get_spec",
    "scaled_spec",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of one benchmark workload.

    Attributes
    ----------
    name / short_form:
        Canonical lower-case name and the two-letter code the paper's
        figures use (``CR``, ``CS``, ``PB``, ``RD``, ``LJ``).
    num_nodes / num_edges / feature_length:
        Table IV statistics.  ``num_edges`` counts directed edges.
    degree_exponent:
        Power-law exponent of the synthetic degree distribution.  Citation
        networks are mildly skewed (~2.9); social networks heavily skewed
        (~2.3 Reddit, ~2.5 LiveJournal per the SNAP measurements).
    feature_style:
        ``"bag_of_words"`` (sparse 0/1 rows — citation datasets),
        ``"dense"`` (continuous embeddings — Reddit GloVe vectors) or
        ``"scalar"`` (LiveJournal's single structural feature).
    locality:
        Fraction of edges rewired toward nearby node ids.  Citation graphs
        exhibit strong community locality; LiveJournal much less.  This is
        the knob that lets the cache-behaviour experiments (Fig. 8) see
        realistic, dataset-dependent reuse.
    num_classes:
        Label count, used only to size the final layer of example models.
    """

    name: str
    short_form: str
    num_nodes: int
    feature_length: int
    num_edges: int
    degree_exponent: float
    feature_style: str
    locality: float
    num_classes: int

    @property
    def average_degree(self) -> float:
        """Mean directed degree ``E / V``."""
        return self.num_edges / self.num_nodes if self.num_nodes else 0.0



DATASETS: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (
        DatasetSpec("cora", "CR", 2_708, 1_433, 5_429,
                    degree_exponent=2.9, feature_style="bag_of_words",
                    locality=0.80, num_classes=7),
        DatasetSpec("citeseer", "CS", 3_327, 3_703, 4_732,
                    degree_exponent=2.9, feature_style="bag_of_words",
                    locality=0.80, num_classes=6),
        DatasetSpec("pubmed", "PB", 19_717, 500, 44_438,
                    degree_exponent=2.8, feature_style="bag_of_words",
                    locality=0.70, num_classes=3),
        DatasetSpec("reddit", "RD", 232_965, 602, 11_606_919,
                    degree_exponent=2.3, feature_style="dense",
                    locality=0.40, num_classes=41),
        DatasetSpec("livejournal", "LJ", 4_847_571, 1, 68_993_773,
                    degree_exponent=2.5, feature_style="scalar",
                    locality=0.20, num_classes=2),
    )
}

#: Dataset names in the paper's presentation order.
DATASET_NAMES = ("cora", "citeseer", "pubmed", "reddit", "livejournal")

#: Short-form code -> canonical name.
SHORT_FORMS = {spec.short_form: name for name, spec in DATASETS.items()}

_ALIASES = {
    "cr": "cora",
    "cs": "citeseer",
    "pb": "pubmed",
    "rd": "reddit",
    "lj": "livejournal",
}


def get_spec(name: str) -> DatasetSpec:
    """Look up a spec by canonical name, alias, or short form."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in DATASETS:
        known = ", ".join(sorted(set(DATASETS) | set(_ALIASES)))
        raise DatasetError(f"unknown dataset {name!r}; known: {known}")
    return DATASETS[key]


def scaled_spec(spec: DatasetSpec, scale: float) -> DatasetSpec:
    """Shrink a spec by ``scale`` in (0, 1], preserving average degree.

    Nodes and edges scale linearly (so ``E/V`` is unchanged); feature
    length is untouched because it is a per-node property the kernels are
    sensitive to.  ``scale=1.0`` returns the spec unchanged.
    """
    if not 0.0 < scale <= 1.0:
        raise DatasetError(f"scale must be in (0, 1], got {scale}")
    if scale == 1.0:
        return spec
    nodes = max(4, int(math.ceil(spec.num_nodes * scale)))
    edges = max(4, int(math.ceil(spec.num_edges * scale)))
    # A simple graph cannot hold more than V*(V-1) directed edges.
    edges = min(edges, nodes * (nodes - 1))
    return replace(spec, num_nodes=nodes, num_edges=edges)
