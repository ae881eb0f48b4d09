"""Data loading facade — the paper's "Data Loader" box in Fig. 1.

``load_dataset`` is the single entry point used by the pipeline, the
examples and the benchmarks.  It resolves a name (or short form) to a
:class:`~repro.datasets.specs.DatasetSpec`, optionally scales it down for
CI-sized runs, generates the graph deterministically and validates it.
Results are memoised so repeated benchmark runs over the same workload do
not pay generation cost twice.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.datasets.specs import get_spec, scaled_spec
from repro.datasets.synthetic import generate_graph
from repro.graph import Graph
from repro.graph.validate import validate_graph

__all__ = ["load_dataset", "dataset_statistics", "clear_cache", "cache_info"]

_CacheKey = Tuple[str, float, int, bool]
_CACHE: Dict[_CacheKey, Graph] = {}

#: Keep at most this many generated graphs alive; benches sweep five
#: datasets repeatedly so a small cache removes all regeneration cost.
_CACHE_LIMIT = 8


def load_dataset(name: str, scale: float = 1.0, seed: int = 0,
                 with_features: bool = True, validate: bool = True) -> Graph:
    """Load (generate) a benchmark graph.

    Parameters
    ----------
    name:
        Dataset name, alias or Table IV short form (``"cora"``, ``"CR"``).
    scale:
        Fraction in (0, 1] applied to node and edge counts; 1.0 gives the
        exact Table IV sizes.  Feature length never scales.
    seed:
        Generation seed; the same (name, scale, seed) triple always yields
        an identical graph.
    with_features:
        Set False to skip feature synthesis (topology-only workloads).
    validate:
        Run structural validation on the produced graph (cheap; on by
        default).

    Returns
    -------
    Graph
        A validated workload graph whose ``name`` is the canonical
        dataset name.
    """
    spec = get_spec(name)
    spec = scaled_spec(spec, scale)
    key = (spec.name, scale, seed, with_features)
    if key in _CACHE:
        return _CACHE[key]
    graph = generate_graph(spec, seed=seed, with_features=with_features)
    if validate:
        validate_graph(graph)
    if len(_CACHE) >= _CACHE_LIMIT:
        _CACHE.pop(next(iter(_CACHE)))
    _CACHE[key] = graph
    return graph


def dataset_statistics(name: str, scale: float = 1.0,
                       seed: int = 0) -> Dict[str, object]:
    """Measured statistics of a generated dataset, for the Table IV bench.

    Includes both the spec targets and the realised values so the bench
    can assert they agree.
    """
    spec = scaled_spec(get_spec(name), scale)
    graph = load_dataset(name, scale=scale, seed=seed)
    degrees = graph.degrees()
    return {
        "name": spec.name,
        "short_form": spec.short_form,
        "spec_nodes": spec.num_nodes,
        "spec_edges": spec.num_edges,
        "spec_feature_length": spec.feature_length,
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "feature_length": graph.num_features,
        "max_degree": int(degrees.max()) if graph.num_nodes else 0,
        "mean_degree": float(degrees.mean()) if graph.num_nodes else 0.0,
    }


def clear_cache() -> None:
    """Drop all memoised graphs (used by tests to control memory)."""
    _CACHE.clear()


def cache_info() -> Tuple[int, int]:
    """Return ``(entries, limit)`` of the graph cache."""
    return len(_CACHE), _CACHE_LIMIT
