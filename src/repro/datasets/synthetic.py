"""Synthetic graph and feature generators.

The connectivity generator is a degree-corrected Chung-Lu model with a
community-locality twist:

1. every node draws an expected-degree weight from a power law with the
   spec's exponent (heavy-tailed hubs, like real citation/social graphs);
2. edge endpoints are sampled proportionally to those weights;
3. a ``locality`` fraction of destinations is redirected to node ids close
   to the source, emulating the community structure responsible for the
   cache locality differences the paper observes across datasets (Fig. 8).

Self-loops and duplicate edges are rejected and re-sampled so the final
edge count matches the spec *exactly* — Table IV is reproduced to the
edge.

Bag-of-words features (Cora, CiteSeer, PubMed) are 1 % non-zero and are
generated as the row-sparse CSR the graph keeps (paper Section II-D:
gSuite carries datasets as dense, sparse, COO or CSR), so loading one
allocates no dense ``N x F`` matrix; a consumer that needs one asks
:attr:`repro.graph.Graph.features`.

Everything is driven by ``numpy.random.Generator`` seeded explicitly, so
generation is deterministic across runs and platforms.
"""

from __future__ import annotations

import zlib

import numpy as np
import scipy.sparse as _sp

from repro.errors import DatasetError
from repro.datasets.specs import DatasetSpec
from repro.graph import Graph

__all__ = [
    "power_law_weights",
    "sample_edges",
    "synthesize_features",
    "generate_graph",
]

#: Hard ceiling on re-sampling rounds; generous because each round fixes
#: the vast majority of collisions.
_MAX_RESAMPLE_ROUNDS = 64


def power_law_weights(num_nodes: int, exponent: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Draw per-node expected-degree weights from a Pareto tail.

    Weights follow ``P(w > x) ~ x^-(exponent-1)``, the standard
    construction for a Chung-Lu graph whose degree distribution has the
    requested power-law exponent.  Weights are normalised to mean 1.
    """
    if num_nodes <= 0:
        raise DatasetError(f"num_nodes must be positive, got {num_nodes}")
    if exponent <= 1.0:
        raise DatasetError(f"degree exponent must exceed 1, got {exponent}")
    raw = rng.pareto(exponent - 1.0, size=num_nodes) + 1.0
    # Clip the extreme tail so one node cannot swallow the edge budget of
    # small scaled-down graphs.
    cap = max(10.0, num_nodes / 10.0)
    raw = np.minimum(raw, cap)
    return (raw / raw.mean()).astype(np.float64)


def _localize(src: np.ndarray, dst: np.ndarray, num_nodes: int,
              locality: float, rng: np.random.Generator) -> np.ndarray:
    """Redirect a ``locality`` fraction of destinations near their source.

    Redirected destinations land within a +/-2% id window around the
    source (ids are assigned contiguously within communities by
    construction, so "nearby id" means "same community").
    """
    if locality <= 0.0 or num_nodes < 8:
        return dst
    redirect = rng.random(src.shape[0]) < locality
    if not np.any(redirect):
        return dst
    window = max(2, int(num_nodes * 0.02))
    offsets = rng.integers(-window, window + 1, size=int(redirect.sum()))
    near = (src[redirect] + offsets) % num_nodes
    out = dst.copy()
    out[redirect] = near
    return out


def sample_edges(spec: DatasetSpec, rng: np.random.Generator) -> np.ndarray:
    """Sample exactly ``spec.num_edges`` unique directed edges, no loops.

    Returns an ``(2, E)`` int64 edge index.  Raises
    :class:`DatasetError` if the edge budget cannot be met (only possible
    for pathological specs denser than a complete graph).
    """
    num_nodes, target = spec.num_nodes, spec.num_edges
    if target > num_nodes * (num_nodes - 1):
        raise DatasetError(
            f"{spec.name}: cannot place {target} unique directed edges in a "
            f"{num_nodes}-node simple graph"
        )
    weights = power_law_weights(num_nodes, spec.degree_exponent, rng)
    probs = weights / weights.sum()

    chosen = np.empty((2, 0), dtype=np.int64)
    seen = np.empty(0, dtype=np.int64)
    needed = target
    for _ in range(_MAX_RESAMPLE_ROUNDS):
        if needed == 0:
            break
        # Oversample to absorb rejected duplicates/self-loops in one round.
        batch = min(int(needed * 1.3) + 16, 4 * target + 16)
        src = rng.choice(num_nodes, size=batch, p=probs)
        dst = rng.choice(num_nodes, size=batch, p=probs)
        dst = _localize(src, dst, num_nodes, spec.locality, rng)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        keys = src * np.int64(num_nodes) + dst
        # Drop duplicates within the batch and against accepted edges.
        keys, first = np.unique(keys, return_index=True)
        fresh = ~np.isin(keys, seen, assume_unique=False)
        fresh_idx = first[fresh]
        take = fresh_idx[:needed]
        accepted = np.vstack([src[take], dst[take]])
        chosen = np.hstack([chosen, accepted])
        seen = np.concatenate([seen, keys[fresh][:needed]])
        needed = target - chosen.shape[1]
    else:
        raise DatasetError(
            f"{spec.name}: edge sampling failed to converge "
            f"({needed} of {target} edges missing)"
        )
    # Real benchmark datasets ship edges sorted by source id (CSR export
    # order); that ordering is what gives gather kernels their locality,
    # so the synthetic graphs preserve it.
    order = np.lexsort((chosen[1], chosen[0]))
    return chosen[:, order].astype(np.int64)


def synthesize_features(spec: DatasetSpec, rng: np.random.Generator):
    """Generate the float32 feature matrix for ``spec``.

    * ``bag_of_words`` — sparse 0/1 rows with roughly 1% active words,
      the shape of Cora/CiteSeer/PubMed TF-IDF vectors, built directly
      as the row-sparse CSR a :class:`~repro.graph.Graph` keeps: each
      row draws its word ids, a word drawn twice is stored once, and no
      dense ``[n, f]`` matrix is ever allocated;
    * ``dense``        — unit-variance Gaussian embeddings (Reddit GloVe);
    * ``scalar``       — a single normalised structural feature
      (LiveJournal has feature length 1 in Table IV).

    The last two are dense arrays.
    """
    n, f = spec.num_nodes, spec.feature_length
    if spec.feature_style == "bag_of_words":
        density = 0.01
        active_per_row = max(1, int(f * density))
        cols = rng.integers(0, f, size=(n, active_per_row))
        # Row-major keys: sorted and unique, they are the stored entries
        # in CSR order (rows ascending, columns ascending within a row).
        keys = np.unique(np.arange(n, dtype=np.int64)[:, None] * f + cols)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // f, minlength=n), out=indptr[1:])
        # The constructor picks the index width as for any CSR the
        # graph builds (int32 here).
        return _sp.csr_matrix(
            (np.ones(keys.shape[0], dtype=np.float32),
             (keys % f).astype(np.int32), indptr), shape=(n, f))
    if spec.feature_style == "dense":
        return rng.standard_normal((n, f)).astype(np.float32)
    if spec.feature_style == "scalar":
        return rng.random((n, f)).astype(np.float32)
    raise DatasetError(f"unknown feature style {spec.feature_style!r}")


def generate_graph(spec: DatasetSpec, seed: int = 0,
                   with_features: bool = True) -> Graph:
    """Materialise a :class:`Graph` for ``spec``.

    ``seed`` controls both connectivity and features; identical inputs
    produce bit-identical graphs.
    """
    # zlib.crc32 rather than hash(): str hashing is salted per process and
    # would break cross-run determinism.
    name_key = zlib.crc32(spec.name.encode("utf-8"))
    rng = np.random.default_rng(np.random.SeedSequence([name_key, seed]))
    edge_index = sample_edges(spec, rng)
    features = synthesize_features(spec, rng) if with_features else None
    return Graph(edge_index, features=features, num_nodes=spec.num_nodes,
                 name=spec.name)
