"""The destination-major reduction structure and the kernels that read it.

``scatter`` and ``fused_gather_scatter`` take the structure of their
destination index as an argument (the plan executor keeps it resident
per graph) or build it on the spot; either way the result must be the
unfused reference's, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.kernels import (
    REDUCE_OPS,
    fused_gather_scatter,
    index_select,
    reduction_structure,
    scatter,
)
from repro.errors import KernelError
from strategies import STANDARD_SETTINGS, power_law_graphs


def _assert_matches_reference(source, src, dst, dim_size, reduce, scale):
    """Every kernel form equals gather -> scale -> scatter, bitwise."""
    messages = index_select(source, src)
    if scale is not None:
        messages = messages * scale[:, None]
    reference = scatter(messages, dst, dim_size=dim_size, reduce=reduce)
    structure = reduction_structure(dst, dim_size)
    for name, result in (
        ("scatter + structure",
         scatter(messages, dst, dim_size=dim_size, reduce=reduce,
                 structure=structure)),
        ("fused",
         fused_gather_scatter(source, src, dst, dim_size, scale=scale,
                              reduce=reduce)),
        ("fused + structure",
         fused_gather_scatter(source, src, dst, dim_size, scale=scale,
                              reduce=reduce, structure=structure)),
    ):
        assert result.dtype == np.float32, name
        assert np.array_equal(result, reference), (name, reduce)


@STANDARD_SETTINGS
@given(graph=power_law_graphs(min_nodes=1, max_width=4),
       reduce=st.sampled_from(REDUCE_OPS), scaled=st.booleans(),
       seed=st.integers(0, 2**31 - 1))
def test_kernels_match_unfused_reference(graph, reduce, scaled, seed):
    """With or without a passed structure, with or without ``scale``.

    The drawn graphs carry duplicate edges, unsorted destinations,
    destinations with no in-edge, empty edge lists and width-1
    features.

    The scaled case is pinned per host: folding ``scale`` into the CSR
    values relies on the compiled ``csr_matvecs`` rounding ``a * x`` to
    float32 before the add, as the materialised message was rounded
    (this scipy build's ``_sparsetools`` contracts no FMA).  If this
    property fails on a host, pre-multiply the messages in
    ``fused_gather_scatter`` instead of weakening the assertion.
    """
    scale = np.random.default_rng(seed).standard_normal(
        graph.num_edges).astype(np.float32) if scaled else None
    _assert_matches_reference(graph.features, graph.src, graph.dst,
                              graph.num_nodes, reduce, scale)


_SOURCE = np.array([[1.5], [-2.25], [0.1], [3.0]], dtype=np.float32)
_CORNERS = {
    "empty edge list": ([], []),
    "duplicate edges": ([1, 1, 1, 0], [2, 2, 2, 2]),
    "unsorted dst": ([0, 1, 2, 3, 0], [3, 0, 2, 0, 1]),
    "single hub": ([0, 1, 2, 3], [1, 1, 1, 1]),
}


@pytest.mark.parametrize("reduce", REDUCE_OPS)
@pytest.mark.parametrize("scaled", [False, True])
@pytest.mark.parametrize("corner", sorted(_CORNERS))
def test_corner_cases_match_reference(corner, scaled, reduce):
    src, dst = (np.array(a, dtype=np.int64) for a in _CORNERS[corner])
    scale = np.linspace(-1.5, 2.5, src.size).astype(np.float32) \
        if scaled else None
    _assert_matches_reference(_SOURCE, src, dst, 4, reduce, scale)


def test_structure_is_destination_major_and_stable():
    dst = np.array([2, 0, 2, 1, 0, 2])
    indptr, perm, counts = reduction_structure(dst, 4)
    assert indptr.tolist() == [0, 2, 3, 6, 6]
    assert perm.tolist() == [1, 4, 3, 0, 2, 5]      # edge order kept per slot
    assert counts.tolist() == [2.0, 1.0, 3.0, 1.0]  # empty slot clamps to 1
    assert counts.dtype == np.float32


def test_mismatched_structure_is_refused():
    source = np.ones((3, 2), dtype=np.float32)
    src = np.array([0, 1, 2])
    dst = np.array([1, 1, 0])
    other_rows = reduction_structure(np.array([0, 1]), 3)
    other_slots = reduction_structure(dst, 5)
    for structure in (other_rows, other_slots):
        with pytest.raises(KernelError):
            scatter(source, dst, dim_size=3, structure=structure)
        with pytest.raises(KernelError):
            fused_gather_scatter(source, src, dst, 3, structure=structure)
