"""The sum / mean aggregation operator and the kernels that apply it.

``scatter`` and ``fused_gather_scatter`` take the CSR
:func:`~repro.core.kernels.aggregation_operator` as an argument (the
plan executor keeps it resident per graph) or build it for the call;
either way the result is the unfused reference's, bit for bit.  An
operator that cannot belong to the call is refused before any
arithmetic and records no launch.

The CSR product never enters BLAS, so these pins hold at any BLAS
thread count (CI re-runs this file under ``OPENBLAS_NUM_THREADS=2``).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.kernels import (
    aggregation_operator,
    fused_gather_scatter,
    index_select,
    record_launches,
    reduction_structure,
    scatter,
)
from repro.errors import KernelError
from strategies import STANDARD_SETTINGS, power_law_graphs

_SUM_MEAN = ("sum", "mean")


def _assert_operator_parity(source, src, dst, dim_size, reduce, scale):
    messages = index_select(source, src)
    if scale is not None:
        messages = messages * scale[:, None]
    reference = scatter(messages, dst, dim_size=dim_size, reduce=reduce)
    structure = reduction_structure(dst, dim_size)
    fused_op = aggregation_operator(structure, src, scale, source.shape[0])
    identity = aggregation_operator(structure, None, None, dst.shape[0])
    for name, result in (
        ("fused + operator",
         fused_gather_scatter(source, src, dst, dim_size, scale=scale,
                              reduce=reduce, structure=structure,
                              operator=fused_op)),
        ("fused + operator, no structure",
         fused_gather_scatter(source, src, dst, dim_size, scale=scale,
                              reduce=reduce, operator=fused_op)),
        ("fused, per call",
         fused_gather_scatter(source, src, dst, dim_size, scale=scale,
                              reduce=reduce)),
        ("scatter + operator",
         scatter(messages, dst, dim_size=dim_size, reduce=reduce,
                 structure=structure, operator=identity)),
    ):
        assert result.dtype == np.float32, name
        assert np.array_equal(result, reference), (name, reduce)


@STANDARD_SETTINGS
@given(graph=power_law_graphs(min_nodes=1, max_width=4),
       reduce=st.sampled_from(_SUM_MEAN), scaled=st.booleans(),
       seed=st.integers(0, 2**31 - 1))
def test_operator_matches_unfused_reference(graph, reduce, scaled, seed):
    """The drawn graphs carry zero-edge graphs, isolated nodes (mean's
    clamped count) and duplicate edges."""
    scale = np.random.default_rng(seed).standard_normal(
        graph.num_edges).astype(np.float32) if scaled else None
    _assert_operator_parity(graph.features, graph.src, graph.dst,
                            graph.num_nodes, reduce, scale)


_SOURCE = np.array([[1.5, -0.5], [-2.25, 4.0], [0.1, 0.3], [3.0, -7.5]],
                   dtype=np.float32)
_CORNERS = {
    "zero edges": ([], []),
    "isolated nodes": ([0, 3], [1, 1]),
    "duplicate edges": ([1, 1, 1, 0, 2], [2, 2, 2, 2, 0]),
}


@pytest.mark.parametrize("reduce", _SUM_MEAN)
@pytest.mark.parametrize("scaled", [False, True])
@pytest.mark.parametrize("corner", sorted(_CORNERS))
def test_corner_cases_match_reference(corner, scaled, reduce):
    src, dst = (np.array(a, dtype=np.int64) for a in _CORNERS[corner])
    scale = np.linspace(-1.5, 2.5, src.size).astype(np.float32) \
        if scaled else None
    _assert_operator_parity(_SOURCE, src, dst, 4, reduce, scale)


def test_operator_layout():
    dst = np.array([2, 0, 2, 1, 0, 2])
    src = np.array([5, 4, 3, 2, 1, 0])
    scale = np.arange(6, dtype=np.float32)
    structure = reduction_structure(dst, 4)
    fused = aggregation_operator(structure, src, scale, 6)
    assert fused.shape == (4, 6) and fused.nnz == 6
    assert fused.indptr.tolist() == [0, 2, 3, 6, 6]
    assert fused.indices.tolist() == [4, 1, 2, 5, 3, 0]   # src[perm]
    assert fused.data.tolist() == [1, 4, 3, 0, 2, 5]       # scale[perm]
    assert fused.dtype == np.float32
    identity = aggregation_operator(structure, None, None, 6)
    assert identity.indices.tolist() == structure.perm.tolist()
    assert identity.data.tolist() == [1.0] * 6


# -- refusing an operator that is not the call's ------------------------------

_X = np.arange(8, dtype=np.float32).reshape(4, 2)
_SRC = np.array([0, 1, 2, 3, 1])
_DST = np.array([1, 1, 0, 2, 3])
_MESSAGES = _X[_SRC]


def _fused(operator, reduce="sum", source=_X):
    return fused_gather_scatter(source, _SRC, _DST, 4, reduce=reduce,
                                operator=operator)


def _scatter(operator, reduce="sum"):
    return scatter(_MESSAGES, _DST, dim_size=4, reduce=reduce,
                   operator=operator)


@pytest.fixture
def no_arithmetic(monkeypatch):
    """Fail if a refused call reaches a reduction."""
    from importlib import import_module

    def refuse(*args, **kwargs):
        raise AssertionError("a refused operator reached the arithmetic")

    monkeypatch.setattr(import_module("repro.core.kernels.sparse"),
                        "streaming_reduce", refuse)
    monkeypatch.setattr(import_module("repro.core.kernels.scatter"),
                        "_reduce", refuse)


def _assert_refused(call):
    with record_launches() as recorder:
        with pytest.raises(KernelError):
            call()
    assert recorder.launches == []


@pytest.mark.parametrize("kernel", ["fused", "scatter"])
def test_operator_of_another_index_is_refused(kernel, no_arithmetic):
    # One edge short (wrong nnz), and one slot short (wrong shape).
    short = reduction_structure(_DST[:-1], 4)
    narrow = reduction_structure(np.array([1, 1, 0, 2, 2]), 3)
    if kernel == "fused":
        operators = [aggregation_operator(short, _SRC[:-1], None, 4),
                     aggregation_operator(narrow, _SRC, None, 4)]
        call = _fused
    else:
        operators = [aggregation_operator(short, None, None, 4),
                     aggregation_operator(narrow, None, None, 5)]
        call = _scatter
    for operator in operators:
        _assert_refused(lambda: call(operator))


@pytest.mark.parametrize("reduce", ["max", "min"])
@pytest.mark.parametrize("kernel", ["fused", "scatter"])
def test_operator_with_max_min_is_refused(kernel, reduce, no_arithmetic):
    structure = reduction_structure(_DST, 4)
    if kernel == "fused":
        operator = aggregation_operator(structure, _SRC, None, 4)
        _assert_refused(lambda: _fused(operator, reduce))
    else:
        operator = aggregation_operator(structure, None, None, 5)
        _assert_refused(lambda: _scatter(operator, reduce))


@pytest.mark.parametrize("kernel", ["fused", "scatter"])
def test_operator_for_other_source_rows_is_refused(kernel, no_arithmetic):
    structure = reduction_structure(_DST, 4)
    if kernel == "fused":
        operator = aggregation_operator(structure, _SRC, None, 4)
        wider = np.zeros((6, 2), dtype=np.float32)
        _assert_refused(lambda: _fused(operator, source=wider))
    else:
        operator = aggregation_operator(structure, None, None, 6)
        _assert_refused(lambda: _scatter(operator))
