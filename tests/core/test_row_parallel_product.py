"""The row-parallel vendor product: bit for bit SciPy's serial ``a @ x``.

:func:`repro.graph.formats.row_parallel_product` cuts a CSR's rows into
contiguous ranges and runs SciPy's own kernel on each, into its row
slice of one output.  Every output row is still summed by one call in
stored order, so any split equals the serial product bitwise — NaN
payloads and signed zeros included, which is why results are compared
as raw bits.  Part counts are forced through the private range
function; nothing here sets the worker count or the grain.
"""

import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from repro.core.kernels import fused_gather_scatter, sgemm, spmm
from repro.graph import formats
from repro.graph.formats import (ROW_SPLIT_GRAIN, CSRMatrix, _row_ranges,
                                 _split_product, row_parallel_product)
from strategies import STANDARD_SETTINGS

_SRC = Path(__file__).resolve().parents[2] / "src"


def _bits(array):
    """Raw bits of a float array, so NaN payloads and -0.0 compare too."""
    view = {4: np.uint32, 8: np.uint64}[array.dtype.itemsize]
    return np.ascontiguousarray(array).view(view)


def _assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


@st.composite
def csr_products(draw, dtype=np.float32):
    """A SciPy CSR ``a`` and a dense ``x`` it multiplies.

    Zero entries, empty rows and one row holding every entry are part of
    the space, as are NaN / inf values, duplicate columns, int32 and
    int64 index arrays, a 1-column operand and a Fortran-order or
    strided (sliced) operand.
    """
    rows = draw(st.integers(0, 40))
    inner = draw(st.integers(1, 30))
    width = draw(st.sampled_from((1, 1, 2, 3, 8, 17)))
    pattern = draw(st.sampled_from(("random", "empty", "one row")))
    layout = draw(st.sampled_from(("C", "F", "sliced")))
    index_dtype = draw(st.sampled_from((np.int32, np.int64)))
    specials = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))

    if pattern == "empty" or rows == 0:
        counts = np.zeros(rows, dtype=np.int64)
    elif pattern == "one row":
        counts = np.zeros(rows, dtype=np.int64)
        counts[rng.integers(rows)] = rng.integers(1, 60)
    else:
        counts = rng.integers(0, 8, size=rows) * (rng.random(rows) < 0.8)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(index_dtype)
    indices = rng.integers(0, inner, size=int(indptr[-1])).astype(index_dtype)
    data = rng.standard_normal(indices.shape[0]).astype(dtype)
    x = rng.standard_normal((inner, width)).astype(dtype)
    if specials:
        for values in (data, x.reshape(-1)):
            hit = rng.random(values.shape[0]) < 0.1
            values[hit] = rng.choice([np.nan, np.inf, -np.inf, -0.0],
                                     size=int(hit.sum()))

    a = sp.csr_matrix((rows, inner), dtype=dtype)
    a.indptr, a.indices, a.data = indptr, indices, data   # keep the dtypes
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "sliced":
        wide = np.zeros((inner, 2 * width), dtype=dtype)
        wide[:, ::2] = x
        x = wide[:, ::2]
    return a, x


@STANDARD_SETTINGS
@given(product=csr_products())
def test_every_split_is_the_serial_product_bit_for_bit(product):
    a, x = product
    want = a @ x
    for parts in range(1, 6):
        _assert_bitwise(_split_product(a, x, _row_ranges(a.indptr, parts)),
                        want)
    _assert_bitwise(row_parallel_product(a, x), want)


@STANDARD_SETTINGS
@given(product=csr_products(dtype=np.float64))
def test_a_float64_operand_takes_the_serial_call(product):
    a, x = product
    _assert_bitwise(row_parallel_product(a, x), a @ x)
    _assert_bitwise(row_parallel_product(a.astype(np.float32), x),
                    a.astype(np.float32) @ x)
    _assert_bitwise(row_parallel_product(a, x.astype(np.float32)),
                    a @ x.astype(np.float32))


@STANDARD_SETTINGS
@given(rows=st.integers(0, 30), parts=st.integers(1, 6),
       seed=st.integers(0, 2**31 - 1))
def test_ranges_cover_the_rows_in_order(rows, parts, seed):
    counts = np.random.default_rng(seed).integers(0, 5, size=rows)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    ranges = _row_ranges(indptr, parts)
    assert len(ranges) <= parts
    assert all(lo < hi for lo, hi in ranges)
    assert [r for lo, hi in ranges for r in range(lo, hi)] == list(range(rows))


def _big_product(seed=0, rows=1500, width=96):
    """A product of about ``2.5 * ROW_SPLIT_GRAIN`` multiply-adds."""
    rng = np.random.default_rng(seed)
    nnz = int(2.5 * ROW_SPLIT_GRAIN) // width
    a = sp.random(rows, rows, density=nnz / rows**2, format="csr",
                  dtype=np.float32, random_state=seed)
    return a, rng.standard_normal((rows, width)).astype(np.float32)


def test_concurrent_callers_share_the_pool_and_stay_bitwise():
    a, x = _big_product()
    want = a @ x
    ranges = _row_ranges(a.indptr, 3)
    results, errors = [[], []], []

    def call(slot):
        try:
            for _ in range(8):
                results[slot].append(_split_product(a, x, ranges))
        except Exception as exc:    # reported below, not lost in a thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert [len(r) for r in results] == [8, 8]
    for got in results[0] + results[1]:
        _assert_bitwise(got, want)


def test_the_three_consumers_split_over_the_grain(monkeypatch):
    """``CSRMatrix.matmul`` (behind ``spmm``), ``_csr_reduce`` (behind
    ``scatter`` and ``fusedGatherScatter``) and ``sgemm``'s row-sparse
    operand all reach the split on two CPUs, bitwise their serial
    results."""
    calls = []
    split = formats._split_product

    def counted(a, x, ranges):
        calls.append(len(ranges))
        return split(a, x, ranges)

    a, x = _big_product(seed=1)
    csr = CSRMatrix(a.indptr, a.indices, a.data, a.shape)
    rows = a.shape[0]
    src, dst = a.nonzero()
    w = np.random.default_rng(2).standard_normal((rows, 1024)) \
        .astype(np.float32)
    products = [lambda: spmm(csr, x),
                lambda: fused_gather_scatter(x, src, dst, rows,
                                             reduce="mean"),
                lambda: sgemm(a, w)]
    serial = [product() for product in products]
    assert not calls

    monkeypatch.setattr(formats, "_cpu_count", lambda: 2)
    monkeypatch.setattr(formats, "_split_product", counted)
    for product, want in zip(products, serial):
        _assert_bitwise(product(), want)
    assert calls == [2, 2, 2]


def test_one_cpu_or_a_small_product_takes_the_serial_call(monkeypatch):
    monkeypatch.setattr(formats, "_split_product", None)   # must not run
    a, x = _big_product(seed=3)
    monkeypatch.setattr(formats, "_cpu_count", lambda: 1)
    _assert_bitwise(row_parallel_product(a, x), a @ x)
    monkeypatch.setattr(formats, "_cpu_count", lambda: 8)
    _assert_bitwise(row_parallel_product(a, x[:, :8]), a @ x[:, :8])


def test_nothing_starts_until_a_product_crosses_the_grain():
    """Importing the package and running a cora pipeline leaves the
    process with one thread; the first split product makes the pool."""
    script = textwrap.dedent("""
        import os, threading
        import numpy as np, scipy.sparse as sp
        import repro
        from repro.core import GNNPipeline, SuiteConfig
        from repro.graph.formats import ROW_SPLIT_GRAIN, row_parallel_product
        assert threading.active_count() == 1, "import"
        GNNPipeline(SuiteConfig(dataset="cora", model="gcn",
                                compute_model="MP")).build().run()
        assert threading.active_count() == 1, "cora pipeline"
        a = sp.random(1500, 1500, density=0.02, format="csr",
                      dtype=np.float32, random_state=0)
        x = np.ones((1500, 4 * ROW_SPLIT_GRAIN // a.nnz), dtype=np.float32)
        assert np.array_equal(row_parallel_product(a, x), a @ x)
        cpus = len(os.sched_getaffinity(0))
        assert (threading.active_count() > 1) == (cpus > 1), cpus
        print("ok")
    """)
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
