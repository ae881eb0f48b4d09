"""The row-parallel vendor product: bit for bit the serial ``a @ x``.

:func:`repro.graph.formats.row_parallel_product` cuts ``a``'s rows into
contiguous ranges and runs the vendor call on each, into its row slice
of one output.  A CSR range runs SciPy's own kernel: every output row
is still summed by one call in stored order.  A dense range runs the
same BLAS GEMM over fewer rows, which sums every element in the same
order once each range is past OpenBLAS's small-matrix kernel (about
1 M multiply-adds; every range carries at least the grain, 2^22).  So
any split equals the serial product bitwise — NaN payloads and signed
zeros included, which is why results are compared as raw bits.  Part
counts are forced through the private range functions or the CPU
count they read; nothing here sets the worker count or the grain.
"""

import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import scipy.sparse as sp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.kernels import fused_gather_scatter, sgemm, spmm
from repro.graph import formats
from repro.graph.formats import (ROW_SPLIT_GRAIN, CSRMatrix, _ranges,
                                 _row_ranges, _split_product,
                                 row_parallel_product)
from strategies import PARITY_SETTINGS, STANDARD_SETTINGS

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
    """One thread splits a CSR product, the other a dense one, each
    over three ranges on the shared pool."""
    a, x = _big_product()
    dense, w = _big_dense()
    products = [(a, x, _row_ranges(a.indptr, 3)),
                (dense, w, [(0, 400), (400, 800), (800, 1200)])]
    wants = [a @ x, dense @ w]
    results, errors = [[], []], []

    def call(slot):
        try:
            for _ in range(8):
                results[slot].append(_split_product(*products[slot]))
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
    for slot, want in enumerate(wants):
        for got in results[slot]:
            _assert_bitwise(got, want)


def test_every_consumer_splits_over_the_grain(monkeypatch):
    """``CSRMatrix.matmul`` (behind ``spmm``), ``_csr_reduce`` (behind
    ``scatter`` and ``fusedGatherScatter``), ``sgemm``'s row-sparse
    operand and ``sgemm``'s dense operand all reach the split on two
    CPUs, bitwise their serial results."""
    calls = []
    split = formats._split_product

    def counted(a, x, ranges, epilogue=None):
        calls.append(len(ranges))
        return split(a, x, ranges, epilogue)

    a, x = _big_product(seed=1)
    csr = CSRMatrix(a.indptr, a.indices, a.data, a.shape)
    rows = a.shape[0]
    src, dst = a.nonzero()
    w = np.random.default_rng(2).standard_normal((rows, 1024)) \
        .astype(np.float32)
    dense = np.random.default_rng(4).standard_normal((600, rows)) \
        .astype(np.float32)
    products = [lambda: spmm(csr, x),
                lambda: fused_gather_scatter(x, src, dst, rows,
                                             reduce="mean"),
                lambda: sgemm(a, w),
                lambda: sgemm(dense, x, bias=x[0], activation="relu")]
    serial = [product() for product in products]
    assert not calls

    monkeypatch.setattr(formats, "_cpu_count", lambda: 2)
    monkeypatch.setattr(formats, "_split_product", counted)
    for product, want in zip(products, serial):
        _assert_bitwise(product(), want)
    assert calls == [2, 2, 2, 2]


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


# -- dense ``a @ b`` ---------------------------------------------------


def _least_rows(k, m):
    """Rows a dense range carries at least: the grain, and two."""
    return max(2, -(-ROW_SPLIT_GRAIN // (k * m)))


def _with_specials(rng, values, count):
    flat = values.reshape(-1)
    hit = rng.integers(0, flat.shape[0], size=count)
    flat[hit] = rng.choice([np.nan, np.inf, -np.inf, -0.0], size=count)


@st.composite
def dense_products(draw):
    """A C-contiguous float32 ``a`` and a ``b`` it multiplies, with
    rows enough for five ranges of at least the grain each, and a few
    NaN / inf / -0.0 entries in both operands.  ``b`` is C-order,
    Fortran-order or strided."""
    m = draw(st.integers(4, 700))
    k = max(draw(st.integers(2, 1200)), -(-4096 // m))
    rows = 5 * _least_rows(k, m) + draw(st.integers(0, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    a = rng.standard_normal((rows, k)).astype(np.float32)
    b = rng.standard_normal((k, m)).astype(np.float32)
    if draw(st.booleans()):
        _with_specials(rng, a, draw(st.integers(1, 6)))
        _with_specials(rng, b, draw(st.integers(1, 6)))
    layout = draw(st.sampled_from(("C", "F", "sliced")))
    if layout == "F":
        b = np.asfortranarray(b)
    elif layout == "sliced":
        wide = np.zeros((k, 2 * m), dtype=np.float32)
        wide[:, ::2] = b
        b = wide[:, ::2]
    return a, b


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@PARITY_SETTINGS
@given(product=dense_products())
def test_every_dense_split_is_the_serial_product_bit_for_bit(product):
    a, b = product
    want = a @ b
    k, m = b.shape
    for parts in range(1, 6):
        with mock.patch.object(formats, "_cpu_count", return_value=parts):
            ranges = _ranges(a, b)
        if parts == 1:
            assert ranges is None
            continue
        assert len(ranges) == parts
        assert all((hi - lo) * k * m >= ROW_SPLIT_GRAIN for lo, hi in ranges)
        _assert_bitwise(_split_product(a, b, ranges), want)


@pytest.mark.parametrize("m", [602, 16])
def test_reddit_shaped_cuts_are_pinned(m, monkeypatch):
    """gin/reddit@0.02's layer-0 transform (4,660 x 602 x 602) and
    adaptive gcn's (x 16): the cuts two CPUs make, and the bits of
    every split up to five CPUs."""
    rng = np.random.default_rng(m)
    a = rng.standard_normal((4660, 602)).astype(np.float32)
    b = rng.standard_normal((602, m)).astype(np.float32)
    want = a @ b
    monkeypatch.setattr(formats, "_cpu_count", lambda: 2)
    assert _ranges(a, b) == [(0, 2330), (2330, 4660)]
    for cpus in range(2, 6):
        monkeypatch.setattr(formats, "_cpu_count", lambda: cpus)
        ranges = _ranges(a, b)
        assert len(ranges) == cpus
        _assert_bitwise(_split_product(a, b, ranges), want)
        _assert_bitwise(row_parallel_product(a, b), want)


@STANDARD_SETTINGS
@given(rows=st.one_of(st.integers(0, 12), st.integers(0, 5000)),
       k=st.integers(1, 4000),
       m=st.integers(1, 4000), cpus=st.integers(1, 64))
def test_dense_ranges_carry_the_grain_and_two_rows(rows, k, m, cpus):
    a = np.empty((rows, k), dtype=np.float32)
    b = np.empty((k, m), dtype=np.float32)
    with mock.patch.object(formats, "_cpu_count", return_value=cpus):
        ranges = _ranges(a, b)
    if rows * k * m < 2 * ROW_SPLIT_GRAIN or cpus == 1 or m == 1:
        assert ranges is None
    if ranges is not None:
        assert 2 <= len(ranges) <= cpus
        assert [r for lo, hi in ranges for r in range(lo, hi)] \
            == list(range(rows))
        assert all(hi - lo >= 2 and (hi - lo) * k * m >= ROW_SPLIT_GRAIN
                   for lo, hi in ranges)


def _big_dense(seed=5, rows=1200, k=96, m=96):
    """A dense product of about ``2.6 * ROW_SPLIT_GRAIN`` multiply-adds."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((rows, k)).astype(np.float32),
            rng.standard_normal((k, m)).astype(np.float32))


def test_other_dense_operands_take_the_serial_call(monkeypatch):
    """A Fortran-order, strided or float64 ``a``, a one-column ``b`` or
    one-row ranges (matrix-vector calls) and ``a @ a.T`` (``syrk``)
    never split, though each product is over two grains."""
    a, b = _big_dense()
    monkeypatch.setattr(formats, "_cpu_count", lambda: 8)
    assert len(_ranges(a, b)) == 2
    rng = np.random.default_rng(6)
    square = rng.standard_normal((2100, 2100)).astype(np.float32)
    tall = rng.standard_normal((2100, 4000)).astype(np.float32)
    cases = [(np.asfortranarray(a), b),
             (np.repeat(a, 2, axis=0)[::2], b),
             (a.astype(np.float64), b),
             (a, b.astype(np.float64)),
             (tall, tall[:1].T.copy()),
             (square[:3].copy(), square),
             (square, square.T)]
    monkeypatch.setattr(formats, "_split_product", None)   # must not run
    for left, right in cases:
        assert _ranges(left, right) is None
        _assert_bitwise(row_parallel_product(left, right), left @ right)


def test_one_cpu_or_a_small_dense_product_takes_the_serial_call(monkeypatch):
    a, b = _big_dense()
    monkeypatch.setattr(formats, "_split_product", None)   # must not run
    monkeypatch.setattr(formats, "_cpu_count", lambda: 1)
    _assert_bitwise(row_parallel_product(a, b), a @ b)
    monkeypatch.setattr(formats, "_cpu_count", lambda: 8)
    _assert_bitwise(row_parallel_product(a[:600], b), a[:600] @ b)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("route", ["dense", "row-sparse"])
@pytest.mark.parametrize("activation", [None, "relu", "sigmoid"])
def test_the_per_range_epilogue_is_the_serial_epilogue(route, activation,
                                                       monkeypatch):
    """``sgemm`` finishes each range's rows (alpha, beta * c, bias,
    activation) inside that range; split or not, the bits are the
    same, NaN / inf / -0.0 in the operands included."""
    rng = np.random.default_rng(7)
    if route == "dense":
        a, b = _big_dense()
        _with_specials(rng, a, 5)
        _with_specials(rng, b, 3)
    else:
        a, b = _big_product(seed=8)
        b = b[:, :96].copy()
        _with_specials(rng, a.data, 5)
        _with_specials(rng, b, 3)
    m = b.shape[1]
    bias = rng.standard_normal(m).astype(np.float32)
    c = rng.standard_normal((a.shape[0], m)).astype(np.float32)
    _with_specials(rng, c, 4)

    def launch():
        return sgemm(a, b, bias=bias, alpha=0.75, beta=-1.5, c=c,
                     activation=activation)

    monkeypatch.setattr(formats, "_cpu_count", lambda: 1)
    serial = launch()
    ranges = []
    split = formats._split_product

    def counted(a, x, cut, epilogue=None):
        ranges.append(cut)
        return split(a, x, cut, epilogue)

    monkeypatch.setattr(formats, "_split_product", counted)
    for cpus in (2, 3):
        monkeypatch.setattr(formats, "_cpu_count", lambda: cpus)
        _assert_bitwise(launch(), serial)
    assert [len(cut) for cut in ranges] == [2, 2]   # both under 3 grains


def test_the_callers_error_state_holds_in_every_range(monkeypatch):
    """An invalid operation in the last range's epilogue raises under
    the caller's ``np.errstate(invalid="raise")``, split or not."""
    a, b = _big_dense()

    def finish(lo, hi, rows):
        if hi == a.shape[0]:
            rows[-1] = np.float32(np.inf) - np.float32(np.inf)

    for cpus in (1, 2):
        monkeypatch.setattr(formats, "_cpu_count", lambda: cpus)
        with np.errstate(invalid="raise"), \
                pytest.raises(FloatingPointError):
            row_parallel_product(a, b, finish)
