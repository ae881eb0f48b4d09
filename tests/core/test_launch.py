"""Tests for the kernel instrumentation layer (launch records, traces)."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.kernels import (
    InstructionMix,
    index_select,
    record_launches,
    scatter,
    sgemm,
    spgemm,
    spmm,
)
from repro.core.kernels.launch import (
    LINE_BYTES,
    WARP_SIZE,
    LaunchRecorder,
    active_recorder,
    operand_bases,
    row_lines,
    sample_stride,
    sequential_lines,
)
from repro.graph.formats import COOMatrix


class TestInstructionMix:
    def test_total(self):
        mix = InstructionMix(fp32=1, int_ops=2, ldst=3, control=4, other=0)
        assert mix.total == 10

    def test_fractions_sum_to_one(self):
        mix = InstructionMix(fp32=5, int_ops=5, ldst=5, control=5, other=5)
        assert sum(mix.fractions().values()) == pytest.approx(1.0)

    def test_empty_mix_fractions(self):
        assert all(v == 0.0 for v in InstructionMix().fractions().values())


class TestRecorder:
    def test_no_recording_outside_context(self):
        assert active_recorder() is None
        out = index_select(np.ones((2, 2), dtype=np.float32), np.array([0]))
        assert out.shape == (1, 2)  # kernel still works

    def test_launches_collected_in_order(self):
        x = np.ones((4, 3), dtype=np.float32)
        with record_launches() as rec:
            index_select(x, np.array([0, 1]))
            scatter(x, np.array([0, 1, 0, 1]), dim_size=2)
            sgemm(x, np.ones((3, 2), dtype=np.float32))
        assert [l.kernel for l in rec.launches] == ["indexSelect", "scatter", "sgemm"]

    def test_nested_recorders_are_independent(self):
        x = np.ones((2, 2), dtype=np.float32)
        with record_launches() as outer:
            index_select(x, np.array([0]))
            with record_launches() as inner:
                index_select(x, np.array([1]))
            assert len(inner.launches) == 1
        assert len(outer.launches) == 1

    def test_invalid_sample_cap(self):
        with pytest.raises(ValueError):
            LaunchRecorder(sample_cap=0)

    def test_regions_are_disjoint(self):
        bases = operand_bases(4)
        assert 0 not in bases
        assert np.all(np.diff(bases) >= 1 << 40)
        x = np.ones((64, 48), dtype=np.float32)
        with record_launches() as rec:
            sgemm(x, np.ones((48, 40), dtype=np.float32))
        launch = rec.launches[0]
        # A, B and the output each stay inside their own region.
        regions = np.concatenate([launch.loads, launch.stores]) >> 40
        assert set(np.unique(launch.stores >> 40)) == {3}
        assert set(np.unique(regions)) == {1, 2, 3}

    def test_fingerprint_independent_of_recording_position(self):
        x = np.ones((64, 48), dtype=np.float32)
        w = np.ones((48, 40), dtype=np.float32)
        with record_launches() as alone:
            sgemm(x, w)
        with record_launches() as after:
            index_select(x, np.arange(64) % 7)
            sgemm(x, w)
        assert alone.launches[0].fingerprint() == \
            after.launches[1].fingerprint()


class TestLaunchRecords:
    def test_geometry(self):
        x = np.ones((100, 10), dtype=np.float32)
        with record_launches() as rec:
            index_select(x, np.arange(100))
        launch = rec.launches[0]
        assert launch.threads == 1000
        assert launch.warps == int(np.ceil(1000 / WARP_SIZE))

    def test_scatter_is_atomic(self):
        with record_launches() as rec:
            scatter(np.ones((4, 2), dtype=np.float32), np.array([0, 1, 0, 1]), 2)
        assert rec.launches[0].atomic
        assert rec.launches[0].short_form == "sc"

    def test_sgemm_mix_is_fp32_dominated(self):
        a = np.ones((64, 64), dtype=np.float32)
        with record_launches() as rec:
            sgemm(a, a)
        fractions = rec.launches[0].mix.fractions()
        assert fractions["FP32"] > 0.5

    def test_gather_mix_is_int_dominated(self):
        x = np.ones((64, 8), dtype=np.float32)
        with record_launches() as rec:
            index_select(x, np.arange(64))
        fractions = rec.launches[0].mix.fractions()
        assert fractions["INT"] > fractions["FP32"]
        assert fractions["INT"] >= max(fractions.values()) - 1e-9

    def test_trace_addresses_are_line_aligned(self):
        x = np.ones((32, 7), dtype=np.float32)
        with record_launches() as rec:
            index_select(x, np.arange(32))
            scatter(x, np.arange(32), 32)
        for launch in rec.launches:
            assert np.all(launch.loads % LINE_BYTES == 0)
            assert np.all(launch.stores % LINE_BYTES == 0)

    def test_irregular_gather_touches_irregular_lines(self):
        # Feature rows wider than a line: distinct indices -> distinct lines.
        x = np.zeros((1000, 64), dtype=np.float32)  # 256 B/row = 2 lines
        idx = np.array([0, 500, 999])
        with record_launches() as rec:
            index_select(x, idx)
        gather_lines = rec.launches[0].loads
        assert np.unique(gather_lines).size >= 6  # 3 rows x 2 lines

    def test_sampling_caps_trace_size(self):
        x = np.ones((1000, 32), dtype=np.float32)
        idx = np.tile(np.arange(1000), 40)  # 40k gathers
        with record_launches(sample_cap=500) as rec:
            index_select(x, idx)
        launch = rec.launches[0]
        assert launch.sample_fraction < 1.0
        assert launch.loads.shape[0] + launch.stores.shape[0] < 40_000

    def test_spmm_and_spgemm_short_form(self):
        rng = np.random.default_rng(0)
        csr = COOMatrix(rng.integers(0, 10, 30), rng.integers(0, 10, 30),
                        shape=(10, 10)).to_csr()
        with record_launches() as rec:
            spmm(csr, np.ones((10, 4), dtype=np.float32))
            spgemm(csr, csr)
        assert rec.launches[0].short_form == "sp"
        assert rec.launches[1].short_form == "sp"
        assert rec.launches[0].kernel == "spmm"
        assert rec.launches[1].kernel == "SpGEMM"


class TestDerivedMemo:
    """``KernelLaunch.derived`` values are no part of the record."""

    @staticmethod
    def launch_pair():
        """The same scatter recorded twice; the first has a filled memo."""
        launches = []
        for _ in range(2):
            with record_launches() as rec:
                scatter(np.ones((4, 2), dtype=np.float32),
                        np.array([0, 1, 0, 1]), 2)
            launch, = rec.launches
            launch.duration_s = 0.0
            launches.append(launch)
        launches[0].derived("lines", lambda: (np.arange(3), np.zeros(2)))
        # One pair of trace arrays: dataclass ``==`` compares by identity
        # first, and numpy arrays have no scalar ``==`` of their own.
        launches[1].loads, launches[1].stores = (launches[0].loads,
                                                 launches[0].stores)
        return launches

    def test_built_once_per_key(self):
        filled, _ = self.launch_pair()
        first = filled.derived("lines", lambda: pytest.fail("rebuilt"))
        assert first is filled.derived("lines", lambda: pytest.fail("rebuilt"))
        assert filled.derived("other", lambda: 7) == 7

    def test_not_an_init_field(self):
        filled, _ = self.launch_pair()
        with pytest.raises(TypeError):
            type(filled)(**{**vars(filled), "_derived": {}})

    def test_not_in_fingerprint_eq_or_repr(self):
        filled, empty = self.launch_pair()
        assert filled.fingerprint() == empty.fingerprint()
        assert filled == empty
        assert repr(filled) == repr(empty)
        assert "_derived" not in repr(filled)

    def test_not_in_the_pickle(self):
        filled, empty = self.launch_pair()
        assert pickle.dumps(filled) == pickle.dumps(empty)
        clone = pickle.loads(pickle.dumps(filled))
        assert clone.fingerprint() == filled.fingerprint()
        assert clone.derived("lines", lambda: "rebuilt") == "rebuilt"

    def test_not_carried_by_replace(self):
        filled, _ = self.launch_pair()
        copy = dataclasses.replace(filled, tag="copy")
        assert copy.derived("lines", lambda: "rebuilt") == "rebuilt"
        assert filled.derived("lines", lambda: "rebuilt") != "rebuilt"

    def test_arrays_are_read_only_views(self):
        own = np.arange(4)
        with record_launches() as rec:
            sgemm(np.ones((4, 4), dtype=np.float32),
                  np.ones((4, 4), dtype=np.float32))
        handed, (nested,) = rec.launches[0].derived(
            "arrays", lambda: (own, (own[:2],)))
        for array in (handed, nested):
            with pytest.raises(ValueError):
                array[0] = 1
        own[0] = 9                      # the builder's array stays its own
        assert handed[0] == 9


class TestTraceHelpers:
    def test_sample_stride(self):
        assert sample_stride(10, 100) == 1
        assert sample_stride(100, 10) == 10
        assert sample_stride(101, 10) == 11

    def test_sequential_lines_covers_extent(self):
        lines = sequential_lines(0, 1024, cap=10**6)
        assert lines.size == 8  # 1024 / 128
        assert lines[0] == 0 and lines[-1] == 7 * LINE_BYTES

    def test_sequential_lines_empty(self):
        assert sequential_lines(0, 0, 10).size == 0

    def test_row_lines_single_line_rows(self):
        # 4-byte rows: 32 consecutive rows share one 128-byte line.
        lines = row_lines(0, np.arange(32), row_bytes=4)
        assert np.unique(lines).size == 1

    def test_row_lines_multi_line_rows(self):
        lines = row_lines(0, np.array([0]), row_bytes=300)
        assert lines.size == 3  # 300 bytes span 3 lines

    def test_row_lines_unaligned_row_spans_extra_line(self):
        # 100-byte rows: row 1 starts at byte 100 and ends at 199,
        # crossing the 128-byte boundary.
        lines = row_lines(0, np.array([1]), row_bytes=100)
        assert lines.size == 2

    def test_row_lines_empty(self):
        assert row_lines(0, np.array([], dtype=np.int64), 100).size == 0
