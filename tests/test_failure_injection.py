"""Failure-injection tests: corrupted inputs must fail loudly at the
boundary, never propagate silently into results, and a damaged cache
file is quarantined and recomputed, never served."""

import numpy as np
import pytest

from repro.cache import TraceCache, compute_key
from repro.datasets import load_dataset
from repro.errors import (
    CacheIntegrityError,
    GraphFormatError,
    GSuiteError,
    KernelError,
    SimulationError,
)
from repro.graph import Graph, validate_graph
from repro.graph.formats import COOMatrix, CSRMatrix


class TestCorruptedGraphs:
    def test_nan_features_rejected(self):
        features = np.ones((3, 2), dtype=np.float32)
        features[1, 0] = np.nan
        g = Graph(np.array([[0], [1]]), features=features, num_nodes=3)
        with pytest.raises(GraphFormatError):
            validate_graph(g)

    def test_infinite_edge_weight_rejected(self):
        g = Graph(np.array([[0], [1]]),
                  edge_weight=np.array([np.inf], dtype=np.float32),
                  num_nodes=2)
        with pytest.raises(GraphFormatError):
            validate_graph(g)

    def test_mutated_edge_index_caught(self):
        g = Graph(np.array([[0, 1], [1, 0]]), num_nodes=2)
        g.edge_index[0, 0] = 99  # simulate post-construction corruption
        with pytest.raises(GraphFormatError):
            validate_graph(g)


class TestCorruptedCSR:
    def _valid(self):
        return COOMatrix([0, 1, 2], [1, 2, 0], shape=(3, 3)).to_csr()

    def test_truncated_indices_rejected(self):
        csr = self._valid()
        with pytest.raises(GraphFormatError):
            CSRMatrix(csr.indptr, csr.indices[:-1], shape=csr.shape)

    def test_decreasing_indptr_rejected(self):
        csr = self._valid()
        broken = csr.indptr.copy()
        broken[1], broken[2] = broken[2] + 1, broken[1]
        with pytest.raises(GraphFormatError):
            CSRMatrix(broken, csr.indices, shape=csr.shape)

    def test_out_of_range_column_rejected(self):
        csr = self._valid()
        broken = csr.indices.copy()
        broken[0] = 57
        with pytest.raises(GraphFormatError):
            CSRMatrix(csr.indptr, broken, shape=csr.shape)


class TestKernelBoundaries:
    def test_kernel_never_reads_out_of_bounds(self):
        from repro.core.kernels import index_select
        x = np.ones((4, 2), dtype=np.float32)
        for bad in ([4], [-1], [2**40]):
            with pytest.raises(KernelError):
                index_select(x, np.array(bad))

    def test_scatter_rejects_shape_drift(self):
        from repro.core.kernels import scatter
        with pytest.raises(KernelError):
            scatter(np.ones((5, 2), dtype=np.float32), np.arange(4), 5)


class TestSimulatorBoundaries:
    def test_warp_sim_rejects_degenerate_inputs(self):
        from repro.gpu import build_pattern, simulate_warps, v100_config
        cfg = v100_config()
        lat = np.array([28], dtype=np.int64)
        with pytest.raises(SimulationError):
            simulate_warps(cfg, -1, 10, build_pattern(0.1, 0.0), lat)

    def test_cycle_cap_prevents_runaway(self):
        """Even a pathological launch terminates within the cycle cap."""
        from repro.core.kernels.launch import InstructionMix, KernelLaunch
        from repro.gpu import GpuSimulator, v100_config
        launch = KernelLaunch(
            kernel="pathological", short_form="xx", model="MP",
            threads=10**9,
            mix=InstructionMix(ldst=10**12, int_ops=10**12),
            loads=np.zeros(4, dtype=np.int64),
            stores=np.zeros(4, dtype=np.int64),
        )
        sim = GpuSimulator(v100_config(max_cycles=500))
        result = sim.simulate(launch)
        assert result.cycles <= 500

    def test_empty_trace_launch_simulates(self):
        from repro.core.kernels.launch import InstructionMix, KernelLaunch
        from repro.gpu import GpuSimulator, NvprofProfiler
        launch = KernelLaunch(
            kernel="empty", short_form="xx", model="MP", threads=32,
            mix=InstructionMix(fp32=64.0),
            loads=np.empty(0, dtype=np.int64),
            stores=np.empty(0, dtype=np.int64),
        )
        result = GpuSimulator().simulate(launch)
        assert result.cycles > 0
        prof = NvprofProfiler().profile(launch)
        assert prof.l1_hit_rate == 0.0


class TestErrorHierarchy:
    def test_all_errors_share_base(self):
        import repro.errors as errors
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) \
                    and obj not in (GSuiteError,):
                assert issubclass(obj, GSuiteError), name

    def test_one_except_clause_catches_everything(self):
        caught = False
        try:
            load_dataset("not-a-dataset")
        except GSuiteError:
            caught = True
        assert caught


class TestCacheIntegrity:
    """Checksummed cache entries: corruption is quarantined, never served."""

    def _entry_path(self, tmp_path, cache, key):
        return tmp_path / "c" / "sim" / f"{key}.pkl"

    def test_truncated_entry_quarantined_and_recomputed(self, tmp_path):
        cache = TraceCache(tmp_path / "c")
        key = compute_key("sim", {"n": 1})
        cache.put("sim", key, {"cycles": 42})
        path = self._entry_path(tmp_path, cache, key)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        assert cache.get("sim", key) is None          # miss, not garbage
        assert cache.stats.corrupt == 1
        assert not path.exists()                      # moved aside
        assert list((tmp_path / "c" / "quarantine").iterdir())
        cache.put("sim", key, {"cycles": 42})         # recompute path works
        assert cache.get("sim", key) == {"cycles": 42}

    def test_bitflipped_payload_quarantined(self, tmp_path):
        cache = TraceCache(tmp_path / "c")
        key = compute_key("sim", {"n": 2})
        cache.put("sim", key, list(range(100)))
        path = self._entry_path(tmp_path, cache, key)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        assert cache.get("sim", key) is None
        assert cache.stats.corrupt == 1

    def test_verify_reports_and_strict_raises(self, tmp_path):
        cache = TraceCache(tmp_path / "c")
        good = compute_key("sim", {"n": 1})
        bad = compute_key("sim", {"n": 2})
        cache.put("sim", good, "ok")
        cache.put("sim", bad, "doomed")
        self._entry_path(tmp_path, cache, bad).write_bytes(b"garbage")
        assert cache.verify() == [("sim", bad)]
        assert cache.verify() == []                   # already quarantined
        assert cache.get("sim", good) == "ok"
        self._entry_path(tmp_path, cache, good).write_bytes(b"garbage")
        with pytest.raises(CacheIntegrityError):
            cache.verify(strict=True)
