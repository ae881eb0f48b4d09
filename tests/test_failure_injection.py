"""Failure-injection tests: corrupted inputs must fail loudly at the
boundary, never propagate silently into results — and injected
*infrastructure* faults (crashed workers, hung tasks, corrupted
transport, truncated cache files) must be absorbed by the resilience
layer without changing a single output bit."""

import os
import time

import numpy as np
import pytest

from repro import faults
from repro.bench import engine
from repro.bench.common import WorkCell, clear_bench_cache, compute_cell
from repro.bench.pool import WorkerPool
from repro.bench.profiles import BenchProfile
from repro.cache import TraceCache, compute_key
from repro.datasets import load_dataset
from repro.errors import (
    CacheIntegrityError,
    ConfigError,
    GraphFormatError,
    GSuiteError,
    KernelError,
    SimulationError,
    WorkerError,
)
from repro.faults import FaultPlan, FaultSpec, parse_faults
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


# -- deterministic fault harness -------------------------------------------

def _square(value):
    return value * value


def _boom(value):
    raise ValueError(f"boom {value}")


def _kill_worker_once(arg):
    """Crash the hosting worker on task 0's first attempt (flag-file
    coordinated), then behave — a real crash with no fault plan armed."""
    task, flag = arg
    if task == 0 and not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(37)
    return task * task


class TestFaultHarness:
    """The seeded fault plan: parseable, reproducible, refuses garbage."""

    def test_parse_render_round_trip(self):
        text = ("seed=7;worker_crash:p=0.25,tries=1;"
                "task_hang:p=1,secs=2.5;corrupt_result:p=0.05,limit=3")
        plan = parse_faults(text)
        again = parse_faults(plan.render())
        assert again.render() == plan.render()
        assert again.seed == 7
        assert set(again.specs) == {"worker_crash", "task_hang",
                                    "corrupt_result"}
        assert again.specs["task_hang"].secs == 2.5

    def test_decisions_deterministic_across_instances(self):
        text = "seed=3;corrupt_result:p=0.5"
        a, b = parse_faults(text), parse_faults(text)
        keys = [f"0:{i}:0" for i in range(100)]
        decisions = [a.decide("corrupt_result", k) for k in keys]
        assert decisions == [b.decide("corrupt_result", k) for k in keys]
        assert 20 < sum(decisions) < 80  # p=0.5 actually draws

    def test_seed_changes_decisions(self):
        keys = [f"0:{i}:0" for i in range(64)]
        first = [parse_faults("seed=1;worker_crash:p=0.5").decide(
            "worker_crash", k, 0) for k in keys]
        second = [parse_faults("seed=2;worker_crash:p=0.5").decide(
            "worker_crash", k, 0) for k in keys]
        assert first != second

    def test_tries_gates_on_attempt(self):
        plan = FaultPlan((FaultSpec("worker_crash", tries=1),))
        assert plan.decide("worker_crash", "w:0:0", attempt=0)
        assert not plan.decide("worker_crash", "w:0:1", attempt=1)
        assert not plan.decide("worker_crash", "w:0:0", attempt=None)

    def test_limit_bounds_injections_per_process(self):
        plan = FaultPlan((FaultSpec("corrupt_result", limit=2),))
        fired = [plan.decide("corrupt_result", f"k{i}") for i in range(5)]
        assert sum(fired) == 2
        assert plan.injected("corrupt_result") == 2

    def test_unarmed_site_never_fires(self):
        plan = parse_faults("worker_crash:p=1")
        assert not plan.decide("task_hang", "any")

    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigError):
            parse_faults("gpu_meltdown:p=1")
        with pytest.raises(ConfigError):
            FaultSpec(site="nope")

    def test_unknown_or_malformed_param_rejected(self):
        for text in ("worker_crash:q=1", "worker_crash:p",
                     "worker_crash:p=oops", "seed=x;worker_crash",
                     "", "seed=3"):
            with pytest.raises(ConfigError):
                parse_faults(text)

    def test_out_of_range_values_rejected(self):
        for text in ("worker_crash:p=1.5", "worker_crash:tries=0",
                     "worker_crash:limit=0", "task_hang:secs=-1"):
            with pytest.raises(ConfigError):
                parse_faults(text)

    def test_activate_exports_env_for_workers(self):
        plan = faults.activate("seed=9;worker_crash:p=0.5,tries=1")
        assert faults.active_faults() is plan
        exported = os.environ["GSUITE_FAULTS"]
        assert parse_faults(exported).render() == plan.render()
        faults.deactivate()
        assert faults.active_faults() is None
        assert "GSUITE_FAULTS" not in os.environ


class TestSupervisedPool:
    """Crash / hang / corrupt-transport recovery in the worker pool."""

    def test_crash_recovers_on_retry(self):
        faults.activate("seed=0;worker_crash:p=1,tries=1")
        with WorkerPool(jobs=2, backoff=0) as pool:
            assert pool.map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]
        report = pool.report
        assert report.worker_deaths >= 1
        assert report.pool_resets >= 1
        assert report.retries >= 1
        assert report.degraded_tasks == 0
        assert report.faulted

    def test_unrecoverable_crash_degrades_in_process(self):
        faults.activate("worker_crash:p=1")   # every pooled attempt dies
        with WorkerPool(jobs=2, backoff=0, max_retries=1,
                        reset_limit=2) as pool:
            assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
            assert pool.degraded
            assert pool.report.degraded_tasks == 3
            # A degraded pool never dispatches again.
            assert pool.map(_square, [5, 6]) == [25, 36]
            assert pool.report.in_process == 2

    def test_hang_times_out_and_recovers(self):
        faults.activate("task_hang:p=1,tries=1,secs=30")
        start = time.monotonic()
        with WorkerPool(jobs=2, task_timeout=0.5, backoff=0) as pool:
            assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert time.monotonic() - start < 15   # never slept 30 s
        assert pool.report.timeouts >= 1
        assert pool.report.pool_resets >= 1
        assert pool.report.degraded_tasks == 0

    def test_corrupt_result_retries_without_pool_reset(self):
        faults.activate("corrupt_result:p=1,tries=1")
        with WorkerPool(jobs=2, backoff=0) as pool:
            assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
        report = pool.report
        assert report.corrupt_results == 3
        assert report.retries == 3
        assert report.pool_resets == 0      # checksum failures don't reset
        assert report.worker_deaths == 0

    def test_app_exception_propagates_unchanged(self):
        with pytest.raises(ValueError, match="boom"):
            with WorkerPool(jobs=2) as pool:
                pool.map(_boom, [1, 2])

    def test_degrade_false_raises_worker_error(self):
        faults.activate("worker_crash:p=1")
        with WorkerPool(jobs=2, backoff=0, max_retries=0,
                        degrade=False) as pool:
            with pytest.raises(WorkerError):
                pool.map(_square, [1, 2, 3])

    def test_exit_terminates_wedged_pool_on_exception(self):
        """``__exit__`` must terminate, not close+join: a graceful close
        would wait out the hanging in-flight task (here: 60 s)."""
        from repro.bench.pool import _run_task
        faults.activate("task_hang:p=1,secs=60")
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="abort"):
            with WorkerPool(jobs=2) as pool:
                pool._ensure_pool()
                pool._pool.apply_async(_run_task, ((_square, 1, "wedge", 0),))
                time.sleep(0.2)   # let a worker pick it up and hang
                raise RuntimeError("abort")
        assert pool._pool is None
        assert time.monotonic() - start < 10

    def test_zero_fault_map_stays_raw(self):
        """No fault plan: results ride back untagged and unsealed."""
        from repro.bench.pool import _run_task
        assert _run_task((_square, 4, "0:0:0", 0)) == ("raw", 16)

    def test_fast_path_recovers_from_real_worker_death(self, tmp_path):
        """With no faults armed, waves dispatch batched — and a worker
        dying for real mid-wave is still detected and the wave retried."""
        flag = str(tmp_path / "crashed-once")
        work = [(task, flag) for task in range(4)]
        with WorkerPool(jobs=2, backoff=0) as pool:
            assert pool.map(_kill_worker_once, work) == [0, 1, 4, 9]
        report = pool.report
        assert report.worker_deaths == 1
        assert report.pool_resets == 1
        assert report.retries >= 1
        assert report.degraded_tasks == 0

    def test_zero_fault_pooled_dispatch_is_single_round(self):
        with WorkerPool(jobs=2) as pool:
            assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
        report = pool.report
        assert report.dispatched == 3 and report.tasks == 3
        assert not report.faulted


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

    def test_cache_truncate_fault_site(self, tmp_path):
        """The injected write-truncation is caught by the read-side check."""
        faults.activate("cache_truncate:p=1")
        cache = TraceCache(tmp_path / "c")
        key = compute_key("record", {"n": 3})
        cache.put("record", key, ["launch"] * 50)
        assert cache.get("record", key) is None       # truncated -> miss
        assert cache.stats.corrupt == 1
        faults.deactivate()
        cache.put("record", key, ["launch"] * 50)
        assert cache.get("record", key) == ["launch"] * 50


# -- the bench engine's pooled waves under injected faults -----------------

#: Small enough for a unit test; cora/citeseer record cells are cheap.
_WAVE_PROFILE = BenchProfile(
    name="fault-wave",
    dataset_scales={"cora": 0.05, "citeseer": 0.05},
    sample_cap=5_000,
    max_cycles=2_000,
    repeats=1,
)

_WAVE_CELLS = [WorkCell("record", "gcn", "cora", "MP"),
               WorkCell("record", "gin", "citeseer", "MP"),
               WorkCell("record", "sage", "cora", "MP")]


def _wave_fingerprints(jobs):
    """Run one record wave, return ``(fingerprints per cell, report)``."""
    clear_bench_cache()
    report = engine.SuiteReport(jobs=jobs)
    engine._run_wave(_WAVE_CELLS, _WAVE_PROFILE, jobs, False, report)
    traces = [[launch.fingerprint() for launch in compute_cell(
        cell, _WAVE_PROFILE)] for cell in _WAVE_CELLS]
    clear_bench_cache()
    return traces, report


def test_faulted_pooled_wave_is_bitwise_clean():
    """The faulted/clean contract: a crash- and corruption-riddled
    pooled wave (``jobs=2``) seeds every cell with the launch trace a
    clean serial wave records, and the engine's report says it was
    faulted."""
    clean, clean_report = _wave_fingerprints(jobs=1)
    assert all(clean) and not clean_report.dispatch.faulted
    faults.activate("seed=3;worker_crash:p=1,tries=1;"
                    "corrupt_result:p=1,tries=1")
    faulted, report = _wave_fingerprints(jobs=2)
    assert faulted == clean
    assert report.dispatch.faulted
    assert report.dispatch.worker_deaths >= 1
    assert report.dispatch.degraded_tasks == 0     # recovered by retry
