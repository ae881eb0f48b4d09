"""Tests for the end-to-end GPU simulator and profiler over real launches.

``golden_sim.json`` (this directory) holds per-launch simulator digests
frozen at the commit before the warp scheduler became event-driven;
``golden_profile.json`` holds the profiler's, frozen at the commit
before the cache hierarchy became a batch solver.  Run as a script,
this module prints either file's content for whatever ``repro`` is
importable; to re-freeze after an *intended* model change::

    PYTHONPATH=src python tests/gpu/test_simulator.py > tests/gpu/golden_sim.json
    PYTHONPATH=src python tests/gpu/test_simulator.py profile > tests/gpu/golden_profile.json
"""

import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bench.common import pipeline_for
from repro.cache import TraceCache
from repro.bench.profiles import PROFILES, BenchProfile
from repro.core.kernels import (
    index_select,
    record_launches,
    scatter,
    sgemm,
)
from repro.gpu import (
    GpuSimulator,
    NvprofProfiler,
    aggregate_instruction_fractions,
    atomic_contention,
    nvprof_config,
    v100_config,
)
from repro.gpu.metrics import (
    OCCUPANCY_STATES,
    STALL_REASONS,
    merge_distributions,
    normalize,
)
from mi100 import mi100_config

GOLDEN_PATH = Path(__file__).with_name("golden_sim.json")
GOLDEN_PROFILE_PATH = Path(__file__).with_name("golden_profile.json")

#: The budgets benchmarks/e2e's ``characterize`` workload runs under.
E2E = BenchProfile(
    name="e2e", dataset_scales={**PROFILES["ci"].dataset_scales, "pubmed": 0.25},
    sample_cap=10_000, max_cycles=5_000, repeats=1)

GOLDEN_SETS = {
    "gcn/cora/MP@e2e": (("gcn", "cora", "MP"), E2E),
    "gcn/cora/SpMM@e2e": (("gcn", "cora", "SpMM"), E2E),
    "sage/pubmed/MP@e2e": (("sage", "pubmed", "MP"), E2E),
    "gcn/cora/MP@ci": (("gcn", "cora", "MP"), PROFILES["ci"]),
}


@functools.lru_cache(maxsize=None)
def recorded_set(name):
    """One golden set's launches, recorded once, bypassing every cache.

    Simulator and profiler tests share the launch objects, as
    ``repro.bench.common`` hands both the same ones.
    """
    cell, profile = GOLDEN_SETS[name]
    return pipeline_for(*cell, profile).record().launches


def simulate_set(name, launches=None):
    """Simulate one golden set under its profile's cycle budget."""
    max_cycles = GOLDEN_SETS[name][1].max_cycles
    simulator = GpuSimulator(v100_config(max_cycles=max_cycles))
    return simulator.simulate_all(launches or recorded_set(name))


def profile_set(name, launches=None):
    """Profile one golden set with the default hardware-side model."""
    return NvprofProfiler().profile_all(launches or recorded_set(name))


def launch_digest(result):
    """What must not move when the simulator only gets faster."""
    return {
        "kernel": result.kernel,
        "tag": result.tag,
        "cycles": result.cycles,
        "issued_instructions": result.issued_instructions,
        "ipc": result.ipc,
        "stall_distribution": result.stall_distribution,
        "occupancy_distribution": result.occupancy_distribution,
        "l1_hit_rate": result.l1_hit_rate,
        "l2_hit_rate": result.l2_hit_rate,
    }


def profile_digest(result):
    """The profiler's counterpart of :func:`launch_digest`."""
    return {
        "kernel": result.kernel,
        "tag": result.tag,
        "l1_hit_rate": result.l1_hit_rate,
        "l2_hit_rate": result.l2_hit_rate,
        "dram_bytes": result.dram_bytes,
        "elapsed_estimate_cycles": result.elapsed_estimate_cycles,
        "compute_utilization": result.compute_utilization,
        "memory_utilization": result.memory_utilization,
    }


@pytest.fixture(scope="module")
def launches():
    """One small MP-style pipeline's launch records."""
    rng = np.random.default_rng(0)
    n, e, f, hidden = 400, 1600, 64, 16
    x = rng.standard_normal((n, f)).astype(np.float32)
    w = rng.standard_normal((f, hidden)).astype(np.float32)
    src = rng.integers(0, n, e)
    dst = rng.integers(0, n, e)
    with record_launches(sample_cap=100_000) as rec:
        h = sgemm(x, w)
        msgs = index_select(h, src)
        scatter(msgs, dst, dim_size=n)
    return rec.launches


@pytest.fixture(scope="module")
def sim_results(launches):
    return GpuSimulator(v100_config(max_cycles=30_000)).simulate_all(launches)


@pytest.fixture(scope="module")
def prof_results(launches):
    return NvprofProfiler().profile_all(launches)


class TestGpuSimulator:
    def test_one_result_per_launch(self, launches, sim_results):
        assert len(sim_results) == len(launches)
        assert [r.kernel for r in sim_results] == [l.kernel for l in launches]

    def test_distributions_normalised(self, sim_results):
        for r in sim_results:
            assert sum(r.stall_distribution.values()) == pytest.approx(1.0)
            assert sum(r.occupancy_distribution.values()) == pytest.approx(1.0)
            assert set(r.stall_distribution) == set(STALL_REASONS)
            assert set(r.occupancy_distribution) == set(OCCUPANCY_STATES)

    def test_hit_rates_in_unit_interval(self, sim_results):
        for r in sim_results:
            assert 0.0 <= r.l1_hit_rate <= 1.0
            assert 0.0 <= r.l2_hit_rate <= 1.0

    def test_utilizations_in_unit_interval(self, sim_results):
        for r in sim_results:
            assert 0.0 <= r.compute_utilization <= 1.0
            assert 0.0 <= r.memory_utilization <= 1.0

    def test_ipc_bounded(self, sim_results):
        cfg = v100_config()
        for r in sim_results:
            assert 0.0 < r.ipc <= cfg.issue_width

    def test_scatter_shows_synchronization(self, sim_results):
        scatter_result = next(r for r in sim_results if r.kernel == "scatter")
        assert scatter_result.stall_distribution["Synchronization"] > 0.0

    def test_non_atomic_kernels_have_no_sync(self, sim_results):
        for r in sim_results:
            if r.kernel != "scatter":
                assert r.stall_distribution["Synchronization"] == 0.0

    def test_estimated_cycles_at_least_simulated(self, sim_results):
        for r in sim_results:
            assert r.estimated_total_cycles >= r.cycles

    def test_dominant_stall(self, sim_results):
        for r in sim_results:
            assert r.dominant_stall() in STALL_REASONS


class TestGoldenDigests:
    """Exact per-launch figures frozen at the parent commit."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_SETS))
    def test_launch_set_matches_golden(self, name):
        golden = json.loads(GOLDEN_PATH.read_text())[name]
        assert [launch_digest(r) for r in simulate_set(name)] == golden

    @pytest.mark.parametrize("name", sorted(GOLDEN_SETS))
    def test_profile_set_matches_golden(self, name):
        golden = json.loads(GOLDEN_PROFILE_PATH.read_text())[name]
        assert [profile_digest(r) for r in profile_set(name)] == golden

    def test_launches_from_the_trace_cache_match_golden(self, tmp_path):
        """A stored launch carries no memo and needs none."""
        name = "gcn/cora/MP@e2e"
        simulate_set(name)           # every launch now holds its L1 mask
        cache = TraceCache(tmp_path)
        cache.put("record", "launches", recorded_set(name))
        stored = cache.get("record", "launches")
        assert [launch.fingerprint() for launch in stored] == [
            launch.fingerprint() for launch in recorded_set(name)]
        # Profiler first: whichever consumer comes first walks the L1s.
        profiled = [profile_digest(r) for r in profile_set(name, stored)]
        simulated = [launch_digest(r) for r in simulate_set(name, stored)]
        assert profiled == json.loads(GOLDEN_PROFILE_PATH.read_text())[name]
        assert simulated == json.loads(GOLDEN_PATH.read_text())[name]

    def test_cycle_cap_is_carried(self):
        """Launches cut off at ``max_cycles`` say so; the rest do not."""
        results = simulate_set("sage/pubmed/MP@e2e")
        capped = [r for r in results if not r.completed]
        assert capped and len(capped) < len(results)
        assert all(r.cycles == E2E.max_cycles for r in capped)
        assert all(r.cycles < E2E.max_cycles
                   for r in results if r.completed)


class TestSharedL1Stage:
    def test_one_l1_walk_per_launch_and_l1_model(self, launches, monkeypatch):
        from repro.gpu import cache as cache_module

        def copies():
            return [dataclasses.replace(launch) for launch in launches]

        simulator = GpuSimulator(v100_config(max_cycles=30_000))
        # Two consumers that share nothing.
        apart = (simulator.simulate_all(copies()),
                 NvprofProfiler().profile_all(copies()))
        walks = []
        real = cache_module._l1_hits
        monkeypatch.setattr(
            cache_module, "_l1_hits",
            lambda *args: walks.append(args[2:4]) or real(*args))
        shared = copies()
        assert (simulator.simulate_all(shared),
                NvprofProfiler().profile_all(shared)) == apart
        assert len(walks) == len(shared)
        # Another SM sampling or L1 geometry is another stage.
        GpuSimulator(v100_config(simulated_sms=2)).simulate(shared[0])
        NvprofProfiler(mi100_config()).profile(shared[0])
        assert len(walks) == len(shared) + 2 and len(set(walks)) == 3


class TestNvprofProfiler:
    def test_instruction_fractions_sum_to_one(self, prof_results):
        for p in prof_results:
            assert sum(p.instruction_fractions.values()) == pytest.approx(1.0)

    def test_sgemm_is_fp32_heavy(self, prof_results):
        p = next(p for p in prof_results if p.kernel == "sgemm")
        assert p.instruction_fractions["FP32"] > 0.5

    def test_gather_scatter_are_int_heavy(self, prof_results):
        for name in ("indexSelect", "scatter"):
            p = next(p for p in prof_results if p.kernel == name)
            assert p.instruction_fractions["INT"] > p.instruction_fractions["FP32"]

    def test_utilization_bounds(self, prof_results):
        for p in prof_results:
            assert 0.0 <= p.compute_utilization <= 1.0
            assert 0.0 <= p.memory_utilization <= 1.0

    def test_dram_bytes_nonnegative(self, prof_results):
        for p in prof_results:
            assert p.dram_bytes >= 0.0

    def test_profiler_and_sim_l1_broadly_agree(self, sim_results, prof_results):
        """The paper's Fig. 8 observation: L1 closer than L2 on average."""
        l1_gap = np.mean([abs(s.l1_hit_rate - p.l1_hit_rate)
                          for s, p in zip(sim_results, prof_results)])
        assert l1_gap < 0.25


class TestAggregation:
    def test_normalize(self):
        assert normalize({"a": 2.0, "b": 2.0}) == {"a": 0.5, "b": 0.5}
        assert normalize({"a": 0.0}) == {"a": 0.0}

    def test_merge_distributions_weighted(self):
        merged = merge_distributions(
            [{"x": 1.0, "y": 0.0}, {"x": 0.0, "y": 1.0}], [3.0, 1.0])
        assert merged["x"] == pytest.approx(0.75)

    def test_aggregate_instruction_fractions(self, prof_results):
        merged = aggregate_instruction_fractions(prof_results)
        assert sum(merged.values()) == pytest.approx(1.0)


class TestAtomicContention:
    def test_all_distinct(self):
        assert atomic_contention(np.arange(10) * 128) == 0.0

    def test_all_same(self):
        contention = atomic_contention(np.zeros(100, dtype=np.int64))
        assert contention == pytest.approx(0.99)

    def test_empty(self):
        assert atomic_contention(np.array([], dtype=np.int64)) == 0.0

    def test_hub_heavy_graph_has_more_contention(self):
        rng = np.random.default_rng(0)
        uniform = rng.integers(0, 1000, 2000) * 128
        skewed = (rng.zipf(1.8, 2000) % 1000) * 128
        assert atomic_contention(skewed) > atomic_contention(uniform)


class TestConfigs:
    def test_v100_shape(self):
        cfg = v100_config()
        assert cfg.num_sms == 80
        assert cfg.l1.size_bytes == 128 * 1024
        assert cfg.l2.size_bytes == 6 * 1024 * 1024

    def test_nvprof_differs_from_sim_in_l2_only(self):
        # The L1 model is shared (GPGPU-Sim's L1 is hardware-validated);
        # the divergence the paper observes lives in the L2 policy.
        sim, prof = v100_config(), nvprof_config()
        assert sim.l1 == prof.l1
        assert sim.l2 != prof.l2
        assert sim.l2.write_allocate and not prof.l2.write_allocate

    def test_overrides(self):
        cfg = v100_config(num_sms=40)
        assert cfg.num_sms == 40

    def test_invalid_simulated_sms(self):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            v100_config(simulated_sms=0)


if __name__ == "__main__":
    run, digest = ((profile_set, profile_digest)
                   if sys.argv[1:] == ["profile"]
                   else (simulate_set, launch_digest))
    print(json.dumps(
        {name: [digest(r) for r in run(name)] for name in GOLDEN_SETS},
        indent=1, sort_keys=True))
