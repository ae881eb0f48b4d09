"""Tests for the shared bench machinery (memoisation, aggregation)."""

import pytest

from repro.bench.common import (
    DATASET_ORDER,
    MP_MODELS,
    SPMM_MODELS,
    clear_bench_cache,
    merge_sim_by_kernel,
    pipeline_for,
    profile_results,
    recorded_launches,
    sim_results,
)
from repro.bench.profiles import PROFILES, BenchProfile
from repro.cache import get_cache
from repro.gpu.config import v100_config
from repro.gpu.simulator import GpuSimulator

TINY = BenchProfile(
    name="tiny",
    dataset_scales={"cora": 0.05},
    sample_cap=5_000,
    max_cycles=2_000,
    repeats=1,
)


@pytest.fixture(autouse=True)
def fresh():
    clear_bench_cache()
    yield
    clear_bench_cache()


class TestGrids:
    def test_paper_grids(self):
        assert MP_MODELS == ("gcn", "gin", "sage")
        assert SPMM_MODELS == ("gcn", "gin")
        assert [short for _, short in DATASET_ORDER] == \
            ["CR", "CS", "PB", "RD", "LJ"]


class TestPipelineFor:
    def test_applies_profile(self):
        pipe = pipeline_for("gcn", "cora", "MP", TINY)
        assert pipe.config.scale == 0.05
        assert pipe.config.sample_cap == 5_000

    def test_framework_selection(self):
        pipe = pipeline_for("gcn", "cora", "MP", TINY, framework="pyg")
        assert pipe.figure_label() == "PyG"


class TestMemoisation:
    def test_launches_cached(self):
        a = recorded_launches("gcn", "cora", "MP", TINY)
        b = recorded_launches("gcn", "cora", "MP", TINY)
        assert a is b

    def test_sims_and_profiles_cached(self):
        assert sim_results("gcn", "cora", "MP", TINY) is \
            sim_results("gcn", "cora", "MP", TINY)
        assert profile_results("gcn", "cora", "MP", TINY) is \
            profile_results("gcn", "cora", "MP", TINY)

    def test_cache_key_distinguishes_compute_model(self):
        a = recorded_launches("gcn", "cora", "MP", TINY)
        b = recorded_launches("gcn", "cora", "SpMM", TINY)
        assert a is not b

    def test_clear_cache(self):
        a = recorded_launches("gcn", "cora", "MP", TINY)
        clear_bench_cache()
        assert recorded_launches("gcn", "cora", "MP", TINY) is not a


class TestLaunchDedup:
    """Identical launches share a fingerprint, so a cold pass simulates
    each once: the cells and profile of the e2e ``characterize``
    workload, where gcn/cora's two SGEMMs appear in both cells and
    sage/pubmed's self and neighbour SGEMMs match in each layer."""

    CELLS = (("gcn", "cora", "MP"), ("gcn", "cora", "SpMM"),
             ("sage", "pubmed", "MP"))
    PROFILE = BenchProfile(
        name="e2e",
        dataset_scales={**PROFILES["ci"].dataset_scales, "pubmed": 0.25},
        sample_cap=10_000, max_cycles=5_000, repeats=PROFILES["ci"].repeats)

    def test_cold_pass_simulates_each_distinct_launch_once(self,
                                                            monkeypatch):
        simulate = GpuSimulator._simulate
        fingerprints = []

        def counting(simulator, launch):
            fingerprints.append(launch.fingerprint())
            return simulate(simulator, launch)

        monkeypatch.setattr(GpuSimulator, "_simulate", counting)
        results = [r for cell in self.CELLS
                   for r in sim_results(*cell, self.PROFILE)]
        launches = [launch for cell in self.CELLS
                    for launch in recorded_launches(*cell, self.PROFILE)]
        distinct = {launch.fingerprint() for launch in launches}
        assert (len(launches), len(distinct)) == (20, 16)
        assert sorted(fingerprints) == sorted(distinct)
        assert get_cache().stats.hits == 4
        plain = GpuSimulator(v100_config(max_cycles=self.PROFILE.max_cycles))
        assert results == [simulate(plain, launch) for launch in launches]


class TestMergeSimByKernel:
    def test_merges_by_short_form(self):
        results = sim_results("gcn", "cora", "MP", TINY)
        merged = merge_sim_by_kernel(results)
        assert set(merged) == {"sg", "is", "sc"}
        for summary in merged.values():
            assert summary["launches"] == 2  # two layers
            assert sum(summary["stalls"].values()) == pytest.approx(1.0)
            assert sum(summary["occupancy"].values()) == pytest.approx(1.0)
            assert 0.0 <= summary["l1_hit_rate"] <= 1.0

    def test_empty_input(self):
        assert merge_sim_by_kernel([]) == {}
