"""Tests for the additional GPU architecture configuration (MI100-like)."""

import numpy as np

from repro.core.kernels import index_select, record_launches, scatter
from repro.gpu import GpuSimulator, v100_config
from mi100 import mi100_config


class TestMI100Config:
    def test_structural_differences(self):
        volta, cdna = v100_config(), mi100_config()
        assert cdna.warp_size == 64
        assert cdna.num_sms > volta.num_sms
        assert cdna.l1.size_bytes < volta.l1.size_bytes
        assert cdna.l2.size_bytes > volta.l2.size_bytes
        assert cdna.issue_width == 1

    def test_overrides(self):
        cfg = mi100_config(num_sms=60)
        assert cfg.num_sms == 60

    def test_simulates_real_launches(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((500, 16)).astype(np.float32)
        idx = rng.integers(0, 500, 2_000)
        with record_launches() as recorder:
            msgs = index_select(x, idx)
            scatter(msgs, idx, dim_size=500)
        sim = GpuSimulator(mi100_config(max_cycles=10_000))
        for result in sim.simulate_all(recorder.launches):
            assert result.cycles > 0
            assert 0.0 <= result.l1_hit_rate <= 1.0
            assert abs(sum(result.stall_distribution.values()) - 1.0) < 1e-6

    def test_wider_wavefront_means_fewer_warps(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((100, 8)).astype(np.float32)
        with record_launches() as recorder:
            index_select(x, rng.integers(0, 100, 400))
        launch = recorder.launches[0]
        volta_sim = GpuSimulator(v100_config())
        cdna_sim = GpuSimulator(mi100_config())
        # Same launch: the 64-wide machine needs at most as many resident
        # wavefronts for the same thread count.
        assert (cdna_sim._resident_warps(launch)
                <= volta_sim._resident_warps(launch) * 2)
