"""Tests for the cycle-level warp scheduler simulation.

``reference_warp_sim.py`` (this directory) holds the all-warps-every-
iteration loop the event-driven scheduler replaced; the differential
tests below require the two to return equal ``WarpSimOutput`` records.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_warp_sim import reference_simulate_warps
from repro.errors import SimulationError
from repro.gpu.config import v100_config
from repro.gpu.metrics import OCCUPANCY_STATES, STALL_REASONS
from repro.gpu.warp_sim import _ALU, _CTL, _MEM, build_pattern, simulate_warps

CFG = v100_config(max_cycles=20_000)
FAST = np.array([28], dtype=np.int64)      # all-L1 latencies
SLOW = np.array([420], dtype=np.int64)     # all-DRAM latencies


def run(pattern=None, warps=8, ipw=50, lats=FAST, **kw):
    pattern = pattern if pattern is not None else build_pattern(0.2, 0.05)
    return simulate_warps(CFG, warps, ipw, pattern, lats, **kw)


class TestBuildPattern:
    def test_fractions_respected(self):
        pattern = build_pattern(0.25, 0.10, length=64)
        assert pattern.count(_MEM) == 16
        assert pattern.count(_CTL) == 6

    def test_memory_spread_not_clumped(self):
        pattern = build_pattern(0.25, 0.0, length=64)
        gaps = np.diff([i for i, c in enumerate(pattern) if c == _MEM])
        assert gaps.max() <= 8  # evenly strided, not back-to-back block

    def test_zero_fractions(self):
        pattern = build_pattern(0.0, 0.0)
        assert all(c == _ALU for c in pattern)

    def test_all_memory(self):
        pattern = build_pattern(1.0, 0.0)
        assert all(c == _MEM for c in pattern)

    def test_invalid_fractions(self):
        with pytest.raises(SimulationError):
            build_pattern(1.5, 0.0)
        with pytest.raises(SimulationError):
            build_pattern(0.0, -0.1)


class TestSimulateWarps:
    def test_completes_simple_workload(self):
        out = run()
        assert out.completed
        assert out.issued == 8 * 50
        assert out.cycles > 0

    def test_invalid_arguments(self):
        with pytest.raises(SimulationError):
            simulate_warps(CFG, 0, 10, [_ALU], FAST)
        with pytest.raises(SimulationError):
            simulate_warps(CFG, 1, 0, [_ALU], FAST)
        with pytest.raises(SimulationError):
            simulate_warps(CFG, 1, 10, [], FAST)

    def test_stall_counts_cover_all_reasons(self):
        out = run()
        assert set(out.stall_counts) == set(STALL_REASONS)
        assert set(out.occupancy_counts) == set(OCCUPANCY_STATES)

    def test_issued_counter_matches_instruction_budget(self):
        out = run(warps=4, ipw=25)
        assert out.issued == 100

    def test_slow_memory_increases_memory_stalls(self):
        pattern = build_pattern(0.3, 0.05)
        fast = run(pattern=pattern, lats=FAST)
        slow = run(pattern=pattern, lats=SLOW)
        fast_frac = fast.stall_counts["MemoryDependency"] / max(1, sum(fast.stall_counts.values()))
        slow_frac = slow.stall_counts["MemoryDependency"] / max(1, sum(slow.stall_counts.values()))
        assert slow_frac > fast_frac
        assert slow.cycles > fast.cycles

    def test_alu_only_kernel_has_no_memory_stalls(self):
        out = run(pattern=[_ALU] * 16)
        assert out.stall_counts["MemoryDependency"] == 0

    def test_atomic_contention_creates_sync_stalls(self):
        pattern = build_pattern(0.3, 0.0)
        plain = run(pattern=pattern, lats=SLOW, atomic=False)
        contended = run(pattern=pattern, lats=SLOW, atomic=True, contention=1.0)
        assert contended.stall_counts["Synchronization"] > \
            plain.stall_counts["Synchronization"]

    def test_zero_contention_atomic_adds_nothing(self):
        pattern = build_pattern(0.3, 0.0)
        out = run(pattern=pattern, atomic=True, contention=0.0)
        assert out.stall_counts["Synchronization"] == 0

    def test_lane_buckets(self):
        assert run(active_lanes=4).occupancy_counts["W8"] > 0
        assert run(active_lanes=16).occupancy_counts["W20"] > 0
        assert run(active_lanes=32).occupancy_counts["W32"] > 0

    def test_more_warps_hide_latency(self):
        pattern = build_pattern(0.3, 0.05)
        few = simulate_warps(CFG, 2, 100, pattern, SLOW)
        many = simulate_warps(CFG, 48, 100, pattern, SLOW)
        ipc_few = few.issued / few.cycles
        ipc_many = many.issued / many.cycles
        assert ipc_many > ipc_few

    def test_ipc_bounded_by_issue_width(self):
        out = run(pattern=[_ALU] * 16, warps=64, ipw=100)
        assert out.issued / out.cycles <= CFG.issue_width + 1e-9

    def test_cycle_cap_respected(self):
        cfg = v100_config(max_cycles=100)
        out = simulate_warps(cfg, 4, 10_000, build_pattern(0.5, 0.0), SLOW)
        assert out.cycles <= 100
        assert not out.completed

    def test_control_instructions_use_sfu_latency(self):
        ctl_heavy = run(pattern=[_CTL] * 8, warps=1, ipw=40)
        alu_only = run(pattern=[_ALU] * 8, warps=1, ipw=40)
        assert ctl_heavy.cycles > alu_only.cycles

    def test_empty_latency_array_defaults_to_l1(self):
        out = run(lats=np.array([], dtype=np.int64),
                  pattern=build_pattern(0.5, 0.0))
        assert out.completed

    def test_single_warp_single_instruction(self):
        out = simulate_warps(CFG, 1, 1, [_ALU], FAST)
        assert out.completed
        assert out.issued == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 32), st.integers(1, 80),
       st.floats(0.0, 0.9), st.integers(0, 2**31 - 1))
def test_accounting_invariants(warps, ipw, mem_fraction, seed):
    """Property: counters are consistent for any workload shape.

    * total issued equals warps x ipw when the sim completes;
    * occupancy counts sum to the cycle count;
    * every counter is non-negative.
    """
    rng = np.random.default_rng(seed)
    lats = rng.choice([28, 193, 420], size=16).astype(np.int64)
    pattern = build_pattern(mem_fraction, 0.05)
    out = simulate_warps(v100_config(max_cycles=50_000), warps, ipw,
                         pattern, lats)
    assert out.completed
    assert out.issued == warps * ipw
    assert sum(out.occupancy_counts.values()) == out.cycles
    assert all(v >= 0 for v in out.stall_counts.values())
    assert out.stall_counts["InstructionIssued"] == out.issued


# -- differential oracle ---------------------------------------------------

#: Nine back-to-back loads in a sparse pattern: `use_distance` becomes 9,
#: so the ninth load finds `mlp` = 8 requests outstanding and takes the
#: LSU back-pressure path.  (`build_pattern` never gets there: dense
#: loads clamp `use_distance` to 4, leaving at most four outstanding.)
BACK_PRESSURE = [_MEM] * 9 + [_ALU] * 32
MIXED = np.array([1, 28, 193, 420, 28, 28, 193], dtype=np.int64)


def both(cfg, warps, ipw, pattern, lats, **kw):
    """Run the scheduler and the oracle; they must agree on every field."""
    out = simulate_warps(cfg, warps, ipw, pattern, lats, **kw)
    assert out == reference_simulate_warps(cfg, warps, ipw, pattern, lats, **kw)
    return out


@st.composite
def sim_cases(draw):
    cfg = v100_config(
        issue_width=draw(st.sampled_from([1, 2, 3, 4])),
        fetch_latency=draw(st.sampled_from([0, 1, 3, 6])),
        alu_latency=draw(st.integers(0, 8)),
        sfu_latency=draw(st.integers(1, 16)),
        atomic_penalty=draw(st.sampled_from([0, 24, 100])),
        max_cycles=draw(st.sampled_from([50, 500, 3_000, 20_000])),
    )
    pattern = draw(st.one_of(
        st.builds(build_pattern, st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                  st.sampled_from([4, 16, 64])),
        st.builds(lambda loads, rest: [_MEM] * loads + [_ALU] * rest,
                  st.integers(9, 12), st.integers(32, 48)),
    ))
    lats = draw(st.one_of(
        st.just([]), st.sampled_from([[1], [28], [420]]),
        st.lists(st.sampled_from([1, 28, 193, 420]), min_size=2, max_size=40),
    ))
    # Warp counts reach past 128 because the sleeper heap packs warp
    # indices into R.bit_length() bits, and a custom max_warps_per_sm
    # may exceed the shipped 64.  The lane counts sit on both sides of
    # each occupancy bucket's edge.
    return dict(
        cfg=cfg, warps=draw(st.integers(1, 130)), ipw=draw(st.integers(1, 300)),
        pattern=pattern, lats=np.array(lats, dtype=np.int64),
        atomic=draw(st.booleans()),
        contention=draw(st.sampled_from([0.0, 0.3, 1.0])),
        active_lanes=draw(st.sampled_from([1, 8, 9, 20, 21, 32])),
    )


@settings(max_examples=200, deadline=None)
@given(sim_cases())
def test_matches_reference_loop(case):
    """Property: the whole ``WarpSimOutput`` equals the oracle's."""
    both(**case)


class TestReferenceRegressions:
    """Named corners of the bit-identity contract."""

    def test_cycle_cap_inside_fast_forward(self):
        # One warp blocks on a 420-cycle load from about cycle 20 on; the
        # cap at 100 cuts that skip short.
        out = both(v100_config(max_cycles=100), 1, 50,
                   [_MEM, _ALU, _ALU, _ALU], SLOW)
        assert out.cycles == 100 and not out.completed
        assert out.occupancy_counts["Stall"] > 50

    def test_single_instruction_per_warp(self):
        out = both(CFG, 5, 1, build_pattern(0.5, 0.0), MIXED)
        assert out.completed and out.issued == 5

    def test_issue_width_wider_than_resident_warps(self):
        out = both(v100_config(issue_width=4, max_cycles=20_000), 2, 60,
                   build_pattern(0.3, 0.05), MIXED)
        assert out.completed

    def test_all_memory_pattern(self):
        for atomic in (False, True):
            out = both(CFG, 3, 120, build_pattern(1.0, 0.0), MIXED,
                       atomic=atomic, contention=1.0)
            assert out.completed

    def test_lsu_back_pressure(self):
        fast = both(CFG, 3, 120, BACK_PRESSURE, FAST)
        slow = both(CFG, 3, 120, BACK_PRESSURE, SLOW)
        assert slow.stall_counts["MemoryDependency"] > \
            fast.stall_counts["MemoryDependency"]

    def test_fetch_gap_longer_than_alu_latency(self):
        # A warp that is `ready` but not yet fetched still runs its
        # promote step on every iteration other warps cause in between.
        cfg = v100_config(fetch_latency=6, alu_latency=1, max_cycles=20_000)
        for warps in (1, 4, 33):
            out = both(cfg, warps, 80, build_pattern(0.3, 0.05), MIXED,
                       atomic=True, contention=0.3)
            assert out.completed
        assert out.stall_counts["InstructionFetch"] > 0

    def test_fast_forward_charges_wait_reason_past_ready(self):
        """The one modelling quirk kept for bit-identity.

        Warp 0 issues an ALU op at cycle 0: ready at 2, next instruction
        fetched at 7.  Nothing is eligible at cycle 1, so the loop skips
        to 7 and charges all six cycles to the reason the warp was
        waiting on at cycle 1 (ExecutionDependency), although from cycle
        2 on it waited for the fetch.
        """
        cfg = v100_config(fetch_latency=6, alu_latency=2, max_cycles=1_000)
        out = both(cfg, 1, 2, [_ALU], FAST)
        assert out.cycles == 8
        assert out.stall_counts["ExecutionDependency"] == 6
        assert out.stall_counts["InstructionFetch"] == 0
        assert out.stall_counts["InstructionIssued"] == 2
