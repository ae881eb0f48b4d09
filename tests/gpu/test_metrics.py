"""Tests for the result records and stat taxonomies."""

import pytest

from repro.gpu.metrics import (
    OCCUPANCY_STATES,
    STALL_REASONS,
    SimResult,
    merge_distributions,
    normalize,
)


class TestTaxonomies:
    def test_stall_reasons_match_fig6_legend(self):
        assert STALL_REASONS == (
            "MemoryDependency", "ExecutionDependency", "InstructionIssued",
            "InstructionFetch", "Synchronization", "NotSelected",
        )

    def test_occupancy_states_match_fig7_legend(self):
        assert OCCUPANCY_STATES == ("Stall", "Idle", "W8", "W20", "W32")


class TestNormalize:
    def test_basic(self):
        assert normalize({"a": 1.0, "b": 3.0}) == {"a": 0.25, "b": 0.75}

    def test_all_zero(self):
        assert normalize({"a": 0.0, "b": 0.0}) == {"a": 0.0, "b": 0.0}

    def test_empty(self):
        assert normalize({}) == {}


class TestMergeDistributions:
    def test_weights_respected(self):
        merged = merge_distributions(
            [{"x": 1.0}, {"x": 0.0, "y": 1.0}], [1.0, 3.0])
        assert merged["x"] == pytest.approx(0.25)
        assert merged["y"] == pytest.approx(0.75)

    def test_empty_input(self):
        assert merge_distributions([], []) == {}

    def test_zero_weights(self):
        merged = merge_distributions([{"x": 1.0}], [0.0])
        assert merged["x"] == 0.0


class TestSimResult:
    def _result(self, stalls):
        return SimResult(
            kernel="k", short_form="k", model="MP", cycles=10,
            issued_instructions=5, stall_distribution=stalls,
            occupancy_distribution={}, l1_hit_rate=0.5, l2_hit_rate=0.5,
            compute_utilization=0.1, memory_utilization=0.1,
            estimated_total_cycles=100.0, ipc=0.5,
        )

    def test_dominant_stall_excludes_issued(self):
        result = self._result({"InstructionIssued": 0.9,
                               "MemoryDependency": 0.1})
        assert result.dominant_stall() == "MemoryDependency"

    def test_dominant_stall_empty(self):
        assert self._result({"InstructionIssued": 1.0}).dominant_stall() == ""
