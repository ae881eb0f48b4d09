"""Tests for the execution-plan IR containers and builder."""

import numpy as np
import pytest

from repro.errors import PlanError
from repro.plan import ExecutionPlan, PlanBuilder, ValueRef
from repro.plan.ir import FusedGatherScatter


def _tiny_plan(bias_value=1.0):
    b = PlanBuilder(model="gcn", flavor="native")
    x = b.input("X", fmt="dense")
    w = b.constant(np.eye(3, dtype=np.float32), name="W")
    bias = b.constant(np.full(3, bias_value, dtype=np.float32), name="b")
    h = b.sgemm(x, w, bias=bias, tag="t")
    out = b.activation(h, "relu")
    return b.build(out, layer_formats=("MP",))


class TestValueRef:
    def test_unknown_format_rejected(self):
        with pytest.raises(PlanError):
            ValueRef(0, "sparse-ish")

    def test_repr_carries_name(self):
        assert "X" in repr(ValueRef(0, "dense", "X"))


class TestBuilder:
    def test_builds_valid_plan(self):
        plan = _tiny_plan()
        assert isinstance(plan, ExecutionPlan)
        assert [op.opcode for op in plan.ops] == ["sgemm", "activation"]
        assert plan.layer_formats == ("MP",)
        assert len(plan.inputs) == 1 and plan.inputs[0].name == "X"

    def test_duplicate_input_rejected(self):
        b = PlanBuilder(model="gcn", flavor="native")
        b.input("X")
        with pytest.raises(PlanError):
            b.input("X")

    @pytest.mark.parametrize("reduce", ["max", "min"])
    def test_aggregation_ops_reduce_by_sum_and_mean_only(self, reduce):
        """Refused when the plan is built, not when a kernel runs."""
        b = PlanBuilder(model="gcn", flavor="native")
        x = b.input("X")
        index = b.input("index", fmt="edge")
        with pytest.raises(PlanError, match="unknown scatter reduce"):
            b.scatter_reduce(x, index, reduce=reduce)
        with pytest.raises(PlanError,
                           match="unknown fused_gather_scatter reduce"):
            FusedGatherScatter(x, index, index, ValueRef(9, "dense"),
                               reduce=reduce)

    def test_unknown_elementwise_kind_rejected(self):
        b = PlanBuilder(model="gcn", flavor="native")
        x = b.input("X")
        y = b.constant(np.zeros(2, dtype=np.float32))
        with pytest.raises(PlanError):
            b.elementwise("mystery", x, y)

    def test_validate_rejects_undefined_operand(self):
        plan = _tiny_plan()
        rogue = ValueRef(999, "dense", "rogue")
        broken = ExecutionPlan(
            model=plan.model, flavor=plan.flavor, ops=plan.ops,
            inputs=plan.inputs, output=rogue, constants=plan.constants)
        with pytest.raises(PlanError):
            broken.validate()

    def test_describe_row_per_op(self):
        plan = _tiny_plan()
        rows = plan.describe()
        assert len(rows) == len(plan.ops)
        assert any("sgemm" in row[1] for row in rows)


class TestFingerprint:
    def test_stable_for_identical_plans(self):
        assert _tiny_plan().fingerprint() == _tiny_plan().fingerprint()

    def test_sensitive_to_constants(self):
        assert _tiny_plan(1.0).fingerprint() != _tiny_plan(2.0).fingerprint()

    def test_sensitive_to_structure(self):
        b = PlanBuilder(model="gcn", flavor="native")
        x = b.input("X", fmt="dense")
        w = b.constant(np.eye(3, dtype=np.float32), name="W")
        bias = b.constant(np.ones(3, dtype=np.float32), name="b")
        h = b.sgemm(x, w, bias=bias, tag="t")
        plan = b.build(h, layer_formats=("MP",))   # no activation
        assert plan.fingerprint() != _tiny_plan().fingerprint()
