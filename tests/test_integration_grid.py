"""Cross-grid integration smoke: every model x framework x computational
model combination the paper's grids exercise, on tiny workloads.

These tests pin the *combinatorial* surface: each cell builds, runs,
produces finite outputs of the right shape, and agrees numerically with
the reference implementation.
"""

import numpy as np
import pytest

from repro.core import GNNPipeline
from repro.datasets import load_dataset
from strategies import EXECUTABLE_COMBOS, ZOO

SCALE = 0.08
DATASETS = ("cora", "citeseer")

#: (framework, model, compute_model): every executable combo.
GRID = EXECUTABLE_COMBOS


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("framework,model,compute_model", GRID)
def test_grid_cell_runs_and_is_finite(dataset, framework, model,
                                      compute_model):
    pipeline = GNNPipeline.from_params(
        model=model, dataset=dataset, compute_model=compute_model,
        framework=framework, scale=SCALE, seed=3,
    )
    out = pipeline.run()
    graph = pipeline.graph
    assert out.shape == (graph.num_nodes, pipeline.spec.out_features)
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("model", ["gcn", "gin", "sage"])
def test_grid_cells_agree_across_frameworks(model):
    """All execution paths of one model compute the same function."""
    outputs = {}
    for framework, compute_model in (("gsuite", "MP"), ("pyg", "MP"),
                                     ("dgl", "SpMM")):
        pipeline = GNNPipeline.from_params(
            model=model, dataset="cora", compute_model=compute_model,
            framework=framework, scale=SCALE, seed=11,
        )
        outputs[framework] = pipeline.run()
    reference = outputs.pop("gsuite")
    for framework, out in outputs.items():
        assert np.allclose(out, reference, atol=2e-3), framework


def test_full_characterization_stack_on_every_model():
    """record -> simulate -> profile works for each registered model."""
    graph = load_dataset("cora", scale=SCALE)
    for model in ZOO:
        pipeline = GNNPipeline.from_params(model=model, dataset="cora",
                                           scale=SCALE, sample_cap=10_000)
        sims = pipeline.simulate()
        profs = pipeline.profile()
        assert len(sims) == len(profs) > 0
        for sim, prof in zip(sims, profs):
            assert sim.kernel == prof.kernel
            assert abs(sum(sim.stall_distribution.values()) - 1.0) < 1e-6
            assert abs(sum(prof.instruction_fractions.values()) - 1.0) < 1e-6
