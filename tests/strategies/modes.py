"""Execution-mode strategies: backend x model x compute-model combos.

The plan-layer parity sweeps all quantify over the same space — which
backends can run which (model, compute model) pairs, whether the plan
takes the fusion pass, and how many member graphs pack into one
batched plan.  This module is that space,
drawn instead of hand-picked: one shared combo table (the grids
``tests/plan/test_batching.py`` / ``test_fusion.py`` historically
inlined), with strategies over its legal slices.
"""

from hypothesis import strategies as st

from .graphs import power_law_graphs

__all__ = [
    "EXECUTABLE_COMBOS",
    "FUSABLE_COMBOS",
    "ZOO",
    "batch_member_lists",
    "executable_combos",
    "fusable_combos",
    "lowered",
    "run_lowered",
]

#: Backend x (model, compute model) pairs every backend can execute.
#: Batching needs nothing from the execution style, so the observing
#: PyG-like tape participates; fusion needs a plain PlanExecutor, so
#: :data:`FUSABLE_COMBOS` excludes it.  The fixed backends come in the
#: order ``tests/plan/golden_launches.json`` lists them.
_GRID = {
    "gsuite": (("gcn", "MP"), ("gcn", "SpMM"), ("gin", "MP"),
               ("gin", "SpMM"), ("sage", "MP")),
    "pyg": (("gcn", "MP"), ("gin", "MP"), ("sage", "MP")),
    "dgl": (("gcn", "SpMM"), ("gin", "SpMM"), ("sage", "SpMM")),
    "gsuite-adaptive": (("gcn", "MP"), ("gin", "MP"), ("sage", "MP")),
}

EXECUTABLE_COMBOS = tuple((backend, model, cm)
                          for backend, pairs in _GRID.items()
                          for model, cm in pairs)

FUSABLE_COMBOS = tuple(combo for combo in EXECUTABLE_COMBOS
                       if combo[0] != "pyg")

#: The models the combos cover, in first-seen order.
ZOO = tuple(dict.fromkeys(model for _, model, _ in EXECUTABLE_COMBOS))


def lowered(backend, spec, graph):
    """The pipeline over the plan as lowered (``fuse=False``).

    For the suites that pin the per-op Table II stream and the oracle
    bound; the fused default has its own suite in
    ``tests/plan/test_fusion.py``.
    """
    from repro.frameworks import get_backend
    return get_backend(backend).build(spec, graph, fuse=False)


def run_lowered(model, graph, features=None):
    """Run ``model``'s lowered plan (unfused) over ``graph``: the model
    exactly as every backend executes it, with no backend around it."""
    from repro.core.models.base import check_features
    from repro.plan import PlanExecutor
    x = check_features(graph, model.dims[0][0], features)
    return PlanExecutor().run(model.lower(), graph, {"X": x})


def executable_combos():
    """One legal ``(backend, model, compute_model)`` triple."""
    return st.sampled_from(EXECUTABLE_COMBOS)


def fusable_combos():
    """A triple whose pipeline accepts the fusion pass (no PyG tape)."""
    return st.sampled_from(FUSABLE_COMBOS)


@st.composite
def batch_member_lists(draw, min_members: int = 2, max_members: int = 3,
                       max_nodes: int = 24):
    """2-3 random power-law graphs sharing one feature width.

    The member graphs of one batched plan: widths must agree (the
    :class:`~repro.graph.BatchedGraph` packing contract), everything
    else — node counts, edge counts, degree layout — varies freely.
    """
    width = draw(st.integers(1, 12))
    count = draw(st.integers(min_members, max_members))
    return [draw(power_law_graphs(max_nodes=max_nodes, width=width))
            for _ in range(count)]
