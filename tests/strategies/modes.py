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
    "batch_member_lists",
    "executable_combos",
    "fusable_combos",
    "lowered",
]

#: Backend x (model, compute model) pairs every backend can execute.
#: Batching needs nothing from the execution style, so the observing
#: PyG-like tape participates; fusion needs a plain PlanExecutor, so
#: :data:`FUSABLE_COMBOS` excludes it.
_GRID = {
    "gsuite": (("gcn", "MP"), ("gcn", "SpMM"), ("gin", "MP"),
               ("gin", "SpMM"), ("sage", "MP"), ("gat", "MP")),
    "dgl": (("gcn", "SpMM"), ("gin", "SpMM"), ("sage", "SpMM")),
    "gsuite-adaptive": (("gcn", "MP"), ("gin", "MP"), ("sage", "MP"),
                        ("gat", "MP")),
    "pyg": (("gcn", "MP"), ("gin", "MP"), ("sage", "MP")),
}

EXECUTABLE_COMBOS = tuple((backend, model, cm)
                          for backend, pairs in _GRID.items()
                          for model, cm in pairs)

FUSABLE_COMBOS = tuple(combo for combo in EXECUTABLE_COMBOS
                       if combo[0] != "pyg")


def lowered(backend, spec, graph):
    """The pipeline over the plan as lowered (``fuse=False``).

    For the suites that pin the per-op Table II stream — plan vs
    legacy; the fused default has its own suite in
    ``tests/plan/test_fusion.py``.
    """
    from repro.frameworks import get_backend
    return get_backend(backend).build(spec, graph, fuse=False)


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
