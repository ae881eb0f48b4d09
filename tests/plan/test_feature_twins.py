"""A graph keeping ``X`` row-sparse runs bit for bit as its dense twin.

The twin is ``Graph(g.edge_index, features=<g's dense X, copied>)``: a
dense-backed graph whose resident form is scanned out of that copy, the
CSR the bag-of-words generator builds directly.  Both sides ask the same
density rules of the same rows, so every executable backend x model x
compute-model combo, fused and ``fuse="off"``, returns the same bits
and records the same launches.  The row-sparse side builds its dense
view only for a dense consumer (gin/MP's ``combine``, PyG-like's
per-run copy), and at most once per graph; the native gcn and sage
paths never build it.
"""

import numpy as np
import pytest

from repro.core.kernels import record_launches
from repro.datasets import load_dataset
from repro.frameworks import PipelineSpec, get_backend
from repro.graph import Graph
from strategies import EXECUTABLE_COMBOS, copy_graph


def _born():
    """cora@0.15 as generated: ``X`` stored row-sparse, an empty memo."""
    return copy_graph(load_dataset("cora", scale=0.15, seed=1))


def _run(backend, spec, graph, fuse):
    built = get_backend(backend).build(spec, graph, fuse=fuse)
    with record_launches() as recorder:
        out = built.run()
    return out, [launch.fingerprint() for launch in recorder.launches]


def _count_densifications(monkeypatch, graph):
    """Calls that build a dense copy of ``graph``'s stored CSR."""
    stored, calls = graph.stored_features, []
    toarray = stored.toarray

    def counted(*args, **kwargs):
        calls.append(1)
        return toarray(*args, **kwargs)

    monkeypatch.setattr(stored, "toarray", counted)
    return calls


@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "off"])
@pytest.mark.parametrize("backend, model, cm", EXECUTABLE_COMBOS)
def test_row_sparse_x_runs_as_its_dense_twin(backend, model, cm, fuse,
                                             monkeypatch):
    born = _born()
    twin = Graph(born.edge_index, features=copy_graph(born).features.copy())
    assert not born.dense_view_built
    densified = _count_densifications(monkeypatch, born)
    spec = PipelineSpec(model=model, compute_model=cm, seed=5)
    out, launches = _run(backend, spec, born, fuse)
    again, _ = _run(backend, spec, born, not fuse)
    expected, expected_launches = _run(backend, spec, twin, fuse)
    assert out.dtype == expected.dtype
    assert np.array_equal(out, expected)
    assert launches == expected_launches
    assert np.array_equal(again, _run(backend, spec, twin, not fuse)[0])
    # The dense view: once at most, and only for a dense consumer.
    assert len(densified) == int(born.dense_view_built) <= 1
    if backend != "pyg" and model in ("gcn", "sage"):
        assert not born.dense_view_built
    if (backend, model, cm) in (("gsuite", "gin", "MP"),
                                ("pyg", "gin", "MP")):
        assert born.dense_view_built
