"""A float64 oracle for the model zoo, and the float32 bound plans keep to it.

Every backend runs a model as its lowered plan.  This module re-derives
what each plan computes, in float64 NumPy / SciPy from the model's
weights and the graph alone: GCN (Kipf & Welling, Eq. 2), GIN (Xu et
al., Eq. 4, the MLP two SGEMMs around a ReLU) and GraphSAGE-mean
(Eq. 5).

:func:`layer_ratios` checks a plan one layer at a time, on the plan's
own float32 input to that layer, so float32 error never compounds
across layers and a wrong model at any layer shows.  Each output
element may sit ``gamma(k) * magnitude`` from the oracle, where

* ``gamma(k) = k u / (1 - k u)`` with ``u = 2**-24`` bounds ``k``
  chained float32 roundings (Higham, *Accuracy and Stability of
  Numerical Algorithms*, Sec. 3.1), a length-``n`` accumulation
  counting ``n``;
* ``magnitude`` is the same layer evaluated on absolute values
  (``|A| |x| |W| + |b|`` for GCN);
* ``k`` is the layer's longest chain: the operator's longest row (a
  node's in-edges, parallel edges counted), the inner width of every
  SGEMM on the path, and the single roundings each layer below names.

No constant is fitted: every bound comes from ``u`` and the shapes.

Backends add self-loops in one of two ways, and the oracle follows:
PyG's SAGEConv adds one to every node, while everything else adds one
only to a node that lacks one (PyG's ``add_remaining_self_loops``).
Graphs are unweighted; parallel edges count with multiplicity.
"""

import numpy as np
import scipy.sparse as sp

from repro.core.models import build_model

__all__ = ["U", "adjacency", "gamma", "layer_inputs", "layer_ratios",
           "reference_model"]

#: Unit roundoff of float32 (round to nearest).
U = 2.0 ** -24

#: Each inter-layer activation (all 1-Lipschitz), with the roundings it
#: adds to its input's error: ReLU is exact; sigmoid is an exp faithful
#: to one ulp (two units of ``U``), an add and a divide.
_ACTIVATIONS = {
    "relu": (lambda y: np.maximum(y, 0.0), 0),
    "sigmoid": (lambda y: 0.5 + 0.5 * np.tanh(0.5 * y), 4),
}

#: The field holding the dense operand of each op that can open a layer.
_LAYER_INPUT = {"gather": "source", "sgemm": "a", "spmm": "dense"}


def gamma(k: int) -> float:
    """The relative bound of ``k`` chained float32 roundings."""
    return k * U / (1.0 - k * U)


def reference_model(spec, graph):
    """The seeded model whose weights every backend loads for ``spec``."""
    return build_model(
        spec.model, in_features=graph.num_features, hidden=spec.hidden,
        out_features=spec.out_features, num_layers=spec.num_layers,
        compute_model="MP", activation=spec.activation, seed=spec.seed)


def adjacency(graph, loops: str = "none") -> sp.csr_matrix:
    """In-edge counts as a float64 CSR, one row per destination.

    ``loops`` is ``"none"``, ``"missing"`` (a ``v -> v`` edge for each
    node lacking one) or ``"all"`` (one more for every node).
    """
    if graph.edge_weight is not None:
        raise ValueError("the oracle covers unweighted graphs")
    n = graph.num_nodes
    src, dst = graph.src, graph.dst
    if loops == "all":
        extra = np.arange(n)
    elif loops == "missing":
        looped = np.zeros(n, dtype=bool)
        looped[src[src == dst]] = True
        extra = np.flatnonzero(~looped)
    else:
        extra = np.empty(0, dtype=np.int64)
    rows = np.concatenate([dst, extra])
    cols = np.concatenate([src, extra])
    return sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))


def _longest(counts: sp.csr_matrix) -> int:
    """A node's most in-edges: the longest scatter / SpMM accumulation."""
    return int(counts.sum(axis=1).max()) if counts.shape[0] else 0


# -- one layer each: (float64 value, elementwise bound) ----------------------

def _gcn(x, p, graph, model, loops):
    """``D^-1/2 (A+I) D^-1/2 x W + b``.

    Past the two accumulations: an operator entry carries up to four
    roundings (two rounded ``D^-1/2`` factors, two SpGEMM products) and
    the bias add one.
    """
    counts = adjacency(graph, "missing")
    scale = sp.diags(1.0 / np.sqrt(np.asarray(counts.sum(axis=1)).ravel()))
    propagation = scale @ counts @ scale
    value = propagation @ (x @ p["W"]) + p["b"]
    magnitude = propagation @ (abs(x) @ abs(p["W"])) + abs(p["b"])
    k = _longest(counts) + p["W"].shape[0] + 5
    return value, gamma(k) * magnitude


def _gin(x, p, graph, model, loops):
    """``MLP((A + (1 + eps) I) x)``, the MLP ``relu(. W1 + b1) W2 + b2``.

    Past the three accumulations: ``1 + eps`` itself, its product with
    ``x`` and the add of the neighbour sum, then one bias add per SGEMM.
    """
    counts = adjacency(graph)
    combine = counts + (1.0 + model.epsilon) * sp.identity(graph.num_nodes)
    hidden = combine @ x @ p["W1"] + p["b1"]
    value = np.maximum(hidden, 0.0) @ p["W2"] + p["b2"]
    magnitude = ((combine @ abs(x)) @ abs(p["W1"]) + abs(p["b1"])) \
        @ abs(p["W2"]) + abs(p["b2"])
    k = _longest(counts) + p["W1"].shape[0] + p["W2"].shape[0] + 5
    return value, gamma(k) * magnitude


def _sage(x, p, graph, model, loops):
    """``x W1 + mean_{N(v) + v}(x) W2 + b``.

    Past the three accumulations: the mean's division, the bias add and
    the add of the two transforms.
    """
    counts = adjacency(graph, loops)
    mean = sp.diags(1.0 / np.asarray(counts.sum(axis=1)).ravel()) @ counts
    value = x @ p["W1"] + (mean @ x) @ p["W2"] + p["b"]
    magnitude = abs(x) @ abs(p["W1"]) + (mean @ abs(x)) @ abs(p["W2"]) \
        + abs(p["b"])
    k = _longest(counts) + p["W1"].shape[0] + 3
    return value, gamma(k) * magnitude


_LAYERS = {"gcn": _gcn, "gin": _gin, "sage": _sage}


def layer_inputs(pipeline):
    """Run ``pipeline`` once: each layer's float32 input, and the output.

    Layer ``i``'s input is the dense operand of the plan's first op
    tagged ``<model>-l<i>``, observed through the executor's ``on_op``
    hook (chained after any observer the pipeline installed).
    """
    plan = pipeline.plan
    executor = pipeline._executor
    observer = executor.on_op
    values = {ref.vid: pipeline.input_features()
              for ref in plan.inputs if ref.name == "X"}
    operands = []

    def on_op(op, result):
        if observer is not None:
            observer(op, result)
        if op.opcode == "normalize":
            return
        if getattr(op, "tag", "") == f"{plan.model}-l{len(operands)}":
            operands.append(getattr(op, _LAYER_INPUT[op.opcode]).vid)
        values[op.out.vid] = result

    executor.on_op = on_op
    try:
        output = pipeline.run()
    finally:
        executor.on_op = observer
    return [values[vid] for vid in operands], output


def layer_ratios(pipeline, model):
    """Each layer's worst ``|plan - oracle| / bound``; all <= 1 to pass.

    ``pipeline`` runs an unfused plan (fused plans are pinned bit for bit
    to theirs elsewhere); ``model`` supplies weights, epsilon and
    activation — :func:`reference_model`, or a deliberately wrong copy.
    """
    inputs, output = layer_inputs(pipeline)
    assert len(inputs) == model.num_layers, "a layer left no tagged op"
    loops = "all" if (pipeline.backend_name == "PyG"
                      and model.name == "sage") else "missing"
    activation, roundings = _ACTIVATIONS[model.activation_name]
    ratios = []
    for layer, (x, out) in enumerate(zip(inputs, inputs[1:] + [output])):
        params = {key: np.asarray(value, dtype=np.float64)
                  for key, value in model.weights[layer].items()}
        if sp.issparse(x):                # X as the graph stores it
            x = x.toarray()
        value, bound = _LAYERS[model.name](
            np.asarray(x, dtype=np.float64), params, pipeline.graph, model,
            loops)
        if layer < model.num_layers - 1:
            value = activation(value)
            bound = bound + gamma(roundings) * abs(value)
        error = abs(np.asarray(out, dtype=np.float64) - value)
        wrong = error > 0
        if not wrong.any():
            ratios.append(0.0)
        elif (bound[wrong] == 0).any():
            ratios.append(np.inf)
        else:
            ratios.append(float((error[wrong] / bound[wrong]).max()))
    return ratios
