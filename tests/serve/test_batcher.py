"""The service's request queue: first in, first out, one at a time.

``due()`` — asked only when the worker is free — hands over the oldest
queued request as a group of one, whatever its feature width or
pipeline; ``flush_all()`` drains the rest in arrival order; a graph
without features never queues.  No clock anywhere: every case is a
plain sequence of calls.
"""

import numpy as np
import pytest

from repro.errors import ServeError
from repro.graph import Graph
from repro.serve import InferenceRequest
from repro.serve.batcher import MicroBatcher


def _request(request_id, width=4, seed=0, nodes=6, **kwargs):
    rng = np.random.default_rng(seed)
    graph = Graph(rng.integers(0, nodes, size=(2, 2 * nodes)),
                  num_nodes=nodes,
                  features=rng.standard_normal((nodes, width))
                  .astype(np.float32), name=request_id)
    kwargs.setdefault("out_features", 3)
    return InferenceRequest(request_id=request_id, graph=graph, **kwargs)


def _ids(groups):
    return [[e.request.request_id for e in g.entries] for g in groups]


class TestGrouping:
    def test_compatible_requests_share_a_queue(self):
        batcher = MicroBatcher()
        for i in range(3):
            batcher.submit(_request(f"r{i}", seed=i))
        assert len(batcher) == 3
        assert _ids(batcher.flush_all()) == [["r0"], ["r1"], ["r2"]]

    def test_featureless_graph_is_refused_and_never_queues(self):
        batcher = MicroBatcher()
        bad = _request("bad")
        bad.graph.features = None
        with pytest.raises(ServeError, match="'bad'.*no node features"):
            batcher.submit(bad)
        assert len(batcher) == 0


class TestFlushing:
    def test_idle_batcher_cuts_a_group_of_one(self):
        """Nothing else queued: the lone request goes now, alone."""
        batcher = MicroBatcher()
        assert batcher.due() == []                   # idle
        batcher.submit(_request("a"))
        (group,) = batcher.due()
        assert group.size == 1 and group.reason == "free"
        assert _ids([group]) == [["a"]]
        assert len(batcher) == 0 and batcher.due() == []

    def test_batch_full_cuts_one_group_keeps_remainder(self):
        """A group is full at one request: each turn cuts one and the
        rest stay queued."""
        batcher = MicroBatcher()
        for i in range(5):
            batcher.submit(_request(f"r{i}"))
        sizes, left = [], []
        while len(batcher):
            (group,) = batcher.due()                 # one group per turn
            sizes.append(group.size)
            left.append(len(batcher))
        assert sizes == [1] * 5
        assert left == [4, 3, 2, 1, 0]

    def test_oldest_head_goes_first(self):
        """Widths and models no longer separate requests: the oldest
        goes first, alone, every time."""
        batcher = MicroBatcher()
        arrivals = (("wide-0", 11, "gcn"), ("narrow-0", 3, "gcn"),
                    ("gin-0", 3, "gin"), ("wide-1", 11, "gcn"))
        for request_id, width, model in arrivals:
            batcher.submit(_request(request_id, width=width, model=model))
        groups = []
        while len(batcher):
            groups += batcher.due()
        assert _ids(groups) == [[request_id] for request_id, _, _ in arrivals]
        assert [g.entries[0].graph.num_features for g in groups] == \
            [11, 3, 3, 11]

    def test_flush_all_drains_every_queue(self):
        batcher = MicroBatcher()
        for i in range(3):
            batcher.submit(_request(f"r{i}", seed=i), payload=i)
        groups = batcher.flush_all()
        assert _ids(groups) == [["r0"], ["r1"], ["r2"]]
        assert {g.reason for g in groups} == {"close"}
        assert [g.entries[0].payload for g in groups] == [0, 1, 2]
        assert len(batcher) == 0 and batcher.flush_all() == []

    def test_requests_flush_in_fifo_order(self):
        batcher = MicroBatcher()
        for i in range(3):
            batcher.submit(_request(f"r{i}"))
        groups = batcher.due() + batcher.due()
        assert _ids(groups) == [["r0"], ["r1"]]
        assert _ids(batcher.flush_all()) == [["r2"]]
