"""Micro-batcher unit and property tests.

The batcher's contract: queues group by compatibility key **and
feature width** (a group is always one width), a group never flushes
deeper than :func:`~repro.plan.planner.choose_batching` allows for that
width and its costliest member (the serving path stays inside the
offline budgets), and ``due()`` — asked only when the
worker is free — hands over exactly one group: the queue whose head
arrived first, sliced at its budget.  No clock anywhere: arrival order
is a counter, so every case is a plain sequence of calls.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ServeError
from repro.graph import Graph
from repro.serve import InferenceRequest, MicroBatcher
from repro.serve.batcher import CAPACITY, group_budget
from strategies import PARITY_SETTINGS, batch_member_lists


def _graph(width=4, nodes=6, seed=0, name="g"):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, nodes, size=2 * nodes)
    dst = rng.integers(0, nodes, size=2 * nodes)
    return Graph(np.vstack([src, dst]).astype(np.int64), num_nodes=nodes,
                 features=rng.standard_normal((nodes, width))
                 .astype(np.float32), name=name)


def _request(request_id, width=4, seed=0, nodes=6, **kwargs):
    kwargs.setdefault("out_features", 3)
    return InferenceRequest(request_id=request_id,
                            graph=_graph(width=width, nodes=nodes, seed=seed),
                            **kwargs)


class TestGrouping:
    def test_compatible_requests_share_a_queue(self):
        batcher = MicroBatcher()
        for i in range(3):
            batcher.submit(_request(f"r{i}", seed=i))
        assert len(batcher) == 3
        assert len(batcher._queues) == 1

    def test_incompatible_requests_split_queues(self):
        batcher = MicroBatcher()
        batcher.submit(_request("a", model="gcn"))
        batcher.submit(_request("b", model="gin"))
        batcher.submit(_request("c", model="gcn", seed=9))  # same key as a
        assert len(batcher._queues) == 2

    def test_mixed_widths_never_share_a_queue(self):
        """Width is part of the key: equal widths queue together, and
        across width queues the oldest head is cut first."""
        batcher = MicroBatcher()
        for request_id, width in (("wide-0", 11), ("narrow-0", 3),
                                  ("narrow-1", 3), ("wide-1", 11)):
            batcher.submit(_request(request_id, width=width))
        assert len(batcher._queues) == 2
        order = []
        while len(batcher):
            (group,) = batcher.due()
            assert len({e.graph.num_features for e in group.entries}) == 1
            order.append([e.request.request_id for e in group.entries])
        assert order == [["wide-0", "wide-1"], ["narrow-0", "narrow-1"]]

    def test_invalid_knobs_refused(self):
        with pytest.raises(ServeError, match="max_batch"):
            MicroBatcher(max_batch=-1)


class TestBudgets:
    def test_budget_is_planner_capacity(self):
        batcher = MicroBatcher()
        requests = [_request(f"r{i}", seed=i) for i in range(4)]
        for request in requests:
            batcher.submit(request)
        (key,) = batcher._queues
        allowed = group_budget(requests, [r.graph for r in requests],
                               count=CAPACITY)
        assert batcher.budget(key) == allowed
        # Capacity pricing: the budget must not collapse to the queue
        # length (that would make every nonempty queue look batch-full).
        assert allowed > len(requests)               # tiny members pack deep

    def test_max_batch_caps_but_never_grows(self):
        requests = [_request(f"r{i}") for i in range(5)]
        graphs = [r.graph for r in requests]
        uncapped = group_budget(requests, graphs)
        assert group_budget(requests, graphs, max_batch=2) == \
            min(2, uncapped)
        assert group_budget(requests, graphs, max_batch=64) <= 64

    def test_off_mode_budget_is_one(self):
        batcher = MicroBatcher(max_batch=1)
        for i in range(3):
            batcher.submit(_request(f"r{i}"))
        (key,) = batcher._queues
        assert batcher.budget(key) == 1

    def test_adaptive_budget_is_one(self):
        batcher = MicroBatcher()
        for i in range(3):
            batcher.submit(_request(f"r{i}", framework="gsuite-adaptive"))
        (key,) = batcher._queues
        assert batcher.budget(key) == 1

    @PARITY_SETTINGS
    @given(members=batch_member_lists(min_members=2, max_members=3),
           cap=st.sampled_from((0, 1, 2, 64)))
    def test_budget_respects_planner_for_random_members(self, members, cap):
        requests = [
            InferenceRequest(request_id=f"r{i}", graph=g, out_features=3)
            for i, g in enumerate(members)]
        graphs = [r.graph for r in requests]
        budget = group_budget(requests, graphs,
                              max_batch=cap if cap >= 1 else None)
        assert 1 <= budget <= len(requests)
        if cap >= 1:
            assert budget <= cap
        unconstrained = group_budget(requests, graphs)
        assert budget <= unconstrained or cap >= 1


class TestFlushing:
    def test_idle_batcher_cuts_a_group_of_one(self):
        """Nothing else queued: the lone request goes now, alone."""
        batcher = MicroBatcher(max_batch=4)
        assert batcher.due() == []                   # idle
        batcher.submit(_request("a"))
        (group,) = batcher.due()
        assert group.size == 1 and group.reason == "free"
        assert [e.request.request_id for e in group.entries] == ["a"]
        assert len(batcher) == 0 and batcher.due() == []

    def test_under_budget_queue_goes_whole(self):
        """What queued behind a running group is the next group."""
        batcher = MicroBatcher(max_batch=4)
        for i in range(3):
            batcher.submit(_request(f"r{i}"))
        (group,) = batcher.due()
        assert group.size == 3 and group.reason == "free"
        assert len(batcher) == 0

    def test_batch_full_cuts_one_group_keeps_remainder(self):
        batcher = MicroBatcher(max_batch=2)
        for i in range(5):
            batcher.submit(_request(f"r{i}"))
        sizes, reasons = [], []
        while len(batcher):
            (group,) = batcher.due()                 # one group per turn
            sizes.append(group.size)
            reasons.append(group.reason)
        assert sizes == [2, 2, 1]
        assert reasons == ["full", "full", "free"]

    def test_oldest_head_goes_first(self):
        """Across compatibility keys the queue whose head arrived first
        is served first — and a remainder's head is as old as it is."""
        batcher = MicroBatcher(max_batch=2)
        batcher.submit(_request("gin-0", model="gin"))
        batcher.submit(_request("gcn-0"))
        batcher.submit(_request("gin-1", model="gin"))
        batcher.submit(_request("gin-2", model="gin"))
        order = []
        while len(batcher):
            (group,) = batcher.due()
            order.append([e.request.request_id for e in group.entries])
        assert order == [["gin-0", "gin-1"], ["gcn-0"], ["gin-2"]]

    def test_budget_is_priced_at_the_queue_width(self):
        """A wide request in flight does not shrink what narrow ones
        may pack: each width queue is priced at its own width (gin
        aggregates at the input width, so its budget follows it)."""
        batcher = MicroBatcher()
        for i, width in enumerate((4, 256, 4)):
            batcher.submit(_request(f"r{i}", width=width, seed=i,
                                    nodes=2000, model="gin"))
        budgets = {key[-1]: batcher.budget(key) for key in batcher._queues}
        assert budgets[4] > budgets[256] >= 1
        narrow = [e.request for key, queue in batcher._queues.items()
                  if key[-1] == 4 for e in queue]
        assert budgets[4] == group_budget(
            narrow, [r.graph for r in narrow], count=CAPACITY)

    def test_flush_all_drains_every_queue(self):
        batcher = MicroBatcher(max_batch=2)
        batcher.submit(_request("a", model="gcn"))
        batcher.submit(_request("b", model="gin"))
        batcher.submit(_request("c", model="gin", seed=2))
        groups = batcher.flush_all()
        assert {g.reason for g in groups} == {"close"}
        assert sum(g.size for g in groups) == 3
        assert len(batcher) == 0

    def test_requests_flush_in_fifo_order(self):
        batcher = MicroBatcher(max_batch=2)
        for i in range(3):
            batcher.submit(_request(f"r{i}"))
        groups = batcher.due() + batcher.due()
        order = [e.request.request_id for g in groups for e in g.entries]
        assert order == ["r0", "r1", "r2"]
