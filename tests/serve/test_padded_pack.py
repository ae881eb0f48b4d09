"""Pad-and-pack in one copy: ``BatchedGraph(members, pad_width=W)``.

The service hands a mixed-width group to :class:`~repro.graph
.BatchedGraph` unpadded and the constructor writes every member's rows
into one zeroed ``N x W`` matrix.  That must be indistinguishable from
the two-step route it replaced (``pad_features`` each member, then
stack): the same feature bits, the same per-member outputs as
``solo_reference(pad_to=W)``, a plan-cache signature that still tells
pad widths apart — and ragged members with *no* pad width still refuse.
"""

import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.frameworks import get_backend
from repro.graph import BatchedGraph
from repro.plan import graph_signature
from repro.serve import InferenceRequest, pad_features, solo_reference
from strategies import PARITY_SETTINGS, power_law_graphs

DATASETS = ("cora", "citeseer", "pubmed")


@lru_cache(maxsize=None)
def _request(dataset):
    return InferenceRequest(request_id=dataset, dataset=dataset, scale=0.1,
                            out_features=8)


@lru_cache(maxsize=None)
def _graph(dataset):
    return _request(dataset).resolve_graph()


@lru_cache(maxsize=None)
def _reference(dataset, width):
    return solo_reference(_request(dataset), pad_to=width)


def _run_packed(request, packed):
    return packed.unpack(get_backend(request.framework).build(
        request.pipeline_spec(), packed).run())


class TestDatasetPairs:
    @pytest.mark.parametrize("pair", itertools.product(DATASETS, repeat=2),
                             ids="+".join)
    def test_one_copy_pack_is_the_two_step_pack(self, pair):
        members = [_graph(name) for name in pair]
        width = max(g.num_features for g in members)
        packed = BatchedGraph(members, pad_width=width)
        assert packed.features.dtype == np.float32
        assert np.array_equal(
            packed.features,
            np.vstack([pad_features(g, width).features for g in members]))
        assert packed.members == members             # kept unpadded
        for name, block in zip(pair, _run_packed(_request(pair[0]), packed)):
            assert np.array_equal(block, _reference(name, width)), name

    def test_signature_tells_pad_widths_apart(self):
        members = [_graph("cora"), _graph("pubmed")]
        natural = max(g.num_features for g in members)
        a = graph_signature(BatchedGraph(members, pad_width=natural))
        b = graph_signature(BatchedGraph(members, pad_width=natural + 64))
        assert a != b
        assert a == graph_signature(BatchedGraph(members, pad_width=natural))


class TestContract:
    def test_ragged_members_without_a_pad_width_still_refuse(self):
        with pytest.raises(GraphFormatError, match="ragged feature widths"):
            BatchedGraph([_graph("cora"), _graph("pubmed")])

    def test_padding_only_widens(self):
        with pytest.raises(GraphFormatError, match="only widens"):
            BatchedGraph([_graph("cora"), _graph("pubmed")], pad_width=500)

    def test_featureless_members_cannot_pad(self):
        bare = _graph("cora").with_features(None)
        with pytest.raises(GraphFormatError, match="carry features"):
            BatchedGraph([bare, bare], pad_width=8)

    def test_equal_widths_need_no_pad_width(self):
        members = [_graph("cora"), _graph("cora")]
        plain = BatchedGraph(members)
        padded = BatchedGraph(members, pad_width=members[0].num_features)
        assert np.array_equal(plain.features, padded.features)
        assert graph_signature(plain) == graph_signature(padded)


@PARITY_SETTINGS
@given(members=st.lists(power_law_graphs(max_nodes=24), min_size=2,
                        max_size=3),
       extra=st.integers(0, 3))
def test_ragged_random_members_pack_like_padded_solos(members, extra):
    width = max(g.num_features for g in members) + extra
    packed = BatchedGraph(members, pad_width=width)
    assert np.array_equal(
        packed.features,
        np.vstack([pad_features(g, width).features for g in members]))
    requests = [InferenceRequest(request_id=f"r{i}", graph=g, out_features=3)
                for i, g in enumerate(members)]
    for request, block in zip(requests, _run_packed(requests[0], packed)):
        assert np.array_equal(block, solo_reference(request, pad_to=width))
    if len({g.num_features for g in members}) > 1:
        with pytest.raises(GraphFormatError):
            BatchedGraph(members)
