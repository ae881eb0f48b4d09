"""``BatchedGraph`` packs one feature width, whoever asks.

The serving layer batches only at equal width, so nothing equalises
ragged members any more: they refuse, and equal-width members stack
into one fully written buffer.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datasets import load_dataset
from repro.errors import GraphFormatError
from repro.graph import BatchedGraph
from strategies import STANDARD_SETTINGS, power_law_graphs


def test_ragged_dataset_widths_refuse():
    members = [load_dataset(name, scale=0.1) for name in ("cora", "pubmed")]
    with pytest.raises(GraphFormatError, match="ragged feature widths"):
        BatchedGraph(members)


@STANDARD_SETTINGS
@given(members=st.lists(power_law_graphs(max_nodes=24, max_width=3),
                        min_size=2, max_size=3))
def test_random_members_pack_iff_widths_agree(members):
    if len({g.num_features for g in members}) > 1:
        with pytest.raises(GraphFormatError, match="ragged feature widths"):
            BatchedGraph(members)
    else:
        packed = BatchedGraph(members)
        assert packed.features.dtype == np.float32
        assert np.array_equal(packed.features,
                              np.vstack([g.features for g in members]))
