"""Feature-matrix Hypothesis strategies.

Dense float32 matrices at the densities the row-sparse first-layer
route discriminates on: nothing stored, one entry, bag-of-words (1 %),
either side of the one-in-``ROW_SPARSE_STRIDE`` boundary, and fully
dense.  Shapes reach down to ``n = 0`` and ``k = 0``.  Generation is a
pure function of drawn integers, so failing examples replay.
"""

import numpy as np
from hypothesis import strategies as st

__all__ = ["feature_matrices"]

_REGIMES = ("empty", "single", "bag_of_words", "under", "over", "full")


@st.composite
def feature_matrices(draw, max_rows: int = 40, max_width: int = 48,
                     rows: int = -1):
    """``(x, nnz)``: a float32 ``[n, k]`` matrix and its stored-entry
    count (positions where ``x != 0``).

    Values are drawn floats of either sign, not 0/1 indicators, and a
    drawn share of the absent positions holds ``-0.0``, which compares
    equal to zero and must not be stored.  ``rows`` pins ``n`` instead
    of drawing it (the node count of a drawn graph).
    """
    from repro.graph.graph import ROW_SPARSE_STRIDE

    n = rows if rows >= 0 else draw(st.integers(0, max_rows))
    k = draw(st.integers(0, max_width))
    regime = draw(st.sampled_from(_REGIMES))
    negative_zeros = draw(st.booleans())
    seed = draw(st.integers(0, 2**31 - 1))

    size = n * k
    budget = size // ROW_SPARSE_STRIDE
    nnz = {"empty": 0, "single": min(1, size),
           "bag_of_words": min(budget, -(-size // 100)),
           "under": budget, "over": min(size, budget + 1),
           "full": size}[regime]
    rng = np.random.default_rng(seed)
    flat = np.zeros(size, dtype=np.float32)
    if negative_zeros:
        flat[rng.random(size) < 0.25] = -0.0
    values = rng.standard_normal(nnz).astype(np.float32)
    values[values == 0] = 1.0
    flat[rng.permutation(size)[:nnz]] = values
    return flat.reshape(n, k), nnz
