"""Tests for the cache model and hierarchy driver.

:class:`SetAssociativeCache` is the oracle of the batch solver behind
``simulate_hierarchy``: the differential properties at the end of this
file require the two to agree access for access.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.gpu import cache as cache_module
from repro.gpu.cache import (
    _CTA_CHUNK,
    LEVEL_DRAM,
    LEVEL_L1,
    LEVEL_L2,
    CacheStats,
    HierarchyResult,
    SetAssociativeCache,
    _hierarchy,
    _interleave,
    _level_hits,
    simulate_hierarchy,
)
from repro.gpu.config import (
    CacheConfig,
    nvprof_config,
    v100_config,
)
from repro.gpu.simulator import atomic_contention
from mi100 import mi100_config
from strategies import STANDARD_SETTINGS


def tiny_cache(size=1024, line=128, ways=2, write_allocate=True):
    return SetAssociativeCache(
        CacheConfig(size_bytes=size, line_bytes=line, associativity=ways,
                    write_allocate=write_allocate)
    )


class TestCacheConfig:
    def test_num_sets(self):
        cfg = CacheConfig(size_bytes=1024, line_bytes=128, associativity=2)
        assert cfg.num_sets == 4

    def test_invalid_geometry_rejected(self):
        with pytest.raises(SimulationError):
            CacheConfig(size_bytes=0, line_bytes=128, associativity=2)
        with pytest.raises(SimulationError):
            CacheConfig(size_bytes=1000, line_bytes=128, associativity=3)


class TestSetAssociativeCache:
    def test_cold_misses_then_hits(self):
        cache = tiny_cache()
        addrs = np.array([0, 128, 0, 128])
        hits = cache.access_many(addrs)
        assert list(hits) == [False, False, True, True]
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction(self):
        # 2-way sets; three conflicting lines evict the least recent.
        cache = tiny_cache(size=256, line=128, ways=2)  # 1 set
        sets = cache.config.num_sets
        assert sets == 1
        a, b, c = 0, 128, 256
        cache.access_many(np.array([a, b]))       # fill set: [a, b]
        cache.access_many(np.array([a]))          # a becomes MRU: [b, a]
        hits = cache.access_many(np.array([c, b, a]))
        # c evicts b -> [a, c]; b evicts a -> [c, b]; a evicts c.
        assert list(hits) == [False, False, False]
        assert cache.stats.accesses == 6
        assert cache.stats.hits == 1    # the lone re-touch of a

    def test_same_line_different_offsets(self):
        cache = tiny_cache()
        hits = cache.access_many(np.array([0, 0]))
        assert list(hits) == [False, True]

    def test_write_no_allocate(self):
        cache = tiny_cache(write_allocate=False)
        stores = np.array([True, True])
        hits = cache.access_many(np.array([0, 0]), stores)
        # Store miss does not fill, so the second store misses again.
        assert list(hits) == [False, False]

    def test_write_allocate_fills(self):
        cache = tiny_cache(write_allocate=True)
        stores = np.array([True, True])
        hits = cache.access_many(np.array([0, 0]), stores)
        assert list(hits) == [False, True]

    def test_reset(self):
        cache = tiny_cache()
        cache.access_many(np.array([0]))
        cache.reset()
        assert cache.stats.accesses == 0
        assert not cache.access_many(np.array([0]))[0]

    def test_empty_access(self):
        cache = tiny_cache()
        assert cache.access_many(np.array([], dtype=np.int64)).size == 0
        assert cache.stats.hit_rate == 0.0

    def test_capacity_respected(self):
        # Working set exactly equal to capacity: second sweep all-hit.
        cache = tiny_cache(size=1024, line=128, ways=2)
        sweep = np.arange(8) * 128
        cache.access_many(sweep)
        hits = cache.access_many(sweep)
        assert hits.all()

    def test_thrash_when_oversubscribed(self):
        # Working set 2x capacity with LRU: sweeping forward never hits.
        cache = tiny_cache(size=1024, line=128, ways=2)
        sweep = np.arange(16) * 128
        cache.access_many(sweep)
        hits = cache.access_many(sweep)
        assert not hits.any()


class TestCacheStats:
    def test_merge(self):
        a = CacheStats(accesses=10, hits=5)
        b = CacheStats(accesses=10, hits=10)
        a.merge(b)
        assert a.accesses == 20
        assert a.hit_rate == pytest.approx(0.75)

    def test_misses(self):
        assert CacheStats(accesses=7, hits=3).misses == 4


class TestInterleave:
    def test_proportional_merge(self):
        loads = np.array([1, 2, 3, 4])
        stores = np.array([10, 20])
        merged, is_store = _interleave(loads, stores)
        assert merged.shape[0] == 6
        assert is_store.sum() == 2
        # Stores spread through the stream rather than trailing.
        assert is_store[:3].sum() >= 1

    def test_empty_streams(self):
        loads = np.array([1, 2])
        merged, is_store = _interleave(loads, np.array([], dtype=np.int64))
        assert np.array_equal(merged, loads)
        assert not is_store.any()
        merged, is_store = _interleave(np.array([], dtype=np.int64), loads)
        assert is_store.all()


class TestHierarchy:
    def test_levels_assigned(self):
        cfg = v100_config(simulated_sms=2)
        loads = np.tile(np.arange(4) * 128, 50)
        result = simulate_hierarchy(loads, np.array([], dtype=np.int64), cfg)
        assert set(np.unique(result.levels)).issubset({LEVEL_L1, LEVEL_L2, LEVEL_DRAM})
        assert result.l1.accesses == loads.shape[0]

    def test_repeated_lines_hit_l1(self):
        cfg = v100_config(simulated_sms=1)
        loads = np.tile(np.arange(8) * 128, 100)
        result = simulate_hierarchy(loads, np.array([], dtype=np.int64), cfg)
        assert result.l1.hit_rate > 0.9

    def test_streaming_misses_everywhere(self):
        cfg = v100_config(simulated_sms=1)
        loads = np.arange(400_00) * 128  # 5 MB sweep, never reused
        result = simulate_hierarchy(loads, np.array([], dtype=np.int64), cfg)
        assert result.l1.hit_rate < 0.05
        assert result.dram_accesses > 0

    def test_empty_trace(self):
        cfg = v100_config()
        result = simulate_hierarchy(np.array([], dtype=np.int64),
                                    np.array([], dtype=np.int64), cfg)
        assert result.levels.size == 0
        assert result.l1.hit_rate == 0.0

    def test_latency_mapping(self):
        cfg = v100_config(simulated_sms=1)
        loads = np.array([0, 0])  # miss then hit
        result = simulate_hierarchy(loads, np.array([], dtype=np.int64), cfg)
        lats = result.latencies(cfg)
        assert lats[1] == cfg.l1_latency
        assert lats[0] in (cfg.l2_latency, cfg.dram_latency)

    def test_l2_catches_l1_conflicts(self):
        cfg = v100_config(simulated_sms=4)
        # Working set larger than one L1 (128 KiB) but within the scaled
        # L2 slice (6 MiB x 4/80 = 300 KiB): repeat sweeps land in L2.
        lines = (cfg.l1.size_bytes * 2) // 128
        assert lines * 128 < cfg.scaled_l2().size_bytes
        sweep = np.arange(lines) * 128
        result = simulate_hierarchy(np.tile(sweep, 3),
                                    np.array([], dtype=np.int64), cfg)
        assert result.l2.hit_rate > 0.3

    def test_atomic_stores_allocate(self):
        cfg = nvprof_config(simulated_sms=1)  # L2 write-no-allocate
        # Twice the L1's ways, all in one L1 set: cyclic sweeps never
        # hit the L1, so every store reaches the L2.
        thrash = np.arange(2 * cfg.l1.associativity) * cfg.l1.num_sets * 128
        stores = np.tile(thrash, 100)
        plain = simulate_hierarchy(np.array([], dtype=np.int64), stores, cfg)
        atomic = simulate_hierarchy(np.array([], dtype=np.int64), stores, cfg,
                                    atomic=True)
        assert plain.l1.hits == atomic.l1.hits == 0
        assert plain.l2.hits == 0 < atomic.l2.hits

    def test_scaled_l2_smaller(self):
        cfg = v100_config(simulated_sms=4)
        assert cfg.scaled_l2().size_bytes < cfg.l2.size_bytes
        assert cfg.scaled_l2().size_bytes >= cfg.l2.line_bytes * cfg.l2.associativity


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 63), min_size=0, max_size=300),
       st.integers(1, 4))
def test_cache_hit_count_bounded_by_reuse(line_ids, ways):
    """Property: hits never exceed accesses minus distinct lines."""
    cache = SetAssociativeCache(
        CacheConfig(size_bytes=128 * 8 * ways, line_bytes=128,
                    associativity=ways)
    )
    addrs = np.array(line_ids, dtype=np.int64) * 128
    cache.access_many(addrs)
    distinct = len(set(line_ids))
    assert cache.stats.hits <= max(0, len(line_ids) - distinct)
    assert cache.stats.accesses == len(line_ids)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 31), min_size=1, max_size=200))
def test_bigger_cache_never_hits_less(line_ids):
    """Property (LRU inclusion): doubling capacity cannot reduce hits."""
    addrs = np.array(line_ids, dtype=np.int64) * 128
    small = SetAssociativeCache(
        CacheConfig(size_bytes=128 * 8, line_bytes=128, associativity=8))
    big = SetAssociativeCache(
        CacheConfig(size_bytes=128 * 16, line_bytes=128, associativity=16))
    small.access_many(addrs)
    big.access_many(addrs)
    assert big.stats.hits >= small.stats.hits


# ---------------------------------------------------------------------------
# Differential oracle: the batch solver against SetAssociativeCache
# ---------------------------------------------------------------------------

def walked_hits(addresses, is_store, instance, config):
    """Each instance's sub-stream through a fresh stateful cache."""
    hits = np.zeros(addresses.shape[0], dtype=bool)
    for one in np.unique(instance):
        where = np.flatnonzero(instance == one)
        hits[where] = SetAssociativeCache(config).access_many(
            addresses[where], is_store[where])
    return hits


def reference_hierarchy(loads, stores, config, atomic=False):
    """The per-access hierarchy walk ``simulate_hierarchy`` used to be."""
    accesses, is_store = _interleave(np.asarray(loads, dtype=np.int64),
                                     np.asarray(stores, dtype=np.int64))
    n = accesses.shape[0]
    levels = np.full(n, LEVEL_DRAM, dtype=np.int8)
    l1_total = CacheStats()
    l2 = SetAssociativeCache(config.scaled_l2())
    sm_of_chunk = np.arange(n) // _CTA_CHUNK % config.simulated_sms
    policy_stores = np.zeros(n, dtype=bool) if atomic else is_store
    miss_positions = [np.empty(0, dtype=np.int64)]
    for sm in range(config.simulated_sms):
        positions = np.flatnonzero(sm_of_chunk == sm)
        l1 = SetAssociativeCache(config.l1)
        hit_mask = l1.access_many(accesses[positions],
                                  policy_stores[positions])
        l1_total.merge(l1.stats)
        levels[positions[hit_mask]] = LEVEL_L1
        miss_positions.append(positions[~hit_mask])
    misses = np.sort(np.concatenate(miss_positions))
    l2_hits = l2.access_many(accesses[misses], policy_stores[misses])
    levels[misses[l2_hits]] = LEVEL_L2
    return HierarchyResult(levels=levels, is_store=is_store,
                           l1=l1_total, l2=l2.stats)


#: Byte offsets of a stream's base: trace regions sit ``1 << 40`` bytes
#: apart, so real addresses pass 2**47 after a hundred-odd operands.
BASES = (0, 1 << 47, (1 << 62) + (1 << 40))

#: Byte distances between the two halves of a split stream.  The last
#: leaves no room in an int64 beside a position, so a solver that packs
#: (line, position) sort keys has to notice.
SPLITS = (0, 1 << 40, 1 << 62)


@st.composite
def level_streams(draw):
    """(config, addresses, is_store, instance) for one cache level."""
    ways = draw(st.integers(1, 32))
    sets = draw(st.sampled_from((1, 2, 3, 7, 16, 64, 256)))
    config = CacheConfig(size_bytes=128 * ways * sets, line_bytes=128,
                         associativity=ways,
                         write_allocate=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from((0, 1, 2, 30, 400)))
    # Strides of one line and of one whole set row: the second lands
    # every line in one set, where only associativity decides.
    stride = draw(st.sampled_from((1, sets)))
    universe = draw(st.sampled_from((1, ways, ways + 1, 3 * ways, 40 * ways)))
    lines = rng.integers(0, universe, size=n) * stride
    is_store = rng.random(n) < draw(st.sampled_from((0.0, 0.3, 1.0)))
    if not draw(st.booleans()):      # keep stored lines off loaded ones
        lines = np.where(is_store, lines + universe * stride, lines)
    if draw(st.booleans()):          # atomic: every access allocates
        is_store = np.zeros(n, dtype=bool)
    instance = rng.integers(0, draw(st.integers(1, 4)), size=n)
    addresses = (draw(st.sampled_from(BASES[:2])) + lines * 128
                 + rng.integers(0, 2, size=n) * draw(st.sampled_from(SPLITS)))
    return config, addresses, is_store, instance


@STANDARD_SETTINGS
@given(level_streams())
def test_batch_solver_equals_stateful_cache(stream):
    """Property: one level solved at once == the per-access LRU walk."""
    config, addresses, is_store, instance = stream
    expected = walked_hits(addresses, is_store, instance, config)
    assert np.array_equal(
        _level_hits(addresses, is_store, instance, config), expected)


@pytest.mark.parametrize("cells", [1, 1 << 16])
def test_long_gaps_with_few_distinct_lines(cells, monkeypatch):
    """Reuses across windows far wider than one look-back block."""
    monkeypatch.setattr(cache_module, "_LOOKBACK_CELLS", cells)
    config = CacheConfig(size_bytes=128 * 4, line_bytes=128, associativity=4)
    a, b, c, d, e = (np.int64(k) * 128 for k in range(5))
    stream = np.concatenate([
        [a], np.tile([b, c], 700), [a],          # 2 lines between: hit
        np.tile([b, c, d], 500), [a],            # 3 between: hit
        np.tile([b, c, d, e], 300), [a, b],      # 4 between: a evicted
    ]).astype(np.int64)
    none = np.zeros(stream.shape[0], dtype=bool)
    zero = np.zeros(stream.shape[0], dtype=np.int64)
    expected = SetAssociativeCache(config).access_many(stream)
    assert np.array_equal(_level_hits(stream, none, zero, config), expected)
    assert list(expected[[1401, 2902, 4103]]) == [True, True, False]


def test_overlapping_no_allocate_level_walks_the_oracle(monkeypatch):
    """Loaded-and-stored lines under write-no-allocate: the one fallback."""
    config = CacheConfig(size_bytes=1024, line_bytes=128, associativity=2,
                         write_allocate=False)
    addresses = np.array([0, 0, 128, 0], dtype=np.int64)
    is_store = np.array([True, False, False, True])
    zero = np.zeros(4, dtype=np.int64)
    calls = []
    walk = SetAssociativeCache.access_many
    monkeypatch.setattr(
        SetAssociativeCache, "access_many",
        lambda self, *args: calls.append(1) or walk(self, *args))
    # Store misses (no fill), load fills, the second store hits.
    assert list(_level_hits(addresses, is_store, zero, config)) == [
        False, False, False, True]
    assert calls == [1]
    _level_hits(addresses + np.where(is_store, 4096, 0), is_store, zero,
                config)
    assert calls == [1]              # disjoint lines: solved in batch


HIERARCHY_CONFIGS = {
    "v100": v100_config,
    "nvprof": nvprof_config,
    "mi100": mi100_config,
}


@st.composite
def hierarchy_traces(draw):
    """(config, loads, stores, atomic) small enough for the oracle."""
    make = HIERARCHY_CONFIGS[draw(st.sampled_from(sorted(HIERARCHY_CONFIGS)))]
    config = make(simulated_sms=draw(st.sampled_from((1, 2, 4))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # One L1 set row apart, lines pile up in a single L1 set and spill
    # to the L2; one line apart they stay L1-resident.
    stride = draw(st.sampled_from((1, config.l1.num_sets)))
    universe = draw(st.sampled_from((3, 12, 48, 900)))

    def stream(count, region):
        lines = rng.integers(0, universe, size=count) * stride
        return draw(st.sampled_from(BASES)) + region + lines * 128

    loads = stream(draw(st.integers(0, 1500)), 0)
    overlap = draw(st.booleans())
    stores = stream(draw(st.sampled_from((0, 1, 700))),
                    0 if overlap else 1 << 40)
    return config, loads, stores, draw(st.booleans())


@STANDARD_SETTINGS
@given(hierarchy_traces())
def test_hierarchy_equals_reference_driver(trace):
    """Property: every field of the result == the per-SM cache walk."""
    config, loads, stores, atomic = trace
    got = simulate_hierarchy(loads, stores, config, atomic=atomic)
    want = reference_hierarchy(loads, stores, config, atomic=atomic)
    assert np.array_equal(got.levels, want.levels)
    assert got.levels.dtype == want.levels.dtype
    assert np.array_equal(got.is_store, want.is_store)
    assert (got.l1, got.l2) == (want.l1, want.l2)


# ---------------------------------------------------------------------------
# Shift invariance: why launch-local trace addresses change no result
# ---------------------------------------------------------------------------

@st.composite
def launch_traces(draw):
    """(config, loads, stores, atomic, shift) laid out like one launch.

    Operand ``i`` of a launch starts at ``(i + 1) << 40``; a recorder
    that numbered regions across launches put the same trace at a
    multiple of ``1 << 40`` further up, which ``shift`` stands for.
    """
    make = HIERARCHY_CONFIGS[draw(st.sampled_from(sorted(HIERARCHY_CONFIGS)))]
    config = make(simulated_sms=draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Strides of one line, of one L1 set row and of one L2 set row: the
    # last two pile lines into one set of the level whose set count is
    # not a power of two (150, 75 or 136 sets in the scaled L2s).
    stride = draw(st.sampled_from(
        (1, config.l1.num_sets, config.scaled_l2().num_sets)))
    universe = draw(st.sampled_from((3, 12, 48, 900)))

    def operand(count, index):
        lines = rng.integers(0, universe, size=count) * stride
        return ((index + 1) << 40) + lines * 128

    loads = np.concatenate([operand(draw(st.integers(0, 700)), index)
                            for index in range(draw(st.integers(1, 3)))])
    stores = operand(draw(st.sampled_from((0, 1, 700))),
                     draw(st.sampled_from((0, 3))))
    shift = draw(st.integers(1, 1 << 20)) << 40
    return config, loads, stores, draw(st.booleans()), shift


@STANDARD_SETTINGS
@given(launch_traces())
def test_hierarchy_is_shift_invariant(trace):
    """Property: moving a whole trace by ``k << 40`` bytes moves no hit.

    L1 set counts are powers of two, so the shift leaves every set index
    as it is; in the scaled L2 it rotates all set indices by one amount,
    which keeps every equality and conflict between lines.
    """
    config, loads, stores, atomic, shift = trace

    def solve(offset):
        return _hierarchy(loads + offset, stores + offset, config, atomic,
                          lambda key, build: build())

    got, want = solve(shift), solve(0)
    assert np.array_equal(got.levels, want.levels)
    assert got.levels.dtype == want.levels.dtype
    assert np.array_equal(got.is_store, want.is_store)
    assert (got.l1, got.l2) == (want.l1, want.l2)
    assert atomic_contention(stores + shift) == atomic_contention(stores)
