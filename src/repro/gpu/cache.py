"""Set-associative cache simulation and the two-level hierarchy driver.

The cache is an exact LRU set-associative model processing line-granular
address streams (as produced by the kernel instrumentation).  The
hierarchy driver reproduces the *sampled multi-SM* arrangement described
in DESIGN.md: the interleaved load/store stream is chunked CTA-wise and
dealt round-robin to ``simulated_sms`` private L1s; the union of their
misses (in program order) feeds one shared, capacity-scaled L2.

The driver does not walk :class:`SetAssociativeCache` access by access.
Every level starts empty and sees its whole stream at once, so its hit
mask is solved with array operations from the LRU stack property
(:func:`_allocating_hits`); the stateful class is the public model, the
fallback for the one case the property does not cover
(:func:`_level_hits`) and the oracle the tests hold the solver to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.gpu.config import CacheConfig, GPUConfig

__all__ = [
    "CacheStats",
    "SetAssociativeCache",
    "HierarchyResult",
    "simulate_hierarchy",
    "launch_hierarchy",
    "LEVEL_L1",
    "LEVEL_L2",
    "LEVEL_DRAM",
]

#: Per-access service level codes.
LEVEL_L1 = 0
LEVEL_L2 = 1
LEVEL_DRAM = 2

#: Accesses per CTA chunk when dealing the trace across SM L1s.
_CTA_CHUNK = 64

#: Cells per look-back block of the batch solver (bounds its scratch
#: memory at a few MB whatever the trace length).
_LOOKBACK_CELLS = 1 << 16


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance."""

    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        """Hit fraction; 0.0 for an untouched cache."""
        return self.hits / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Accumulate another instance's counters into this one."""
        self.accesses += other.accesses
        self.hits += other.hits
        return self


class SetAssociativeCache:
    """Exact-LRU set-associative cache over line addresses.

    Replacement state is a move-to-front list per set (index 0 = LRU
    victim).  ``access_many`` is the hot path: it processes a whole
    address array with one Python-level loop, returning the per-access
    hit mask.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        self._sets: List[List[int]] = [[] for _ in range(config.num_sets)]

    def reset(self) -> None:
        """Drop all contents and counters."""
        self.stats = CacheStats()
        self._sets = [[] for _ in range(self.config.num_sets)]

    def access_many(self, addresses: np.ndarray,
                    is_store: Optional[np.ndarray] = None) -> np.ndarray:
        """Run ``addresses`` (byte addresses) through the cache in order.

        ``is_store`` marks write accesses; with ``write_allocate=False``
        a write miss bypasses the cache (no fill) — it still counts as an
        access and a miss.

        Returns a boolean hit mask aligned with ``addresses``.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        n = addresses.shape[0]
        hits = np.zeros(n, dtype=bool)
        if n == 0:
            return hits
        lines = addresses // self.config.line_bytes
        set_ids = (lines % self.config.num_sets).tolist()
        tags = lines.tolist()
        stores = (np.asarray(is_store, dtype=bool).tolist()
                  if is_store is not None else None)
        allocate_writes = self.config.write_allocate
        ways = self.config.associativity
        sets = self._sets
        hit_count = 0
        for i in range(n):
            entries = sets[set_ids[i]]
            tag = tags[i]
            if tag in entries:
                hit_count += 1
                hits[i] = True
                # Move to MRU position.
                entries.remove(tag)
                entries.append(tag)
            else:
                if stores is not None and stores[i] and not allocate_writes:
                    continue  # write-no-allocate: no fill on store miss
                if len(entries) >= ways:
                    entries.pop(0)
                entries.append(tag)
        self.stats.accesses += n
        self.stats.hits += hit_count
        return hits


@dataclass
class HierarchyResult:
    """Outcome of running one kernel trace through L1+L2.

    ``levels`` gives, per access in interleaved program order, where the
    access was served (:data:`LEVEL_L1` / :data:`LEVEL_L2` /
    :data:`LEVEL_DRAM`).  ``is_store`` aligns with ``levels``.
    """

    levels: np.ndarray
    is_store: np.ndarray
    l1: CacheStats
    l2: CacheStats

    @property
    def dram_accesses(self) -> int:
        """Number of accesses that reached DRAM."""
        return int(np.count_nonzero(self.levels == LEVEL_DRAM))

    def latencies(self, config: GPUConfig) -> np.ndarray:
        """Per-access service latency in cycles under ``config``."""
        table = np.array(
            [config.l1_latency, config.l2_latency, config.dram_latency],
            dtype=np.int64,
        )
        return table[self.levels]


def _interleave(loads: np.ndarray, stores: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Merge load and store streams into approximate program order.

    Kernels emit loads and stores as separate arrays; a real kernel
    interleaves them per element.  Proportional positional merge restores
    that interleaving without per-kernel knowledge.
    """
    nl, ns = loads.shape[0], stores.shape[0]
    if nl == 0:
        return stores, np.ones(ns, dtype=bool)
    if ns == 0:
        return loads, np.zeros(nl, dtype=bool)
    pos_l = np.arange(nl, dtype=np.float64) / nl
    pos_s = np.arange(ns, dtype=np.float64) / ns
    merged = np.concatenate([loads, stores])
    is_store = np.concatenate([np.zeros(nl, dtype=bool), np.ones(ns, dtype=bool)])
    order = np.argsort(np.concatenate([pos_l, pos_s]), kind="stable")
    return merged[order], is_store[order]


def _lookback_hits(ranks: np.ndarray, prev: np.ndarray, nxt: np.ndarray,
                   ways: int) -> np.ndarray:
    """Decide reuses whose set-local gap is at least ``ways``.

    ``ranks`` are positions in the (cache instance, set)-major order,
    ``prev`` the position of each one's previous touch of its line and
    ``nxt[j]`` the position of the next touch of the line at ``j``.  A
    position ``j`` strictly between the two touches is the last touch of
    a distinct line there iff ``nxt[j]`` lies beyond the reuse, so the
    reuse hits iff fewer than ``ways`` such ``j`` exist.  Each row scans
    backwards in blocks of doubling width and leaves as soon as it has
    seen ``ways`` distinct lines or exhausted its gap, so a position is
    read by at most ``ways`` + 1 reuses plus one block of overshoot.
    """
    hits = np.zeros(ranks.shape[0], dtype=bool)
    rows = np.arange(ranks.shape[0])
    seen = np.zeros(ranks.shape[0], dtype=np.int64)
    end = ranks                       # scan resumes just below ``end``
    width = 2 * ways
    while rows.size:
        steps = np.arange(1, width + 1)
        chunk = max(1, _LOOKBACK_CELLS // width)
        for lo in range(0, rows.size, chunk):
            part = slice(lo, lo + chunk)
            cols = end[part, None] - steps
            live = cols > prev[part, None]
            beyond = nxt[np.where(live, cols, 0)] > ranks[part, None]
            seen[part] += np.count_nonzero(beyond & live, axis=1)
        end = end - width
        exhausted = end - 1 <= prev
        hits[rows[exhausted & (seen < ways)]] = True
        keep = ~exhausted & (seen < ways)
        rows, ranks, prev, seen, end = (
            rows[keep], ranks[keep], prev[keep], seen[keep], end[keep])
        width = min(2 * width, _LOOKBACK_CELLS)
    return hits


def _by_line(lines: np.ndarray) -> np.ndarray:
    """Positions sorted by line, equal lines in position order."""
    n = lines.shape[0]
    bits = n.bit_length()
    low = int(lines.min())
    if (int(lines.max()) - low) >> (63 - bits):
        # Lines too far apart to share an int64 with a position.
        return np.argsort(lines, kind="stable")
    # Sorting (line, position) packed into one value is several times
    # faster than an indirect stable sort of the lines.
    packed = np.sort(((lines - low) << bits) | np.arange(n))
    return packed & ((1 << bits) - 1)


def _allocating_hits(lines: np.ndarray, group: np.ndarray,
                     ways: int) -> np.ndarray:
    """Exact LRU hit mask of caches that start empty and fill on every miss.

    ``group`` identifies the (cache instance, set) each access falls in.
    By the LRU stack property an access hits iff its line was touched
    before and fewer than ``ways`` distinct lines of its group were
    touched since.  One stable sort lays every group's accesses out
    contiguously in program order; a second finds each line's previous
    and next touch.  Reuses closer than ``ways`` group-local accesses
    hit outright; only longer gaps count distinct lines.
    """
    n = lines.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.argsort(group, kind="stable")
    lines, group = lines[order], group[order]
    # A line lives in one set, so among equal lines the group-major
    # order keeps each cache's touches of it together.
    by_line = _by_line(lines)
    lines, group = lines[by_line], group[by_line]
    again = (lines[1:] == lines[:-1]) & (group[1:] == group[:-1])
    earlier, later = by_line[:-1][again], by_line[1:][again]
    prev = np.full(n, -1, dtype=np.int64)
    prev[later] = earlier
    reused = prev >= 0
    gap = np.arange(n) - prev - 1
    hits = reused & (gap < ways)
    far = np.flatnonzero(reused & (gap >= ways))
    if far.size:
        nxt = np.full(n, n, dtype=np.int64)
        nxt[earlier] = later
        hits[far] = _lookback_hits(far, prev[far], nxt, ways)
    out = np.empty(n, dtype=bool)
    out[order] = hits
    return out


def _any_in(values: np.ndarray, pool: np.ndarray) -> bool:
    """Whether some element of ``values`` occurs in ``pool``.

    A binary search in the sorted pool; ``np.isin`` merges both arrays
    with a stable sort, which costs several times more here.
    """
    if pool.shape[0] == 0:
        return False
    pool = np.sort(pool)
    at = np.minimum(np.searchsorted(pool, values), pool.shape[0] - 1)
    return bool((pool[at] == values).any())


def _level_hits(addresses: np.ndarray, is_store: np.ndarray,
                instance: np.ndarray, config: CacheConfig) -> np.ndarray:
    """Hit mask of one cache level that starts empty, over its whole stream.

    ``instance`` assigns each access to one of the level's private
    caches (all zeros for a shared level).  Equal, access for access, to
    running each instance's sub-stream through a fresh
    :class:`SetAssociativeCache`.
    """
    lines = addresses // config.line_bytes
    group = instance * config.num_sets + lines % config.num_sets
    if group.shape[0] and group.max() < 1 << 16:
        group = group.astype(np.uint16)     # radix-sorted by argsort
    if config.write_allocate or not is_store.any():
        return _allocating_hits(lines, group, config.associativity)
    hits = np.zeros(lines.shape[0], dtype=bool)
    loads = ~is_store
    if not _any_in(lines[is_store], lines[loads]):
        # No stored line is ever loaded, so none is ever filled: every
        # store misses and leaves no state, and the loads see a cache
        # that allocates on all it is shown.
        hits[loads] = _allocating_hits(lines[loads], group[loads],
                                       config.associativity)
        return hits
    # A store to a loaded line hits (and refreshes it) or bypasses
    # depending on what is resident: the stack property does not hold.
    for one in np.unique(instance):
        where = np.flatnonzero(instance == one)
        hits[where] = SetAssociativeCache(config).access_many(
            addresses[where], is_store[where])
    return hits


def _l1_hits(accesses: np.ndarray, is_store: np.ndarray, l1: CacheConfig,
             simulated_sms: int) -> np.ndarray:
    """L1 hit mask of an interleaved trace: the L2-independent stage.

    The trace is dealt in CTA-sized chunks round-robin across
    ``simulated_sms`` private L1 caches (preserving intra-chunk
    locality, spreading inter-chunk the way CTAs spread over SMs).
    ``is_store`` marks the accesses the write policy applies to.
    """
    n = accesses.shape[0]
    chunks = -(-n // _CTA_CHUNK)
    sm_of_access = np.repeat(np.arange(chunks) % simulated_sms,
                             _CTA_CHUNK)[:n]
    return _level_hits(accesses, is_store, sm_of_access, l1)


def _hierarchy(loads: np.ndarray, stores: np.ndarray, config: GPUConfig,
               atomic: bool, memo) -> HierarchyResult:
    """Both levels of one trace; ``memo(key, build)`` may keep the L1 mask."""
    if config.l1.line_bytes != config.l2.line_bytes:
        raise SimulationError("L1 and L2 line sizes must match")
    accesses, is_store = _interleave(np.asarray(loads, dtype=np.int64),
                                     np.asarray(stores, dtype=np.int64))
    # Atomic RMWs behave like allocating accesses in every level.
    policy_stores = np.zeros_like(is_store) if atomic else is_store
    # The mask alone is kept, not the interleaved trace: merging again
    # is cheap, and a launch that pinned its trace twice over would
    # fragment the heap the next recording allocates from.
    l1_hits = memo(
        ("l1_hits", config.l1, config.simulated_sms),
        lambda: _l1_hits(accesses, policy_stores, config.l1,
                         config.simulated_sms))
    levels = np.full(accesses.shape[0], LEVEL_DRAM, dtype=np.int8)
    levels[l1_hits] = LEVEL_L1
    # L1 misses, in program order, feed the shared L2.
    misses = np.flatnonzero(~l1_hits)
    l2_hits = _level_hits(
        accesses[misses], policy_stores[misses],
        np.zeros(misses.shape[0], dtype=np.int64), config.scaled_l2())
    levels[misses[l2_hits]] = LEVEL_L2
    return HierarchyResult(
        levels=levels, is_store=is_store,
        l1=CacheStats(accesses=accesses.shape[0],
                      hits=int(np.count_nonzero(l1_hits))),
        l2=CacheStats(accesses=misses.shape[0],
                      hits=int(np.count_nonzero(l2_hits))))


def simulate_hierarchy(loads: np.ndarray, stores: np.ndarray,
                       config: GPUConfig,
                       atomic: bool = False) -> HierarchyResult:
    """Simulate one kernel's memory trace through the cache hierarchy.

    The interleaved load/store stream goes through ``simulated_sms``
    private L1s (:func:`_l1_hits`); their misses, in program order, feed
    a shared L2 whose capacity is scaled to the simulated SM count.
    Both levels start empty and are solved over their whole stream at
    once, access for access what :class:`SetAssociativeCache` answers.

    ``atomic`` marks the store stream as atomic read-modify-writes, which
    allocate cache lines regardless of the write policy (GPUs resolve
    atomics in cache).
    """
    return _hierarchy(loads, stores, config, atomic,
                      lambda key, build: build())


def launch_hierarchy(launch, config: GPUConfig) -> HierarchyResult:
    """:func:`simulate_hierarchy` of one ``KernelLaunch``'s trace.

    The launch keeps its L1 hit mask, so a simulator and a profiler
    whose models share the L1 geometry and SM sampling walk the L1s once
    and feed their two L2 models the same miss stream.
    """
    return _hierarchy(launch.loads, launch.stores, config, launch.atomic,
                      launch.derived)
