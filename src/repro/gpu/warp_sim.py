"""Cycle-level SM / warp-scheduler simulation.

Simulates one *representative SM* executing a batch of resident warps
under a greedy-then-oldest scheduler with a scoreboard, an instruction
fetch stage of bounded bandwidth, and per-access memory latencies taken
from the cache-hierarchy simulation.  Every warp executes the same
repeating instruction pattern derived from the launch's instruction mix,
so the *composition* of the stream matches what the kernel actually does
while the cycle count stays bounded.

The scheduler is event-driven in two ways.  Cycles on which no warp is
eligible are skipped in bulk (stall reasons accumulate with the skipped
weight), so kernels dominated by 400-cycle DRAM waits simulate quickly.
And an iteration touches only the warps whose state can change on it:
waiting warps sleep in a heap keyed by the cycle they become ready and
are charged to their stall reason through one count per reason, eligible
warps wait in a sorted pool that greedy-then-oldest selection takes the
lowest indices from, and only warps inside their instruction-fetch gap
(or just woken) are walked.  ``docs/architecture.md`` ("GPU simulator")
states the invariants of the three populations.

The counters are bit-identical to the loop this replaced, which walked
every resident warp on every iteration; that loop lives on as
``tests/gpu/reference_warp_sim.py`` and ``tests/gpu/test_warp_sim.py``
compares whole outputs against it.  Identity needs the same *iteration
cycles*, not just the same totals: a warp's promote step tests
``completion > cycle`` against the cycle of the iteration it runs on.

Outputs are the two distributions the paper reports from GPGPU-Sim:

* per-warp-cycle issue-stall reasons (Fig. 6): why each active warp was
  not eligible on each cycle;
* per-SM-cycle occupancy states (Fig. 7): whether the SM issued (and how
  many lanes were active), was stalled on dependencies, or idle.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.gpu.config import GPUConfig
from repro.gpu.metrics import OCCUPANCY_STATES, STALL_REASONS

__all__ = ["WarpSimOutput", "build_pattern", "simulate_warps"]

#: Instruction classes inside the simulator.
_MEM, _ALU, _CTL = 0, 1, 2


@dataclass
class WarpSimOutput:
    """Raw counters from one representative-SM simulation."""

    cycles: int
    issued: int
    stall_counts: Dict[str, int]
    occupancy_counts: Dict[str, int]
    completed: bool   # all warps retired before the cycle cap


def build_pattern(mem_fraction: float, control_fraction: float,
                  length: int = 64) -> List[int]:
    """Build a repeating instruction-class pattern.

    Memory and control instructions are spread evenly through the window
    (stride placement) the way compiled kernels interleave address math
    with loads, rather than clumping all loads together.
    """
    if not 0.0 <= mem_fraction <= 1.0:
        raise SimulationError(f"mem_fraction out of range: {mem_fraction}")
    if not 0.0 <= control_fraction <= 1.0:
        raise SimulationError(f"control_fraction out of range: {control_fraction}")
    pattern = [_ALU] * length
    mem_slots = min(length, int(round(mem_fraction * length)))
    ctl_slots = min(length - mem_slots, int(round(control_fraction * length)))
    if mem_slots:
        stride = length / mem_slots
        for i in range(mem_slots):
            pattern[int(i * stride)] = _MEM
    if ctl_slots:
        stride = length / ctl_slots
        for i in range(ctl_slots):
            slot = (int(i * stride) + 1) % length
            # Find the next non-memory slot so mem density is preserved.
            for probe in range(length):
                candidate = (slot + probe) % length
                if pattern[candidate] == _ALU:
                    pattern[candidate] = _CTL
                    break
    return pattern


def simulate_warps(config: GPUConfig, resident_warps: int,
                   instructions_per_warp: int, pattern: Sequence[int],
                   mem_latencies: np.ndarray, atomic: bool = False,
                   contention: float = 0.0,
                   active_lanes: int = 32) -> WarpSimOutput:
    """Run the representative-SM cycle loop.

    Parameters
    ----------
    config:
        GPU timing parameters.
    resident_warps:
        Warps co-resident on the SM (R).
    instructions_per_warp:
        Dynamic instructions each warp executes before retiring.
    pattern:
        Repeating instruction-class sequence from :func:`build_pattern`.
    mem_latencies:
        Per-access service latencies (cycles) from the cache simulation;
        consumed round-robin, offset per warp to decorrelate streams.
    atomic:
        Whether memory operations carry an atomic read-modify-write;
        contended atomics serialize and appear as Synchronization stalls.
    contention:
        Fraction in [0, 1] of atomic operations that collide (derived
        from duplicate destinations in the store trace).
    active_lanes:
        SIMT lanes doing useful work per issue — selects the W8/W20/W32
        occupancy bucket.

    Returns
    -------
    WarpSimOutput
        Cycle count and the two state-count dictionaries.
    """
    if resident_warps <= 0:
        raise SimulationError(f"resident_warps must be positive: {resident_warps}")
    if instructions_per_warp <= 0:
        raise SimulationError(
            f"instructions_per_warp must be positive: {instructions_per_warp}"
        )
    if not pattern:
        raise SimulationError("instruction pattern must be non-empty")

    lat_mem = np.asarray(mem_latencies, dtype=np.int64)
    if lat_mem.shape[0] == 0:
        lat_mem = np.array([config.l1_latency], dtype=np.int64)
    lat_list = lat_mem.tolist()
    num_lat = len(lat_list)

    sync_extra = int(config.atomic_penalty * min(1.0, max(0.0, contention))) \
        if atomic else 0

    R = resident_warps
    ipw = instructions_per_warp
    pat_len = len(pattern)
    # The class of the instruction at every pc a warp reaches.
    classes = (list(pattern) * (ipw // pat_len + 1))[:ipw]
    issue_width = config.issue_width
    alu_lat = max(1, config.alu_latency)
    ctl_lat = max(1, config.sfu_latency)
    fetch_gap = 1 + max(0, config.fetch_latency)
    # A load's value is consumed `use_distance` instructions later.
    # Compilers hoist loads roughly two load-strides ahead of their uses,
    # so the window adapts to how dense the kernel's loads are; each warp
    # sustains up to `mlp` outstanding requests before the load/store
    # unit back-pressures.
    mem_slots_in_pattern = sum(1 for c in pattern if c == _MEM)
    load_stride = pat_len / max(1, mem_slots_in_pattern)
    use_distance = int(min(32, max(4, round(2 * load_stride))))
    mlp = 8

    reason_index = {name: i for i, name in enumerate(STALL_REASONS)}
    R_MEM = reason_index["MemoryDependency"]
    R_EXE = reason_index["ExecutionDependency"]
    R_SYN = reason_index["Synchronization"]
    # Wait reasons are charged through this list (a warp's reason is an
    # index into it); the other three reasons are plain counters below.
    stall_counts = [0] * len(STALL_REASONS)

    # Per-warp state (plain lists: this loop is the simulator hot path).
    ready = [0] * R                  # cycle at which the warp may issue
    wait_kind = [R_EXE] * R          # reason charged while ready > cycle:
                                     # only ever R_EXE, R_MEM or R_SYN
    pc = [0] * R                     # instructions completed
    fetched_at = [0] * R             # cycle at which next instr is available
    pending_sync = [0] * R           # extra atomic serialization to apply
    mem_cursor = list(range(R))      # per-warp offset into latency stream
    # Outstanding loads per warp: list of (use_pc, completion_cycle).
    inflight: List[List] = [[] for _ in range(R)]

    # The three populations of live warps (docs/architecture.md, "GPU
    # simulator").  Every live warp is in exactly one of them.
    #
    # * ``sleepers``: heap of ``ready << shift | warp`` keys (ordered
    #   exactly like ``(ready, warp)`` pairs, as ``warp < 1 << shift``)
    #   with ready > cycle and ready >= fetched_at, so the warp's gate is
    #   ``ready`` and nothing about it changes before then;
    #   ``asleep[kind]`` counts them per wait reason and charges them in
    #   aggregate.
    # * ``pool``: sorted indices of eligible warps whose promote step is
    #   a no-op until they issue (no pending_sync, no due in-flight head).
    # * ``scan``: warps still inside their fetch gap (fetched_at > cycle
    #   and fetched_at > ready) plus the sleepers that woke this cycle;
    #   only these are walked, and only they run the promote step.
    shift = R.bit_length()
    mask = (1 << shift) - 1
    sleepers: List[int] = []
    asleep = [0] * len(STALL_REASONS)
    pool = list(range(R))
    in_pool = [True] * R
    scan: List[int] = []

    issued_total = 0
    issuing_cycles = 0
    not_selected = 0
    fetch_stalls = 0
    stall_cycles = 0
    idle_cycles = 0
    live = R
    cycle = 0
    last_issued = 0
    max_cycles = config.max_cycles

    while live > 0 and cycle < max_cycles:
        wake = (cycle + 1) << shift
        while sleepers and sleepers[0] < wake:
            w = heappop(sleepers) & mask
            asleep[wait_kind[w]] -= 1
            scan.append(w)

        # Promote finished atomic waits into their serialization phase,
        # surface scoreboard (use-of-load) dependencies, and re-home each
        # scanned warp.  One promote step per warp per iteration: whether
        # `completion > cycle` holds depends on the cycle it runs at.
        if scan:
            gapped = []
            for w in scan:
                until = ready[w]
                if until <= cycle:
                    if pending_sync[w]:
                        until = ready[w] = cycle + pending_sync[w]
                        wait_kind[w] = R_SYN
                        pending_sync[w] = 0
                    else:
                        queue = inflight[w]
                        if queue and queue[0][0] <= pc[w]:
                            completion = queue.pop(0)[1]
                            if completion > cycle:
                                until = ready[w] = completion
                                wait_kind[w] = R_MEM
                fetched = fetched_at[w]
                if fetched > cycle and fetched > until:
                    gapped.append(w)
                elif until > cycle:
                    heappush(sleepers, until << shift | w)
                    asleep[wait_kind[w]] += 1
                else:
                    insort(pool, w)
                    in_pool[w] = True
            scan = gapped

        # Nothing eligible: fast-forward to the next gate.  Otherwise
        # this is an issuing cycle.  Either way the waiting warps are
        # charged before the issue stage moves anything, and a skip
        # charges the reason a warp holds at its start for the whole
        # span (the oracle's behaviour, pinned in the tests).
        if pool:
            delta = 1
        else:
            gate = sleepers[0] >> shift if sleepers else max_cycles
            for w in scan:
                if fetched_at[w] < gate:
                    gate = fetched_at[w]
            delta = min(gate, max_cycles) - cycle
        stall_counts[R_MEM] += asleep[R_MEM] * delta
        stall_counts[R_EXE] += asleep[R_EXE] * delta
        stall_counts[R_SYN] += asleep[R_SYN] * delta
        dependency_wait = asleep[R_MEM] > 0 or asleep[R_SYN] > 0
        for w in scan:
            if ready[w] > cycle:
                kind = wait_kind[w]
                stall_counts[kind] += delta
                if kind != R_EXE:
                    dependency_wait = True
            else:
                fetch_stalls += delta
        if not pool:
            if dependency_wait:
                stall_cycles += delta
            else:
                idle_cycles += delta
            cycle += delta
            continue

        # Issue stage: greedy (last issuer first), then oldest eligible.
        if in_pool[last_issued]:
            pool.remove(last_issued)
            order = [last_issued] + pool[:issue_width - 1]
            del pool[:issue_width - 1]
        else:
            order = pool[:issue_width]
            del pool[:issue_width]
        for w in order:
            in_pool[w] = False
            at = pc[w]
            cls = classes[at]
            if cls == _MEM:
                queue = inflight[w]
                if len(queue) >= mlp:
                    # LSU back-pressure: wait for the oldest request.
                    completion = queue.pop(0)[1]
                    if completion > cycle:
                        ready[w] = completion
                        wait_kind[w] = R_MEM
                        heappush(sleepers, completion << shift | w)
                        asleep[R_MEM] += 1
                        stall_counts[R_MEM] += 1
                        continue
                cursor = mem_cursor[w]
                latency = lat_list[cursor % num_lat]
                mem_cursor[w] = cursor + R
                # The load issues without blocking; its *value* is needed
                # `use_distance` instructions later (scoreboard model).
                queue.append((at + use_distance, cycle + latency))
                until = cycle + 1
                if sync_extra:
                    pending_sync[w] = sync_extra
                    wait_kind[w] = R_SYN
            elif cls == _CTL:
                until = cycle + ctl_lat
                wait_kind[w] = R_EXE
            else:
                until = cycle + alu_lat
                wait_kind[w] = R_EXE
            ready[w] = until
            at += 1
            pc[w] = at
            fetched = fetched_at[w] = cycle + fetch_gap
            issued_total += 1
            last_issued = w
            if at >= ipw:
                live -= 1
            elif until >= fetched:
                heappush(sleepers, until << shift | w)
                asleep[wait_kind[w]] += 1
            else:
                scan.append(w)

        not_selected += len(pool)
        issuing_cycles += 1
        cycle += 1

    counts = dict(zip(STALL_REASONS, stall_counts))
    counts["InstructionIssued"] = issued_total
    counts["InstructionFetch"] = fetch_stalls
    counts["NotSelected"] = not_selected
    occupancy = {state: 0 for state in OCCUPANCY_STATES}
    occupancy["Stall"] = stall_cycles
    occupancy["Idle"] = idle_cycles
    if active_lanes <= 8:
        occupancy["W8"] = issuing_cycles
    elif active_lanes <= 20:
        occupancy["W20"] = issuing_cycles
    else:
        occupancy["W32"] = issuing_cycles
    return WarpSimOutput(
        cycles=cycle,
        issued=issued_total,
        stall_counts=counts,
        occupancy_counts=occupancy,
        completed=live == 0,
    )
