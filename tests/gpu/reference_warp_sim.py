"""The parent commit's ``simulate_warps`` loop, kept as the differential oracle.

This is the scheduler ``repro.gpu.warp_sim`` shipped before it became
event-driven, copied verbatim (only the name changed): on every
iteration it walks all resident warps to promote, test eligibility and
account stalls.  ``tests/gpu/test_warp_sim.py`` asserts that the
production scheduler returns a ``WarpSimOutput`` equal to this one
field for field; do not "fix" or speed up this file.
"""

from typing import List, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.gpu.config import GPUConfig
from repro.gpu.metrics import OCCUPANCY_STATES, STALL_REASONS
from repro.gpu.warp_sim import _MEM, _CTL, WarpSimOutput


def reference_simulate_warps(config: GPUConfig, resident_warps: int,
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
    pat = list(pattern)
    pat_len = len(pat)
    issue_width = config.issue_width
    alu_lat = max(1, config.alu_latency)
    ctl_lat = max(1, config.sfu_latency)
    fetch_lat = max(0, config.fetch_latency)
    # A load's value is consumed `use_distance` instructions later.
    # Compilers hoist loads roughly two load-strides ahead of their uses,
    # so the window adapts to how dense the kernel's loads are; each warp
    # sustains up to `mlp` outstanding requests before the load/store
    # unit back-pressures.
    mem_slots_in_pattern = sum(1 for c in pattern if c == _MEM)
    load_stride = len(pattern) / max(1, mem_slots_in_pattern)
    use_distance = int(min(32, max(4, round(2 * load_stride))))
    mlp = 8

    # Per-warp state (plain lists: this loop is the simulator hot path).
    ready = [0] * R                  # cycle at which the warp may issue
    wait_kind = [1] * R              # STALL_REASONS index while waiting
    pc = [0] * R                     # instructions completed
    fetched_at = [0] * R             # cycle at which next instr is available
    pending_sync = [0] * R           # extra atomic serialization to apply
    mem_cursor = list(range(R))      # per-warp offset into latency stream
    # Outstanding loads per warp: list of (use_pc, completion_cycle).
    inflight: List[List] = [[] for _ in range(R)]

    reason_index = {name: i for i, name in enumerate(STALL_REASONS)}
    R_MEM = reason_index["MemoryDependency"]
    R_EXE = reason_index["ExecutionDependency"]
    R_ISS = reason_index["InstructionIssued"]
    R_FET = reason_index["InstructionFetch"]
    R_SYN = reason_index["Synchronization"]
    R_NSEL = reason_index["NotSelected"]
    stall_counts = [0] * len(STALL_REASONS)

    occ = {state: 0 for state in OCCUPANCY_STATES}
    if active_lanes <= 8:
        lane_bucket = "W8"
    elif active_lanes <= 20:
        lane_bucket = "W20"
    else:
        lane_bucket = "W32"

    issued_total = 0
    live = R
    cycle = 0
    last_issued = 0
    max_cycles = config.max_cycles
    BIG = 1 << 60

    while live > 0 and cycle < max_cycles:
        # Promote finished atomic waits into their serialization phase and
        # surface scoreboard (use-of-load) dependencies.
        for w in range(R):
            if pc[w] >= ipw:
                continue
            if pending_sync[w] > 0 and ready[w] <= cycle:
                ready[w] = cycle + pending_sync[w]
                wait_kind[w] = R_SYN
                pending_sync[w] = 0
                continue
            if ready[w] <= cycle and inflight[w]:
                use_pc, completion = inflight[w][0]
                if use_pc <= pc[w]:
                    inflight[w].pop(0)
                    if completion > cycle:
                        ready[w] = completion
                        wait_kind[w] = R_MEM

        # Determine eligibility and the next event horizon.
        eligible: List[int] = []
        next_event = BIG
        for w in range(R):
            if pc[w] >= ipw:
                continue
            gate = ready[w] if ready[w] > fetched_at[w] else fetched_at[w]
            if gate <= cycle:
                eligible.append(w)
            elif gate < next_event:
                next_event = gate

        if not eligible:
            # Fast-forward: nothing can issue until next_event.
            if next_event >= BIG:
                break  # no live warp has a future event; defensive
            delta = min(next_event, max_cycles) - cycle
            if delta <= 0:
                delta = 1
            dependency_wait = False
            for w in range(R):
                if pc[w] >= ipw:
                    continue
                if ready[w] > cycle:
                    stall_counts[wait_kind[w]] += delta
                    if wait_kind[w] == R_MEM or wait_kind[w] == R_SYN:
                        dependency_wait = True
                else:
                    stall_counts[R_FET] += delta
            occ["Stall" if dependency_wait else "Idle"] += delta
            cycle += delta
            continue

        # Issue stage: greedy (last issuer first), then oldest eligible.
        issued_flags = [False] * R
        issued_this_cycle = 0
        if last_issued in eligible:
            order = [last_issued] + [w for w in eligible if w != last_issued]
        else:
            order = eligible
        for w in order[:issue_width]:
            cls = pat[pc[w] % pat_len]
            if cls == _MEM:
                if len(inflight[w]) >= mlp:
                    # LSU back-pressure: wait for the oldest request.
                    _, completion = inflight[w].pop(0)
                    if completion > cycle:
                        ready[w] = completion
                        wait_kind[w] = R_MEM
                        continue
                cursor = mem_cursor[w]
                latency = lat_list[cursor % num_lat]
                mem_cursor[w] = cursor + R
                # The load issues without blocking; its *value* is needed
                # `use_distance` instructions later (scoreboard model).
                inflight[w].append((pc[w] + use_distance, cycle + latency))
                ready[w] = cycle + 1
                if sync_extra:
                    pending_sync[w] = sync_extra
                    wait_kind[w] = R_SYN
            elif cls == _CTL:
                ready[w] = cycle + ctl_lat
                wait_kind[w] = R_EXE
            else:
                ready[w] = cycle + alu_lat
                wait_kind[w] = R_EXE
            pc[w] += 1
            fetched_at[w] = cycle + 1 + fetch_lat
            issued_flags[w] = True
            issued_this_cycle += 1
            issued_total += 1
            last_issued = w
            if pc[w] >= ipw:
                live -= 1

        # Per-warp stall accounting for this issuing cycle.
        for w in range(R):
            if pc[w] >= ipw and not issued_flags[w]:
                continue
            if issued_flags[w]:
                stall_counts[R_ISS] += 1
            elif ready[w] > cycle:
                stall_counts[wait_kind[w]] += 1
            elif fetched_at[w] > cycle:
                stall_counts[R_FET] += 1
            else:
                stall_counts[R_NSEL] += 1

        occ[lane_bucket] += 1
        cycle += 1

    return WarpSimOutput(
        cycles=cycle,
        issued=issued_total,
        stall_counts={name: stall_counts[i] for i, name in enumerate(STALL_REASONS)},
        occupancy_counts=occ,
        completed=live == 0,
    )
