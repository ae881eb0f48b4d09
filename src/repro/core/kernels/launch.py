"""Kernel launch records and the instrumentation recorder.

Every core kernel (Table II) performs its NumPy computation and — when a
:class:`LaunchRecorder` is active — emits a :class:`KernelLaunch`
describing what an equivalent CUDA kernel would have done on the GPU:

* launch geometry (threads, warps);
* an :class:`InstructionMix` (FP32 / INT / load-store / control / other),
  derived from the kernel's actual operand shapes;
* a *memory access trace*: the cache-line addresses the kernel touches,
  generated from the real index arrays.  ``indexSelect`` over Cora's edge
  list produces Cora's locality; over LiveJournal's, LiveJournal's.

The GPU simulator and profiler (:mod:`repro.gpu`) consume these records;
they never re-execute the kernels.

Traces are line-granular (one address per 128-byte line per coalesced
warp access) and capped at ``sample_cap`` accesses with systematic
sampling, so Reddit-scale kernels stay tractable.  The applied sampling
fraction is stored on the record so consumers can rescale counts.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

__all__ = [
    "LINE_BYTES",
    "FLOAT_BYTES",
    "WARP_SIZE",
    "InstructionMix",
    "KernelLaunch",
    "LaunchRecorder",
    "record_launches",
    "active_recorder",
    "operand_bases",
    "row_lines",
    "sequential_lines",
    "sample_stride",
]

#: Cache-line size used for trace granularity (V100 L1/L2 line).
LINE_BYTES = 128
#: Bytes per float32 element.
FLOAT_BYTES = 4
#: Threads per warp on all NVIDIA architectures.
WARP_SIZE = 32

#: Virtual address-space stride between operand regions.  Large enough
#: that no operand of one kernel overlaps another's region.
_REGION_BYTES = 1 << 40


@dataclass
class InstructionMix:
    """Dynamic instruction counts by class (the paper's Fig. 5 taxonomy)."""

    fp32: float = 0.0
    int_ops: float = 0.0
    ldst: float = 0.0
    control: float = 0.0
    other: float = 0.0

    @property
    def total(self) -> float:
        """Total dynamic instructions."""
        return self.fp32 + self.int_ops + self.ldst + self.control + self.other

    def fractions(self) -> Dict[str, float]:
        """Normalised breakdown; all zeros when the kernel is empty."""
        total = self.total
        if total == 0:
            return {k: 0.0 for k in ("FP32", "INT", "Load/Store", "Control", "other")}
        return {
            "FP32": self.fp32 / total,
            "INT": self.int_ops / total,
            "Load/Store": self.ldst / total,
            "Control": self.control / total,
            "other": self.other / total,
        }


@dataclass
class KernelLaunch:
    """One recorded kernel invocation.

    ``loads`` / ``stores`` hold line-aligned byte addresses in the order a
    round-robin warp scheduler would issue them; ``sample_fraction`` is
    the fraction of logical accesses the trace retains (1.0 = exact).
    """

    kernel: str                      # canonical kernel name, e.g. "indexSelect"
    short_form: str                  # the paper's code: is / sc / sg / sp
    model: str                       # "MP" or "SpMM"
    threads: int
    mix: InstructionMix
    loads: np.ndarray
    stores: np.ndarray
    flops: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    duration_s: float = 0.0
    sample_fraction: float = 1.0
    atomic: bool = False             # scatter's reduction is atomic
    active_lanes: int = WARP_SIZE    # SIMT lanes doing useful work per issue
    tag: str = ""                    # free-form label (layer, phase)
    #: Legacy launches this fused launch stands in for, as
    #: ``"kernel:tag"`` strings in the order the unfused plan would have
    #: emitted them.  Empty for ordinary (unfused) launches.  This is
    #: the documented trace-fingerprint mapping of plan-level fusion:
    #: expanding every launch's ``replaces`` turns a fused trace back
    #: into the legacy ``(kernel, tag)`` sequence, which is what the
    #: fusion parity tests pin (see :func:`repro.plan.fusion.legacy_trace`).
    replaces: tuple = ()
    #: Epilogue carried by this launch (e.g. ``"relu"`` on an
    #: epilogue-carrying SGEMM); empty when none.
    epilogue: str = ""
    #: Results derived from the fields above — see :meth:`derived`.
    _derived: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    @property
    def warps(self) -> int:
        """Number of warps the launch geometry implies."""
        return max(1, math.ceil(self.threads / WARP_SIZE))

    def derived(self, key, build):
        """The value memoised under ``key``, built on first use.

        For pure functions of the record that more than one consumer
        needs — the simulator and the profiler both start from the same
        L1 walk of the trace.  ``key`` names the function and every
        parameter it takes from outside the record.  The launch owns
        the memo, so the values die with it; they are no part of the
        record (not in ``==``, ``repr``, :meth:`fingerprint`, a pickle
        or a ``dataclasses.replace`` copy), and arrays are handed out
        as read-only views, so an in-place write raises instead of
        corrupting the other consumer's input.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = _read_only(build())
            return value

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_derived"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._derived = {}

    def fingerprint(self) -> str:
        """Content hash of everything a simulator/profiler consumes.

        Two launches with the same fingerprint produce identical
        simulation results under the same GPU model, so persistent
        caches key per-launch results by it.  ``duration_s`` is
        deliberately excluded: wall-clock noise does not influence the
        simulated outcome.  Trace addresses are launch-local
        (:func:`operand_bases`), so the same kernel on the same operands
        has one fingerprint wherever it falls in a recording, and a
        repeated launch is a cache hit.
        """
        digest = hashlib.sha256()
        mix = self.mix
        head = (self.kernel, self.short_form, self.model, self.threads,
                mix.fp32, mix.int_ops, mix.ldst, mix.control, mix.other,
                self.flops, self.bytes_read, self.bytes_written,
                self.sample_fraction, self.atomic, self.active_lanes,
                self.tag, self.replaces, self.epilogue)
        digest.update(repr(head).encode())
        digest.update(np.ascontiguousarray(self.loads,
                                           dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(self.stores,
                                           dtype=np.int64).tobytes())
        return digest.hexdigest()


def _read_only(value):
    """``value`` with every array (also inside tuples) as a read-only view."""
    if isinstance(value, np.ndarray):
        value = value.view()
        value.setflags(write=False)
    elif isinstance(value, tuple):
        value = tuple(_read_only(item) for item in value)
    return value


class LaunchRecorder:
    """Collects :class:`KernelLaunch` records.

    One recorder is active at a time (they nest); kernels obtain it via
    :func:`active_recorder` and skip all trace work when none is active,
    so un-instrumented inference pays almost nothing.  The recorder
    holds no address state: trace addresses are launch-local
    (:func:`operand_bases`), so a kernel records the same trace
    whatever was recorded before it.
    """

    def __init__(self, sample_cap: int = 1_000_000):
        if sample_cap <= 0:
            raise ValueError(f"sample_cap must be positive, got {sample_cap}")
        self.sample_cap = int(sample_cap)
        self.launches: List[KernelLaunch] = []

    def emit(self, launch: KernelLaunch) -> None:
        """Append a finished launch record."""
        self.launches.append(launch)


_STACK: List[LaunchRecorder] = []


@contextmanager
def record_launches(sample_cap: int = 1_000_000) -> Iterator[LaunchRecorder]:
    """Context manager activating kernel instrumentation.

    Example
    -------
    >>> pipeline = GNNPipeline.from_params(model="gcn", dataset="cora")
    >>> built = pipeline.build()
    >>> with record_launches() as rec:
    ...     built.run()
    >>> [l.kernel for l in rec.launches]
    ['sgemm', 'fusedGatherScatter', 'sgemm', 'fusedGatherScatter']
    """
    recorder = LaunchRecorder(sample_cap=sample_cap)
    _STACK.append(recorder)
    try:
        yield recorder
    finally:
        _STACK.pop()


def active_recorder() -> Optional[LaunchRecorder]:
    """The innermost active recorder, or ``None`` when not instrumenting."""
    return _STACK[-1] if _STACK else None


# ---------------------------------------------------------------------------
# Trace-generation helpers (all vectorised, all line-granular)
# ---------------------------------------------------------------------------

def operand_bases(count: int) -> tuple:
    """Virtual base addresses of one launch's ``count`` operands.

    Operand ``i``, in the order the kernel names them, starts at
    ``(i + 1) << 40`` (region 0 stays null), so the bases are a
    function of the launch alone: two identical kernels record
    identical traces and share a fingerprint.
    """
    return tuple((i + 1) * _REGION_BYTES for i in range(count))


def sample_stride(count: int, cap: int) -> int:
    """Systematic-sampling stride keeping at most ``cap`` of ``count`` items."""
    if count <= cap:
        return 1
    return math.ceil(count / cap)


def row_lines(base: int, rows: np.ndarray, row_bytes: int) -> np.ndarray:
    """Line addresses touched when gathering whole rows of a 2-D operand.

    ``rows`` are the (possibly repeated, irregular) row indices actually
    dereferenced — e.g. ``edge_index[0]`` for an indexSelect.  Each row
    occupies ``row_bytes`` contiguous bytes; a coalesced warp access emits
    one address per 128-byte line the row overlaps.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0 or row_bytes <= 0:
        return np.empty(0, dtype=np.int64)
    starts = base + rows * np.int64(row_bytes)
    first_line = starts // LINE_BYTES
    last_line = (starts + row_bytes - 1) // LINE_BYTES
    lines_per_row = last_line - first_line + 1
    max_lines = int(lines_per_row.max())
    if max_lines == 1:
        return first_line * LINE_BYTES
    # Expand each row to its span of lines without a Python loop.
    offsets = np.arange(max_lines, dtype=np.int64)
    grid = first_line[:, None] + offsets[None, :]
    mask = offsets[None, :] < lines_per_row[:, None]
    return grid[mask] * LINE_BYTES


def sequential_lines(base: int, total_bytes: int, cap: int) -> np.ndarray:
    """Line addresses of one sequential sweep over ``total_bytes``.

    Used for streaming operands (writes of outputs, reads of dense
    inputs).  Sampled systematically when exceeding ``cap``.
    """
    if total_bytes <= 0:
        return np.empty(0, dtype=np.int64)
    num_lines = math.ceil(total_bytes / LINE_BYTES)
    stride = sample_stride(num_lines, cap)
    lines = np.arange(0, num_lines, stride, dtype=np.int64)
    return base + lines * LINE_BYTES
