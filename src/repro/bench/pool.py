"""The supervised process pool behind the bench engine's cell fan-out.

:mod:`repro.bench.engine` runs each wave of work cells through one
:class:`WorkerPool` (``gsuite bench --jobs N``), which wraps
:class:`multiprocessing.Pool` with:

* a serial fast path — ``jobs=1`` (or a single task) degrades to plain
  in-process mapping, so callers never branch on parallelism themselves
  and serial runs stay exactly serial: no pool, no pickling, no
  supervision overhead;
* lazy creation — the underlying pool is created on the first parallel
  ``map`` and torn down by :meth:`close` / the context manager, so
  short-lived callers pay nothing and repeated maps reuse one set of
  workers;
* **supervision** — per-task deadlines (:attr:`task_timeout`),
  dead-worker detection (a crashed worker loses its task silently under
  raw :class:`multiprocessing.Pool`; here it is spotted and the task
  retried), bounded retries with exponential backoff, and a degradation
  ladder: a task that exhausts its retry budget runs in-process in the
  parent, and a pool that keeps needing resets is abandoned entirely —
  every remaining task runs in-process.  The run completes either way;
  :class:`DispatchReport` records what it took.  When there is nothing
  to police per task — no deadline configured, no fault plan armed —
  waves dispatch batched through ``map_async`` at the unsupervised
  pool's cost, with dead-worker detection (and whole-wave retry) as the
  only supervision left running.

Tasks are assumed **pure** (same input, same output), which is what
makes retries and degradation invisible in the results: a retried wave
is bit-for-bit the wave that would have run cleanly.  Mapped functions
must be module-level callables and tasks must pickle, exactly as
:mod:`multiprocessing` requires on every start method.

Application exceptions raised by the mapped function propagate to the
caller unchanged, exactly like ``Pool.map`` — they are deterministic
failures, not transient infrastructure ones, so retrying them would
just repeat the error.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle
import time
from dataclasses import dataclass, fields
from typing import Callable, Iterable, List, Optional

from repro.errors import ConfigError, TaskTimeoutError, WorkerError
from repro.faults import active_faults

__all__ = ["WorkerPool", "DispatchReport"]

#: How often the parent re-checks a pending result for timeout /
#: dead-worker conditions.  Collection latency for a finished task is
#: at most this; the check itself is a handful of attribute reads.
_POLL_SECONDS = 0.05

#: Backoff is capped so a long retry chain degrades promptly instead of
#: sleeping its way through the budget.
_BACKOFF_CAP_SECONDS = 1.0


@dataclass
class DispatchReport:
    """Structured account of one pool's dispatch activity.

    ``tasks`` counts results produced by supervised (pooled) maps;
    ``in_process`` counts tasks that took the serial fast path.  The
    remaining counters are the supervision events: ``dispatched``
    attempts shipped to workers, and how many of them were retried,
    timed out, lost to worker deaths, or failed their result checksum.
    ``degraded_tasks`` ran in the parent after exhausting retries (or
    after the pool itself was abandoned); ``pool_resets`` counts
    terminate-and-respawn cycles.
    """

    tasks: int = 0
    in_process: int = 0
    dispatched: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    corrupt_results: int = 0
    degraded_tasks: int = 0
    pool_resets: int = 0
    backoff_seconds: float = 0.0

    @property
    def faulted(self) -> bool:
        """Whether any supervision event fired (clean runs stay False)."""
        return bool(self.retries or self.timeouts or self.worker_deaths
                    or self.corrupt_results or self.degraded_tasks
                    or self.pool_resets)

    def merge(self, other: "DispatchReport") -> None:
        """Accumulate another report into this one (for multi-pool runs)."""
        for field in fields(self):
            setattr(self, field.name,
                    getattr(self, field.name) + getattr(other, field.name))

    def to_dict(self) -> dict:
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def summary(self) -> str:
        """One human line, e.g. for the bench engine's summary."""
        head = (f"{self.tasks} pooled / {self.in_process} in-process "
                f"task(s), {self.dispatched} attempt(s)")
        if not self.faulted:
            return head + ", clean"
        return (head + f", {self.retries} retried, {self.timeouts} timed out, "
                f"{self.worker_deaths} worker death(s), "
                f"{self.corrupt_results} corrupt result(s), "
                f"{self.degraded_tasks} degraded, "
                f"{self.pool_resets} pool reset(s)")


class _CorruptResult(Exception):
    """Internal: a pooled result failed its transport checksum."""


def _run_task(payload):
    """Worker-side wrapper: inject faults, run the task, seal the result.

    ``payload`` is ``(fn, task, key)``.  With no fault plan active this
    is a near-transparent call — the result rides back untouched under a
    ``"raw"`` tag.  With faults active, the crash/hang sites fire first
    (keyed on ``key``, so retries re-decide deterministically), then the
    result is pickled and checksummed worker-side; the ``corrupt_result``
    site garbles the transported bytes so the parent's verification
    fails exactly as silent transport corruption would.
    """
    fn, task, key, attempt = payload
    plan = active_faults()
    if plan is None:
        return ("raw", fn(task))
    plan.maybe_crash(key, attempt)
    plan.maybe_hang(key, attempt)
    result = fn(task)
    blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(blob).hexdigest()
    if plan.corrupt_result(key, attempt):
        blob = blob[:-1] + bytes([blob[-1] ^ 0xFF])
    return ("blob", blob, digest)


class WorkerPool:
    """A lazily-created, supervised process pool with a serial fast path.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` means in-process execution: ``map``
        simply calls the function on each task in order.
    task_timeout:
        Per-task deadline in seconds, measured while the parent waits on
        that task.  ``None`` (default) waits forever — but dead workers
        are still detected and their tasks retried.
    max_retries:
        Redispatch budget per task before it degrades to in-process
        execution (or raises, with ``degrade=False``).
    backoff:
        Base of the exponential backoff slept between retry waves
        (``backoff * 2**wave``, capped at 1 s).  ``0`` disables sleeping.
    reset_limit:
        Pool terminate-and-respawn cycles tolerated before the pool is
        abandoned and every remaining task runs in-process.
    degrade:
        When ``False``, a task that exhausts its retries raises
        :class:`~repro.errors.WorkerError` /
        :class:`~repro.errors.TaskTimeoutError` instead of degrading.
    """

    def __init__(self, jobs: int = 1, task_timeout: Optional[float] = None,
                 max_retries: int = 2, backoff: float = 0.05,
                 reset_limit: int = 3, degrade: bool = True):
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if task_timeout is not None and task_timeout <= 0:
            raise ConfigError(
                f"task_timeout must be positive or None, got {task_timeout}")
        if max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {max_retries}")
        if reset_limit < 1:
            raise ConfigError(f"reset_limit must be >= 1, got {reset_limit}")
        self.jobs = int(jobs)
        self.task_timeout = task_timeout
        self.max_retries = int(max_retries)
        self.backoff = float(backoff)
        self.reset_limit = int(reset_limit)
        self.degrade = bool(degrade)
        self.report = DispatchReport()
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._forked = False
        self._degraded = False
        self._waves = 0

    # -- mapping -----------------------------------------------------------
    def map(self, fn: Callable, tasks: Iterable, chunksize: int = 1) -> List:
        """``[fn(t) for t in tasks]``, fanned across workers when it pays.

        Order of results always matches task order.  A single task (or
        ``jobs=1``) runs in-process even when a pool exists, so trivial
        waves never pay dispatch overhead.  ``chunksize`` is kept for
        interface compatibility; supervision dispatches per task.
        """
        del chunksize
        tasks = list(tasks)
        if self.jobs > 1 and len(tasks) > 1 and not self._degraded:
            if self.task_timeout is None and active_faults() is None:
                return self._map_wave(fn, tasks)
            return self._map_supervised(fn, tasks)
        self.report.in_process += len(tasks)
        return [fn(task) for task in tasks]

    def _map_wave(self, fn: Callable, tasks: List) -> List:
        """Fast path: one batched dispatch per wave (seed-equivalent cost).

        With no per-task deadline and no armed fault plan there is
        nothing to police per task, so the wave ships through
        ``map_async`` exactly as the unsupervised pool shipped it —
        per-task ``apply_async`` bookkeeping costs about a millisecond
        per task, batched submission costs nothing.  Dead workers are
        still detected while waiting; recovery re-dispatches the whole
        wave (tasks are pure, so recomputing already-finished tasks is
        invisible in the results), bounded by ``max_retries`` wave
        attempts before degrading to in-process execution.
        """
        report = self.report
        wave_attempt = 0
        while True:
            pool = self._ensure_pool()
            snapshot = self._worker_pids()
            handle = pool.map_async(fn, tasks, chunksize=1)
            report.dispatched += len(tasks)
            died = False
            while not died:
                try:
                    results = handle.get(_POLL_SECONDS)
                except multiprocessing.TimeoutError:
                    died = self._worker_died(snapshot)
                    continue
                report.tasks += len(tasks)
                return results
            # A worker died mid-wave; the survivors' results are locked
            # inside the incomplete MapResult, so the wave re-dispatches
            # whole after a pool reset.
            report.worker_deaths += 1
            self._reset_pool()
            wave_attempt += 1
            if not self._degraded and wave_attempt <= self.max_retries:
                report.retries += len(tasks)
                if self.backoff > 0:
                    delay = min(self.backoff * (2 ** (wave_attempt - 1)),
                                _BACKOFF_CAP_SECONDS)
                    time.sleep(delay)
                    report.backoff_seconds += delay
                continue
            if not self.degrade:
                raise WorkerError(
                    f"a worker died on each of {wave_attempt} wave "
                    f"attempt(s) and degradation is disabled")
            results = [fn(task) for task in tasks]
            report.degraded_tasks += len(tasks)
            report.tasks += len(tasks)
            return results

    def _map_supervised(self, fn: Callable, tasks: List) -> List:
        report = self.report
        results: dict = {}
        attempts = {index: 0 for index in range(len(tasks))}
        pending = list(range(len(tasks)))
        wave = self._waves
        self._waves += 1
        retry_round = 0
        while pending:
            if self._degraded:
                for index in pending:
                    results[index] = fn(tasks[index])
                report.degraded_tasks += len(pending)
                report.tasks += len(pending)
                pending = []
                break
            pool = self._ensure_pool()
            snapshot = self._worker_pids()
            handles = {
                index: pool.apply_async(
                    _run_task,
                    ((fn, tasks[index],
                      f"{wave}:{index}:{attempts[index]}", attempts[index]),))
                for index in pending
            }
            report.dispatched += len(pending)
            failed: List[int] = []   # uncollected this round: attempt += 1
            abandon = False
            for index in pending:
                if abandon:
                    # The pool is about to be reset; salvage anything
                    # already finished, resubmit the rest.
                    try:
                        if handles[index].ready():
                            results[index] = self._unwrap(handles[index].get(0))
                            report.tasks += 1
                        else:
                            failed.append(index)
                    except _CorruptResult:
                        report.corrupt_results += 1
                        failed.append(index)
                    continue
                try:
                    results[index] = self._collect(handles[index], snapshot)
                    report.tasks += 1
                except _CorruptResult:
                    report.corrupt_results += 1
                    failed.append(index)
                except TaskTimeoutError:
                    report.timeouts += 1
                    failed.append(index)
                    abandon = True   # the worker slot is still wedged
                except WorkerError:
                    report.worker_deaths += 1
                    failed.append(index)
                    abandon = True   # sibling in-flight work is suspect
            if abandon:
                self._reset_pool()
            # Every uncollected task advances its attempt counter — the
            # fault plan keys decisions on it, so redispatch after a pool
            # reset deterministically re-decides rather than deterministic-
            # ally repeating, and retry work per map call stays bounded by
            # max_retries rounds.
            retry: List[int] = []
            for index in failed:
                attempts[index] += 1
                if attempts[index] <= self.max_retries:
                    retry.append(index)
                    report.retries += 1
                    continue
                if not self.degrade:
                    raise WorkerError(
                        f"task {index} failed {attempts[index]} attempt(s) "
                        f"and degradation is disabled")
                results[index] = fn(tasks[index])
                report.degraded_tasks += 1
                report.tasks += 1
            pending = retry
            if pending and self.backoff > 0:
                delay = min(self.backoff * (2 ** retry_round),
                            _BACKOFF_CAP_SECONDS)
                retry_round += 1
                time.sleep(delay)
                report.backoff_seconds += delay
        return [results[index] for index in range(len(tasks))]

    def _collect(self, handle, snapshot):
        """Wait for one result, policing the deadline and worker health."""
        deadline = (None if self.task_timeout is None
                    else time.monotonic() + self.task_timeout)
        while True:
            try:
                value = handle.get(_POLL_SECONDS)
            except multiprocessing.TimeoutError:
                if self._worker_died(snapshot):
                    raise WorkerError(
                        "a pool worker died while its task was in flight"
                    ) from None
                if deadline is not None and time.monotonic() >= deadline:
                    raise TaskTimeoutError(
                        f"task exceeded its {self.task_timeout:g}s deadline"
                    ) from None
                continue
            return self._unwrap(value)

    @staticmethod
    def _unwrap(value):
        """Open a worker result, verifying the transport checksum if sealed."""
        if value[0] == "raw":
            return value[1]
        _, blob, digest = value
        if hashlib.sha256(blob).hexdigest() != digest:
            raise _CorruptResult
        return pickle.loads(blob)

    # -- pool lifecycle ----------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            self._pool = multiprocessing.Pool(processes=self.jobs)
        self._forked = True
        return self._pool

    def _worker_pids(self):
        procs = getattr(self._pool, "_pool", None) or ()
        return {proc.pid for proc in procs}

    def _worker_died(self, snapshot) -> bool:
        """Whether any worker from ``snapshot`` is gone or has exited.

        ``multiprocessing.Pool`` silently respawns crashed workers (and
        loses their in-flight tasks), so death shows up either as an
        exit code on a still-listed process or as a changed pid set.
        """
        procs = getattr(self._pool, "_pool", None) or ()
        if any(proc.exitcode is not None for proc in procs):
            return True
        return {proc.pid for proc in procs} != snapshot

    def _reset_pool(self) -> None:
        """Terminate the pool; degrade permanently past the reset budget."""
        self.report.pool_resets += 1
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        if self.report.pool_resets >= self.reset_limit:
            self._degraded = True

    @property
    def forked(self) -> bool:
        """Whether any ``map`` so far actually ran on worker processes."""
        return self._forked

    @property
    def degraded(self) -> bool:
        """Whether the pool was abandoned for in-process execution."""
        return self._degraded

    def close(self) -> None:
        """Tear down the worker processes gracefully (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def terminate(self) -> None:
        """Tear down the worker processes immediately (idempotent).

        Unlike :meth:`close`, this never waits for in-flight tasks — the
        right teardown when an exception is unwinding and a worker may
        be wedged.
        """
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is not None:
            self.terminate()
        else:
            self.close()
