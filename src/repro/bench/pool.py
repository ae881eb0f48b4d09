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
* **supervision** — one dispatch path, faults armed or not: every task
  ships on its own (``apply_async``, its result stored by a callback),
  and while the parent waits for the wave it polls for dead workers (a
  crashed worker loses its task silently under raw
  :class:`multiprocessing.Pool`).  On a death the finished
  results are kept, the pool is reset and only the uncollected tasks
  are re-dispatched.  The ladder: up to :data:`MAX_RETRIES` retries per
  task with exponential backoff from :data:`BACKOFF_SECONDS`; a task
  that exhausts them runs in-process in the parent; after
  :data:`RESET_LIMIT` resets the pool is abandoned and every remaining
  task runs in-process.  The run completes either way;
  :class:`DispatchReport` records what it took.

Tasks are assumed **pure** (same input, same output), which is what
makes retries and degradation invisible in the results: a retried task
is bit-for-bit the task that would have run cleanly.  Mapped functions
must be module-level callables and tasks must pickle, exactly as
:mod:`multiprocessing` requires on every start method.

Application exceptions raised by the mapped function propagate to the
caller unchanged, exactly like ``Pool.map`` — they are deterministic
failures, not transient infrastructure ones, so retrying them would
just repeat the error.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass, fields
from typing import Callable, Dict, Iterable, List, Optional

from repro.errors import ConfigError
from repro.faults import active_faults

__all__ = ["WorkerPool", "DispatchReport"]

#: How often the parent re-checks a pending result for a dead worker.
#: Collection latency for a finished task is unaffected (``get`` returns
#: as soon as it lands); the check itself is a handful of attribute reads.
_POLL_SECONDS = 0.05

#: Re-dispatches per task before it degrades to in-process execution.
MAX_RETRIES = 2

#: Sleep before the first retry round, doubling each further round.
BACKOFF_SECONDS = 0.05

#: Pool terminate-and-respawn cycles tolerated before the pool is
#: abandoned and every remaining task runs in-process.
RESET_LIMIT = 3


@dataclass
class DispatchReport:
    """Structured account of one pool's dispatch activity.

    ``tasks`` counts results produced by pooled maps; ``in_process``
    counts tasks that took the serial fast path.  The remaining counters
    are the supervision events: ``dispatched`` attempts shipped to
    workers, and how many of them were retried or lost to worker deaths.
    ``degraded_tasks`` ran in the parent after exhausting retries (or
    after the pool itself was abandoned); ``pool_resets`` counts
    terminate-and-respawn cycles.
    """

    tasks: int = 0
    in_process: int = 0
    dispatched: int = 0
    retries: int = 0
    worker_deaths: int = 0
    degraded_tasks: int = 0
    pool_resets: int = 0
    backoff_seconds: float = 0.0

    @property
    def faulted(self) -> bool:
        """Whether any supervision event fired (clean runs stay False)."""
        return bool(self.retries or self.worker_deaths
                    or self.degraded_tasks or self.pool_resets)

    def merge(self, other: "DispatchReport") -> None:
        """Accumulate another report into this one (for multi-pool runs)."""
        for field in fields(self):
            setattr(self, field.name,
                    getattr(self, field.name) + getattr(other, field.name))

    def summary(self) -> str:
        """One human line, e.g. for the bench engine's summary."""
        head = (f"{self.tasks} pooled / {self.in_process} in-process "
                f"task(s), {self.dispatched} attempt(s)")
        if not self.faulted:
            return head + ", clean"
        return (head + f", {self.retries} retried, "
                f"{self.worker_deaths} worker death(s), "
                f"{self.degraded_tasks} degraded, "
                f"{self.pool_resets} pool reset(s)")


def _run_task(payload):
    """Worker-side wrapper: give the ``worker_crash`` site its chance,
    then run the task.

    ``payload`` is ``(fn, task, key, attempt)``; the fault decision is
    keyed on ``key`` (``wave:index:attempt``), so a retry re-decides
    deterministically.
    """
    fn, task, key, attempt = payload
    plan = active_faults()
    if plan is not None:
        plan.maybe_crash(key, attempt)
    return fn(task)


class WorkerPool:
    """A lazily-created, supervised process pool with a serial fast path.

    ``jobs`` is the worker process count; ``1`` means in-process
    execution: ``map`` simply calls the function on each task in order.
    """

    def __init__(self, jobs: int = 1):
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.report = DispatchReport()
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._degraded = False
        self._waves = 0

    # -- mapping -----------------------------------------------------------
    def map(self, fn: Callable, tasks: Iterable) -> List:
        """``[fn(t) for t in tasks]``, fanned across workers when it pays.

        Order of results always matches task order.  A single task (or
        ``jobs=1``, or an abandoned pool) runs in-process even when a
        pool exists, so trivial waves never pay dispatch overhead.
        """
        tasks = list(tasks)
        if self.jobs > 1 and len(tasks) > 1 and not self._degraded:
            return self._map_pooled(fn, tasks)
        self.report.in_process += len(tasks)
        return [fn(task) for task in tasks]

    def _map_pooled(self, fn: Callable, tasks: List) -> List:
        report = self.report
        results: Dict[int, object] = {}
        attempts = [0] * len(tasks)
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
                break
            pool = self._ensure_pool()
            report.dispatched += len(pending)
            if self._gather(pool, fn, tasks, pending, attempts, wave,
                            results):
                report.tasks += len(pending)
                break
            # A worker died: its task is lost and the survivors' in-flight
            # work is suspect, so reset and re-dispatch what is missing.
            # Once the pool is down no callback can still land.
            report.worker_deaths += 1
            self._reset_pool()
            retry: List[int] = []
            for index in pending:
                if index in results:
                    report.tasks += 1
                    continue
                # The fault plan keys decisions on the attempt, so a
                # re-dispatch re-decides rather than repeating.
                attempts[index] += 1
                if attempts[index] <= MAX_RETRIES:
                    retry.append(index)
                    report.retries += 1
                    continue
                results[index] = fn(tasks[index])
                report.degraded_tasks += 1
                report.tasks += 1
            pending = retry
            if pending:
                delay = BACKOFF_SECONDS * (2 ** retry_round)
                retry_round += 1
                time.sleep(delay)
                report.backoff_seconds += delay
        return [results[index] for index in range(len(tasks))]

    def _gather(self, pool, fn, tasks, pending, attempts, wave,
                results) -> bool:
        """Ship each of ``pending`` as its own task and wait until all
        land in ``results`` (True) or a worker dies (False).

        ``apply_async`` callbacks store the results on the pool's result
        thread, so the parent wakes once per poll rather than once per
        task: a per-task wakeup competes with the workers for the CPU.
        The first application exception to land is raised.
        """
        done = threading.Event()
        outstanding = [len(pending)]
        failures: List[BaseException] = []

        def landed(index):
            def store(value):
                # Callbacks run one at a time on the result thread.
                results[index] = value
                outstanding[0] -= 1
                if not outstanding[0]:
                    done.set()
            return store

        def failed(exc):
            failures.append(exc)
            done.set()

        snapshot = self._worker_pids()
        for index in pending:
            key = f"{wave}:{index}:{attempts[index]}"
            pool.apply_async(
                _run_task, ((fn, tasks[index], key, attempts[index]),),
                callback=landed(index), error_callback=failed)
        while not done.wait(_POLL_SECONDS):
            if self._worker_died(snapshot):
                return False
        if failures:
            raise failures[0]
        return True

    # -- pool lifecycle ----------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            self._pool = multiprocessing.Pool(processes=self.jobs)
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
        self.terminate()
        if self.report.pool_resets >= RESET_LIMIT:
            self._degraded = True

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
