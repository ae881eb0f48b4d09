"""Deterministic, seeded fault injection for the dispatch path.

The resilience layer (supervised :class:`~repro.bench.pool.WorkerPool`,
integrity-checked :class:`~repro.cache.TraceCache`) is only trustworthy
if every recovery path can be *provoked on demand and reproduced
bit-for-bit*.  This module is that provocation: a small harness that
decides, from a seed and a stable site key, whether a named fault fires
at a given injection site.

Injection sites (:data:`SITES`):

``worker_crash``
    The worker process exits hard (``os._exit``) before running its
    task — models an OOM kill or a segfaulting native kernel.
``task_hang``
    The worker sleeps for ``secs`` before running its task — models a
    wedged kernel or a lost network peer.  Only observable when the
    pool enforces a per-task timeout.
``corrupt_result``
    The worker returns a garbled result whose checksum no longer
    matches — models silent data corruption in transport.
``cache_truncate``
    A freshly written cache entry is truncated on disk — models a
    crash mid-write or filesystem corruption.
``request_drop``
    The serving micro-batcher loses one queued request out of a batch
    it was about to pack — models a client disconnect or a queue slot
    reclaimed under memory pressure.  The service degrades the request
    to solo execution instead of failing it.
``batch_timeout``
    A packed batch misses its execution deadline — models a stalled
    executor thread.  The service abandons the batch and degrades
    every member to solo execution.

Decisions are **deterministic**: a fault fires iff
``sha256(seed | site | key | attempt)`` maps below the site's
probability.  Keys include the retry attempt, so an injected failure on
attempt 0 deterministically clears (or deterministically persists, at
``p=1``) on the retry — both the retry path and the degradation ladder
are reachable with exact reproducibility, in-process or across worker
processes.

Activation, in precedence order: an explicit :func:`activate` call
(what ``SuiteConfig.faults`` / ``--faults`` route through), else the
``GSUITE_FAULTS`` environment variable.  ``activate`` also exports
``GSUITE_FAULTS`` so spawned worker processes inherit the same plan.
The three pool sites fire only in a pooled
:class:`~repro.bench.pool.WorkerPool` map, whose one consumer is the
bench engine's cell fan-out (``gsuite bench --jobs N``).

Spec strings are ``;``-separated clauses: each clause is either
``seed=N`` or ``site[:key=value[,key=value...]]`` with keys ``p``
(probability, default 1), ``tries`` (fire only on retry attempts below
this — ``tries=1`` fails the first attempt and lets the retry through,
deterministically in every process), ``limit`` (max injections per
process, default unlimited) and ``secs`` (hang duration, ``task_hang``
only)::

    worker_crash                          # every pooled attempt crashes
    seed=7;worker_crash:p=0.2,tries=1     # seeded, sparse, recovers on retry
    task_hang:p=1,tries=1,secs=30         # first attempts hang 30 s
    corrupt_result:p=0.05;cache_truncate:p=0.5
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError

__all__ = [
    "SITES",
    "FaultSpec",
    "FaultPlan",
    "parse_faults",
    "active_faults",
    "activate",
    "deactivate",
]

#: The named injection sites, in dispatch order (the serving sites
#: last: they fire in the micro-batcher, after any pool dispatch).
SITES = ("worker_crash", "task_hang", "corrupt_result", "cache_truncate",
         "request_drop", "batch_timeout")

#: Exit status used by an injected worker crash — distinctive enough to
#: recognise in a post-mortem, meaningless to the shell.
CRASH_EXIT_CODE = 37


@dataclass(frozen=True)
class FaultSpec:
    """One armed injection site."""

    site: str
    probability: float = 1.0
    tries: Optional[int] = None   # fire only on attempts < tries; None = all
    limit: Optional[int] = None   # max injections per process; None = unlimited
    secs: float = 30.0            # hang duration (task_hang only)

    def __post_init__(self):
        if self.site not in SITES:
            raise ConfigError(
                f"unknown fault site {self.site!r}; known sites: {list(SITES)}")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(
                f"fault probability must be in [0, 1], got {self.probability!r}")
        if self.tries is not None and self.tries < 1:
            raise ConfigError(f"fault tries must be >= 1, got {self.tries!r}")
        if self.limit is not None and self.limit < 1:
            raise ConfigError(f"fault limit must be >= 1, got {self.limit!r}")
        if self.secs < 0:
            raise ConfigError(f"fault secs must be >= 0, got {self.secs!r}")

    def render(self) -> str:
        """The spec-string clause this spec round-trips through."""
        parts = [f"p={self.probability:g}"]
        if self.tries is not None:
            parts.append(f"tries={self.tries}")
        if self.limit is not None:
            parts.append(f"limit={self.limit}")
        if self.site == "task_hang":
            parts.append(f"secs={self.secs:g}")
        return f"{self.site}:{','.join(parts)}"


class FaultPlan:
    """A seeded set of armed injection sites with deterministic decisions.

    Decision function: ``sha256(f"{seed}|{site}|{key}")`` interpreted as
    a uniform draw in ``[0, 1)``, compared against the site's
    probability.  The same (seed, site, key) always decides the same
    way, in any process.  Per-site ``limit`` budgets are counted
    per-process (each worker starts fresh), which keeps worker-side
    decisions independent of dispatch interleaving.
    """

    def __init__(self, specs: Tuple[FaultSpec, ...], seed: int = 0):
        self.seed = int(seed)
        self.specs: Dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.site in self.specs:
                raise ConfigError(
                    f"fault site {spec.site!r} specified more than once")
            self.specs[spec.site] = spec
        self._injected: Dict[str, int] = {site: 0 for site in self.specs}

    # -- decisions ---------------------------------------------------------
    def decide(self, site: str, key: str,
               attempt: Optional[int] = None) -> bool:
        """Whether the fault at ``site`` fires for ``key`` (deterministic).

        ``attempt`` is the retry ordinal of the work unit; sites armed
        with ``tries=N`` only fire while ``attempt < N``, which is what
        makes retry recovery provable rather than probabilistic.
        """
        spec = self.specs.get(site)
        if spec is None:
            return False
        if spec.tries is not None and (attempt is None
                                       or attempt >= spec.tries):
            return False
        if spec.limit is not None and self._injected[site] >= spec.limit:
            return False
        digest = hashlib.sha256(
            f"{self.seed}|{site}|{key}".encode()).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        if draw >= spec.probability:
            return False
        self._injected[site] += 1
        return True

    def injected(self, site: str) -> int:
        """How many times ``site`` has fired in this process."""
        return self._injected.get(site, 0)

    # -- injection helpers (called from the sites themselves) --------------
    def maybe_crash(self, key: str, attempt: Optional[int] = None) -> None:
        """``worker_crash``: hard-exit the current process."""
        if self.decide("worker_crash", key, attempt):
            os._exit(CRASH_EXIT_CODE)

    def maybe_hang(self, key: str, attempt: Optional[int] = None) -> None:
        """``task_hang``: sleep for the armed duration."""
        if self.decide("task_hang", key, attempt):
            time.sleep(self.specs["task_hang"].secs)

    def corrupt_result(self, key: str,
                       attempt: Optional[int] = None) -> bool:
        """``corrupt_result``: whether this result should be garbled."""
        return self.decide("corrupt_result", key, attempt)

    def drop_request(self, key: str,
                     attempt: Optional[int] = None) -> bool:
        """``request_drop``: whether this queued request falls out of
        its batch (the service degrades it to solo execution)."""
        return self.decide("request_drop", key, attempt)

    def batch_timed_out(self, key: str,
                        attempt: Optional[int] = None) -> bool:
        """``batch_timeout``: whether this packed batch misses its
        deadline (every member degrades to solo execution)."""
        return self.decide("batch_timeout", key, attempt)

    def maybe_truncate(self, path, key: str) -> bool:
        """``cache_truncate``: chop a written cache file in half."""
        if not self.decide("cache_truncate", key):
            return False
        try:
            size = os.path.getsize(path)
            with open(path, "r+b") as handle:
                handle.truncate(size // 2)
        except OSError:
            return False
        return True

    # -- round-tripping ----------------------------------------------------
    def render(self) -> str:
        """The spec string this plan re-parses from (for env propagation)."""
        clauses = [f"seed={self.seed}"]
        clauses += [self.specs[site].render() for site in SITES
                    if site in self.specs]
        return ";".join(clauses)


def parse_faults(text: str) -> FaultPlan:
    """Parse a fault spec string into a :class:`FaultPlan`.

    Raises :class:`~repro.errors.ConfigError` on unknown sites, unknown
    keys or out-of-range values; an empty/blank string refuses too —
    callers gate on truthiness before parsing.
    """
    if not isinstance(text, str) or not text.strip():
        raise ConfigError(f"fault spec must be a non-empty string, got {text!r}")
    seed = 0
    specs = []
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            try:
                seed = int(clause[len("seed="):])
            except ValueError:
                raise ConfigError(
                    f"fault seed must be an integer, got {clause!r}") from None
            continue
        site, _, params = clause.partition(":")
        site = site.strip()
        kwargs = {}
        if params.strip():
            for pair in params.split(","):
                key, sep, value = pair.partition("=")
                key, value = key.strip(), value.strip()
                if not sep or not value:
                    raise ConfigError(
                        f"malformed fault parameter {pair!r} in {clause!r}; "
                        f"expected key=value")
                try:
                    if key == "p":
                        kwargs["probability"] = float(value)
                    elif key == "tries":
                        kwargs["tries"] = int(value)
                    elif key == "limit":
                        kwargs["limit"] = int(value)
                    elif key == "secs":
                        kwargs["secs"] = float(value)
                    else:
                        raise ConfigError(
                            f"unknown fault parameter {key!r} in {clause!r}; "
                            f"known: p, tries, limit, secs")
                except ValueError:
                    raise ConfigError(
                        f"bad value for fault parameter {key!r}: {value!r}"
                    ) from None
        specs.append(FaultSpec(site=site, **kwargs))
    if not specs:
        raise ConfigError(
            f"fault spec {text!r} names no injection sites; "
            f"known sites: {list(SITES)}")
    return FaultPlan(tuple(specs), seed=seed)


# -- process-global activation --------------------------------------------
_ACTIVE: Optional[FaultPlan] = None
_ENV_CACHE: Tuple[str, Optional[FaultPlan]] = ("", None)


def active_faults() -> Optional[FaultPlan]:
    """The fault plan in force, or ``None`` (the overwhelmingly common case).

    Precedence: an explicit :func:`activate` call, else ``GSUITE_FAULTS``.
    The env parse is cached on the raw string, so the zero-fault cost of
    this gate is one dict lookup.
    """
    global _ENV_CACHE
    if _ACTIVE is not None:
        return _ACTIVE
    text = os.environ.get("GSUITE_FAULTS", "").strip()
    if not text:
        return None
    if _ENV_CACHE[0] != text:
        _ENV_CACHE = (text, parse_faults(text))
    return _ENV_CACHE[1]


def activate(spec) -> FaultPlan:
    """Arm a fault plan process-wide and export it to child processes.

    ``spec`` is a spec string or an existing :class:`FaultPlan`.  The
    plan is re-exported through ``GSUITE_FAULTS`` so pool workers —
    which re-resolve :func:`active_faults` on their side under the
    ``spawn`` start method — see the identical plan.
    """
    global _ACTIVE
    plan = spec if isinstance(spec, FaultPlan) else parse_faults(spec)
    _ACTIVE = plan
    os.environ["GSUITE_FAULTS"] = plan.render()
    return plan


def deactivate() -> None:
    """Disarm fault injection (and clear the exported env var)."""
    global _ACTIVE, _ENV_CACHE
    _ACTIVE = None
    _ENV_CACHE = ("", None)
    os.environ.pop("GSUITE_FAULTS", None)
