"""Persistent, content-addressed cache for benchmark artifacts.

Recording a kernel-launch trace and simulating it are by far the most
expensive steps of the benchmark suite, yet both are deterministic
functions of their inputs: the suite configuration (dataset, scale,
seed, model, framework), the GPU model, the simulation budgets, and the
code itself.  :class:`TraceCache` exploits that by storing every
recorded trace, simulation result and timing measurement under a key
that hashes *all* of those inputs, so

* a warm ``python -m repro.bench`` run loads everything from disk;
* any change to a relevant source file, config field or seed produces a
  different key and transparently recomputes;
* writes are atomic renames, so a crash mid-write never leaves a
  half-written entry under its final name;
* every entry is **integrity-checked**: the record pickle is framed by
  a magic tag and its SHA-256 digest, so a truncated or bit-flipped
  file is detected on read, moved aside into ``<root>/quarantine/`` and
  transparently recomputed — corruption can slow a run down, never
  crash it or poison a result;
* entries are pickles, and the checksum catches corruption, not
  tampering: a root that exists and is world-writable or owned by
  another user is never read or written — the cache disables itself
  with one warning on first access.

Layout: ``<root>/<kind>/<sha256>.pkl`` where ``kind`` is one of the
:data:`KINDS` ("record", "sim", "profile", "timing").  The default
root is ``results/.cache`` next to the benchmark tables; override with
the ``GSUITE_CACHE_DIR`` environment variable, disable entirely with
``GSUITE_CACHE=0``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import stat
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import CacheIntegrityError

__all__ = [
    "KINDS",
    "CacheStats",
    "CacheEntryInfo",
    "TraceCache",
    "cached_launch_result",
    "compute_key",
    "code_version",
    "env_enabled",
    "get_cache",
    "configure_cache",
    "reset_cache",
]

#: Artifact kinds the benchmark layers store.
KINDS = ("record", "sim", "profile", "timing")

#: Bump to invalidate every existing cache entry (format changes).
_SCHEMA_VERSION = 2   # v2: checksummed entry framing

#: Package subtrees whose source participates in the code-version hash.
#: ``plan`` is hashed recursively, so the fusion pass
#: (``plan/fusion.py``) invalidates cached traces whenever its rewrite
#: rules change — fused and unfused plans already carry distinct
#: fingerprints (their op streams differ), this guards the pass
#: *implementation* itself.
#: The bench presentation layers (experiments, tables, harness, engine)
#: only orchestrate and format — their changes cannot alter a recorded
#: trace, simulation result or measurement, so they are excluded and
#: table-layout tweaks keep the cache warm.  ``bench/common.py`` *is*
#: hashed: it defines the measurement methodology (what gets recorded,
#: how timings warm up).
_HASHED_SUBTREES = ("core", "gpu", "graph", "datasets", "frameworks",
                    "plan")
_HASHED_FILES = ("bench/common.py",)

#: On-disk entry framing (schema v2): magic, 32-byte SHA-256 of the
#: payload, then the payload (the pickled record).  The digest covers
#: everything after the header, so truncation and bit flips anywhere in
#: the record are both caught before unpickling.
_MAGIC = b"GSC2\n"
_DIGEST_BYTES = 32

_CODE_VERSION: Optional[str] = None


def _encode_entry(record: Dict[str, Any]) -> bytes:
    payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    return _MAGIC + hashlib.sha256(payload).digest() + payload


def _decode_entry(blob: bytes, label: str) -> Dict[str, Any]:
    """Verify and unpickle one entry; raises on any integrity violation."""
    header = len(_MAGIC) + _DIGEST_BYTES
    if len(blob) < header or not blob.startswith(_MAGIC):
        raise CacheIntegrityError(
            f"cache entry {label} has a truncated or foreign header")
    digest, payload = blob[len(_MAGIC):header], blob[header:]
    if hashlib.sha256(payload).digest() != digest:
        raise CacheIntegrityError(
            f"cache entry {label} failed its integrity checksum")
    try:
        return pickle.loads(payload)
    except Exception as exc:   # checksum passed, pickle still refused
        raise CacheIntegrityError(
            f"cache entry {label} verified but did not unpickle: {exc}"
        ) from exc


def code_version() -> str:
    """Hex digest of the source files that determine cached values.

    Computed once per process; any edit to a hashed file yields a new
    digest and therefore a cold cache.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        package_root = Path(__file__).resolve().parent
        digest = hashlib.sha256()
        digest.update(f"schema={_SCHEMA_VERSION}".encode())
        paths = [path
                 for subtree in _HASHED_SUBTREES
                 for path in sorted((package_root / subtree).rglob("*.py"))]
        paths.extend(package_root / name for name in _HASHED_FILES)
        for path in paths:
            digest.update(path.relative_to(package_root).as_posix().encode())
            digest.update(path.read_bytes())
        _CODE_VERSION = digest.hexdigest()
    return _CODE_VERSION


def compute_key(kind: str, payload: Dict[str, Any]) -> str:
    """Content hash of one cacheable artifact's full input description.

    ``payload`` must be JSON-serialisable (non-JSON leaves fall back to
    ``str``); key order never matters.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown cache kind {kind!r}; known: {KINDS}")
    canonical = json.dumps(
        {"kind": kind, "code": code_version(), "payload": payload},
        sort_keys=True, default=str,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def cached_launch_result(cache: Optional["TraceCache"], kind: str, launch,
                         gpu_config, compute, config_name: str):
    """Per-launch memoisation shared by the simulator and the profiler.

    Keys on the launch's trace fingerprint plus the full GPU model, so
    the two consumers cannot drift apart in what invalidates an entry.
    ``compute`` is the zero-argument fallback producing the result.
    """
    from dataclasses import asdict as _asdict
    if cache is None:
        return compute()
    key = compute_key(kind, {
        "launch": launch.fingerprint(),
        "gpu": _asdict(gpu_config),
    })
    hit = cache.get(kind, key)
    if hit is not None:
        return hit
    result = compute()
    cache.put(kind, key, result,
              meta={"kernel": launch.kernel, "tag": launch.tag,
                    "gpu": config_name})
    return result


@dataclass
class CacheStats:
    """Hit/miss/store counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0   # entries that failed their checksum (quarantined)

    def summary(self) -> str:
        """One-line human-readable form for the harness summary."""
        total = self.hits + self.misses
        rate = (self.hits / total) if total else 0.0
        line = (f"{self.hits} hits / {self.misses} misses "
                f"({rate:.0%} hit rate), {self.stores} stored")
        if self.corrupt:
            line += f", {self.corrupt} corrupt quarantined"
        return line


@dataclass
class CacheEntryInfo:
    """Metadata of one on-disk entry (for ``gsuite cache info``)."""

    kind: str
    key: str
    size_bytes: int
    created: float
    meta: Dict[str, Any] = field(default_factory=dict)


class TraceCache:
    """Filesystem-backed pickle store addressed by content hash.

    Parameters
    ----------
    root:
        Cache directory (created lazily on first store).
    enabled:
        When false every lookup misses and every store is a no-op —
        the ``--no-cache`` path.
    """

    def __init__(self, root: Path, enabled: bool = True):
        self.root = Path(root)
        self.enabled = enabled
        self.stats = CacheStats()
        self._trusted: Optional[bool] = None

    # -- core operations ---------------------------------------------------
    def _root_trusted(self) -> bool:
        """Whether only this user can have written the root (checked once).

        An existing root that is world-writable or owned by another uid
        could hold planted pickles: it is never read, written or
        cleared, and the cache disables itself with one warning.  A
        missing root is fine — this process creates it.
        """
        if self._trusted is None:
            try:
                info = self.root.stat()
            except OSError:
                info = None
            reason = None
            if info is not None and info.st_mode & stat.S_IWOTH:
                reason = "it is world-writable"
            elif info is not None and hasattr(os, "geteuid") \
                    and info.st_uid != os.geteuid():
                reason = f"it is owned by uid {info.st_uid}"
            self._trusted = reason is None
            if reason is not None:
                self.enabled = False
                warnings.warn(f"trace cache disabled: {self.root} is not "
                              f"safe to unpickle from ({reason})",
                              RuntimeWarning, stacklevel=3)
        return self._trusted

    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / f"{key}.pkl"

    def get(self, kind: str, key: str) -> Optional[Any]:
        """The stored value, or ``None`` on miss / disabled / corruption.

        A corrupt or truncated file is quarantined (moved to
        ``<root>/quarantine/``) and counted, then reported as a miss so
        the caller recomputes — integrity failures never propagate from
        the read path.
        """
        if not (self.enabled and self._root_trusted()):
            return None
        path = self._path(kind, key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            record = _decode_entry(blob, f"{kind}/{key[:12]}")
        except CacheIntegrityError:
            self._quarantine(path, kind)
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return record["value"]

    def put(self, kind: str, key: str, value: Any,
            meta: Optional[Dict[str, Any]] = None) -> None:
        """Store ``value`` atomically (concurrent writers are safe)."""
        if not (self.enabled and self._root_trusted()):
            return
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {"value": value, "meta": meta or {},
                  "created": time.time()}
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            tmp.write_bytes(_encode_entry(record))
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            return
        self.stats.stores += 1

    def _quarantine(self, path: Path, kind: str) -> None:
        """Move a corrupt file aside so it is never re-read (best effort).

        Falls back to deletion if the move fails; if even that fails the
        file stays put — every future read re-detects the corruption and
        misses, which is slow but still correct.
        """
        dest_dir = self.root / "quarantine"
        try:
            dest_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest_dir / f"{kind}-{path.name}")
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def verify(self, strict: bool = False) -> List[Tuple[str, str]]:
        """Check every on-disk entry; quarantine and report the corrupt ones.

        Returns ``(kind, key)`` pairs of quarantined entries.  With
        ``strict`` the corruption is escalated as a
        :class:`~repro.errors.CacheIntegrityError` instead (after
        quarantining), for maintenance flows that must not silently
        lose entries.
        """
        corrupt: List[Tuple[str, str]] = []
        for kind in KINDS if self._root_trusted() else ():
            directory = self.root / kind
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob("*.pkl")):
                try:
                    _decode_entry(path.read_bytes(), f"{kind}/{path.stem[:12]}")
                except OSError:
                    continue
                except CacheIntegrityError:
                    self._quarantine(path, kind)
                    self.stats.corrupt += 1
                    corrupt.append((kind, path.stem))
        if strict and corrupt:
            labels = ", ".join(f"{kind}/{key[:12]}" for kind, key in corrupt)
            raise CacheIntegrityError(
                f"{len(corrupt)} cache entr{'y' if len(corrupt) == 1 else 'ies'} "
                f"failed verification and were quarantined: {labels}")
        return corrupt

    # -- maintenance / inspection -----------------------------------------
    def clear(self) -> int:
        """Delete every entry; returns the number removed.

        Also sweeps orphaned ``*.tmp.*`` files left behind if a writer
        was killed mid-store, everything in the quarantine, and the
        ``shard/`` and ``plan/`` entries older builds left behind.
        """
        if not self._root_trusted():
            return 0
        removed = 0
        directories = [self.root / kind
                       for kind in KINDS + ("quarantine", "shard", "plan")]
        for directory in directories:
            if not directory.is_dir():
                continue
            for pattern in ("*.pkl", "*.tmp.*"):
                for path in directory.glob(pattern):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed

    def entries(self) -> Iterator[CacheEntryInfo]:
        """Iterate metadata of every on-disk entry (loads headers only)."""
        for kind in KINDS if self._root_trusted() else ():
            directory = self.root / kind
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob("*.pkl")):
                try:
                    blob = path.read_bytes()
                    size = len(blob)
                    record = _decode_entry(blob, f"{kind}/{path.stem[:12]}")
                except (OSError, CacheIntegrityError):
                    continue
                yield CacheEntryInfo(
                    kind=kind,
                    key=path.stem,
                    size_bytes=size,
                    created=record.get("created", 0.0),
                    meta=record.get("meta", {}),
                )

    def describe(self) -> Dict[str, Any]:
        """Aggregate inventory: entry count and bytes per kind."""
        by_kind: Dict[str, Dict[str, int]] = {}
        total_entries = 0
        total_bytes = 0
        for info in self.entries():
            bucket = by_kind.setdefault(info.kind,
                                        {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += info.size_bytes
            total_entries += 1
            total_bytes += info.size_bytes
        quarantine = self.root / "quarantine"
        quarantined = (len(list(quarantine.glob("*.pkl")))
                       if quarantine.is_dir() else 0)
        return {
            "root": str(self.root),
            "enabled": self.enabled,
            "entries": total_entries,
            "bytes": total_bytes,
            "quarantined": quarantined,
            "by_kind": by_kind,
        }


# ---------------------------------------------------------------------------
# Process-wide default instance
# ---------------------------------------------------------------------------

_DEFAULT: Optional[TraceCache] = None


def _default_root() -> Path:
    override = os.environ.get("GSUITE_CACHE_DIR")
    if override:
        return Path(override)
    # Sibling of the benchmark tables: <repo>/results/.cache.
    return Path(__file__).resolve().parents[2] / "results" / ".cache"


def env_enabled() -> bool:
    """Whether the ``GSUITE_CACHE`` environment variable allows caching.

    The env var is a kill switch: callers that toggle caching
    programmatically (e.g. the bench engine's cache switch) must AND
    their flag with this so ``GSUITE_CACHE=0`` always wins.
    """
    return os.environ.get("GSUITE_CACHE", "1").strip().lower() not in (
        "0", "off", "false", "no")


def get_cache() -> TraceCache:
    """The process-wide cache (built from the environment on first use)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = TraceCache(_default_root(), enabled=env_enabled())
    return _DEFAULT


def configure_cache(root: Optional[Path] = None,
                    enabled: Optional[bool] = None) -> TraceCache:
    """Replace the process-wide cache (CLI flags, tests)."""
    global _DEFAULT
    current = get_cache()
    _DEFAULT = TraceCache(
        Path(root) if root is not None else current.root,
        enabled=current.enabled if enabled is None else enabled,
    )
    return _DEFAULT


def reset_cache() -> None:
    """Forget the process-wide cache so the next use re-reads the env."""
    global _DEFAULT
    _DEFAULT = None
