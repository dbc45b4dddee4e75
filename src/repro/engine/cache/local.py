"""Content-addressed on-disk cache tier — the original ``ResultCache``.

Each cached result lives in its own JSON file named by the job's content hash
(sharded by the first two hex characters to keep directories small), so the
cache is safe to share between concurrent builder processes: writes of the
same key produce identical bytes and a torn read is treated as a miss.

The cache can be *size-bounded*: with ``max_bytes`` set, every write enforces
the bound by evicting entries in recency order.  Two eviction policies exist:

* ``"lru"`` (default) — a hit refreshes the entry's file mtime, so eviction
  removes the least-recently-*used* entries first;
* ``"fifo"`` — hits leave mtimes untouched, so eviction removes the oldest
  *written* entries first.

Eviction only ever costs recompute time, never correctness: an evicted job
re-executes to a bit-identical result.  :meth:`LocalDirTier.prune` applies
the bound on demand and :meth:`LocalDirTier.verify` audits entry integrity —
both are surfaced by the ``repro-cache`` command-line tool
(:mod:`repro.cli.cache`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.engine.cache.base import CacheEntry, CacheStats, LocationToken
from repro.exceptions import EngineError
from repro.utils.io import read_json, write_json

#: Eviction policies understood by :class:`LocalDirTier`.
EVICTION_POLICIES: tuple[str, ...] = ("lru", "fifo")

#: When a write overflows the bound, evict down to this fraction of it so a
#: cache sitting at its bound does not pay a full directory scan per write.
LOW_WATER_FRACTION = 0.9


class LocalDirTier:
    """Content-addressed JSON store keyed by job hash, optionally size-bounded.

    Parameters
    ----------
    root:
        Cache directory (created if absent).
    max_bytes:
        Total size bound enforced after every write; ``None`` disables
        bounding.  Mapped from ``PipelineConfig.cache_max_bytes`` when the
        engine opens a cache by path.
    eviction:
        ``"lru"`` or ``"fifo"`` (see module docstring).  Mapped from
        ``PipelineConfig.cache_eviction``.
    """

    def __init__(self, root: str | Path, max_bytes: int | None = None, eviction: str = "lru"):
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        if eviction not in EVICTION_POLICIES:
            raise EngineError(
                f"unknown cache eviction policy {eviction!r}; choose one of {EVICTION_POLICIES}"
            )
        if max_bytes is not None and int(max_bytes) < 0:
            raise EngineError(f"cache max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.eviction = eviction
        self.stats = CacheStats()
        # Running size total so bound enforcement on put() stays O(1) instead
        # of rescanning the directory per write; initialised lazily and
        # resynchronised by every prune() scan (concurrent writers can make it
        # drift between prunes — the bound is enforcement, not accounting).
        self._tracked_total: int | None = None
        # Test-only crash-consistency hook: called with each CacheEntry just
        # before prune() considers evicting it, so tests can interleave a
        # concurrent writer/pruner at the exact race window.
        self._before_evict = None

    @property
    def location(self) -> LocationToken:
        """Identity token of this tier: the resolved cache directory."""
        return ("local", str(self.root.resolve()))

    def covers(self, token: LocationToken | None) -> bool:
        """Whether ``token`` names *this* directory (same resolved path)."""
        return token is not None and tuple(token) == self.location

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """Return the payload stored under ``key``, or ``None`` on a miss.

        Unreadable or mismatched files (torn writes, stale schema) count as
        misses rather than errors so a damaged cache degrades to recompute.
        Under the LRU policy a hit refreshes the entry's mtime.
        """
        payload = self.peek(key)
        if payload is None:
            self.stats.misses += 1
            return None
        if self.eviction == "lru":
            try:
                os.utime(self._path(key))
            except OSError:
                pass  # a concurrent prune may have removed the file; the payload is already read
        self.stats.hits += 1
        return payload

    def peek(self, key: str) -> dict[str, Any] | None:
        """Stat-neutral :meth:`get`: no hit/miss counted, no LRU mtime refresh.

        Used by the session layer's journal-aware planning — a resumed
        session checks whether a journalled-complete job still has its cached
        payload without skewing the hit-rate counters or the eviction order
        of lookups the resumed run never asked for.
        """
        path = self._path(key)
        try:
            payload = read_json(path)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(payload, dict) or payload.get("spec_hash") != key:
            return None
        return payload

    def put(self, key: str, payload: dict[str, Any], stored_in: LocationToken | None = None) -> bool:
        """Store ``payload`` under ``key``, then enforce the size bound.

        ``stored_in`` is the write-through skip: when it names this very
        directory the payload is already on disk (a worker wrote it here
        directly) and the write is elided.
        """
        if self.covers(stored_in):
            return True
        path = self._path(key)
        if self.max_bytes is None:
            write_json(path, payload)
            self.stats.writes += 1
            return True
        try:
            old_size = path.stat().st_size
        except OSError:
            old_size = 0
        write_json(path, payload)
        self.stats.writes += 1
        try:
            new_size = path.stat().st_size
        except OSError:
            new_size = 0
        if self._tracked_total is None:
            self._tracked_total = self.total_bytes()
        else:
            self._tracked_total += new_size - old_size
        if self._tracked_total > self.max_bytes:
            self.prune(int(self.max_bytes * LOW_WATER_FRACTION))
        return True

    # -- introspection / maintenance ---------------------------------------------------

    def entries(self) -> list[CacheEntry]:
        """Every entry on disk, least recently touched first (eviction order)."""
        found = []
        for path in self.root.glob("*/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue  # racing writer/pruner
            found.append(CacheEntry(
                key=path.stem, path=path, size_bytes=stat.st_size,
                mtime=stat.st_mtime, mtime_ns=stat.st_mtime_ns,
            ))
        return sorted(found, key=lambda e: (e.mtime, e.key))

    def total_bytes(self) -> int:
        """Total size of all cached entries in bytes."""
        return sum(e.size_bytes for e in self.entries())

    def prune(self, max_bytes: int | None = None) -> list[str]:
        """Evict entries in recency order until the cache fits ``max_bytes``.

        ``None`` uses the configured bound (a no-op when that is also
        ``None``).  Returns the evicted keys, oldest first.

        The cache is shared between concurrent builder processes, so the scan
        is re-validated per entry at eviction time: an entry that *vanished*
        since the scan (a concurrent pruner evicted it) is skipped without
        counting an eviction here, and an entry *re-written or refreshed*
        since the scan (its mtime moved — a concurrent writer just produced
        or touched it) is spared rather than evicting bytes the scan never
        saw.  Either way the freshly written payload survives and the
        running total stays honest.
        """
        bound = self.max_bytes if max_bytes is None else int(max_bytes)
        if bound is None:
            return []
        if bound < 0:
            raise EngineError(f"cache prune bound must be >= 0, got {bound}")
        entries = self.entries()
        total = sum(e.size_bytes for e in entries)
        evicted: list[str] = []
        for entry in entries:
            if total <= bound:
                break
            if self._before_evict is not None:
                self._before_evict(entry)
            try:
                current = entry.path.stat()
            except OSError:
                total -= entry.size_bytes  # vanished under a concurrent pruner
                continue
            if (current.st_mtime_ns, current.st_size) != (entry.mtime_ns, entry.size_bytes):
                # Re-written (or LRU-refreshed) since the scan: keep it, and
                # account for its current size instead of the stale one.
                # Nanosecond mtime plus size, not float st_mtime: on coarse
                # filesystems a same-tick rewrite is invisible to st_mtime
                # and the fresh payload would be evicted anyway.
                total += current.st_size - entry.size_bytes
                continue
            try:
                entry.path.unlink()
            except OSError:
                total -= entry.size_bytes  # lost the unlink race; already gone
                continue
            total -= entry.size_bytes
            evicted.append(entry.key)
            self.stats.evictions += 1
        self._tracked_total = total
        return evicted

    def verify(self, delete: bool = False) -> tuple[list[str], list[tuple[str, str]]]:
        """Audit every entry: parseable JSON whose ``spec_hash`` matches its key.

        Returns ``(valid_keys, corrupt)`` where ``corrupt`` pairs each bad key
        with the reason.  With ``delete`` set, corrupt entries are removed so
        subsequent lookups recompute them cleanly.
        """
        valid: list[str] = []
        corrupt: list[tuple[str, str]] = []
        corrupt_paths: list[Path] = []
        for entry in self.entries():
            reason: str | None = None
            try:
                payload = read_json(entry.path)
            except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
                reason = f"unreadable: {type(exc).__name__}"
            else:
                if not isinstance(payload, dict):
                    reason = "payload is not a JSON object"
                elif payload.get("spec_hash") != entry.key:
                    reason = "spec_hash does not match file name"
                elif "schema" not in payload:
                    reason = "payload has no schema"
            if reason is None:
                valid.append(entry.key)
            else:
                corrupt.append((entry.key, reason))
                # The scanned path, not _path(key): a file in the wrong shard
                # directory must still be the one deleted.
                corrupt_paths.append(entry.path)
        if delete and corrupt_paths:
            for path in corrupt_paths:
                path.unlink(missing_ok=True)
            self._tracked_total = None  # resync on next bound check
        return valid, corrupt

    def close(self) -> None:
        """No-op: a directory tier holds no open handles between calls."""

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every cached entry; returns the number of files removed."""
        removed = 0
        for path in self.root.glob("*/*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        self._tracked_total = 0
        return removed


#: Historical name, kept as the public alias: ``ResultCache`` predates the
#: tier protocol and every caller that opened a cache by path still gets
#: exactly this class with identical on-disk format and eviction semantics.
ResultCache = LocalDirTier
