"""An ordered stack of cache tiers behind the single-tier interface.

:class:`TieredCache` composes tiers the way a CPU cache hierarchy does:

* **reads** are local-first — the first tier to hold a key wins, and a hit in
  a later (slower) tier is *promoted* into every earlier tier so the next
  lookup stays local;
* **writes** go through every tier (write-through), so a result computed
  anywhere becomes visible everywhere a tier is shared.

The write-through honours the ``stored_in`` skip individually per member: a
worker that already wrote a payload into the shared remote tier makes the
session's put skip that member (no redundant socket round trip) while still
filling the purely local tiers.  :meth:`covers` is deliberately the *all*
quantifier — a tiered cache only tells callers "don't bother writing" when
**every** member already holds the payload, because a skipped put is lost
forever for the members that did not.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.engine.cache.base import CacheEntry, CacheStats, CacheTier, LocationToken
from repro.exceptions import EngineError


class TieredCache:
    """Compose an ordered list of cache tiers; see the module docstring."""

    def __init__(self, tiers: Iterable[CacheTier]):
        self.tiers: tuple[CacheTier, ...] = tuple(tiers)
        if not self.tiers:
            raise EngineError("TieredCache needs at least one tier")
        self.stats = CacheStats()

    @property
    def location(self) -> LocationToken:
        """Composite token: the member tokens in order."""
        return ("tiered",) + tuple(t.location for t in self.tiers)

    def covers(self, token: LocationToken | None) -> bool:
        """``True`` only when *every* member covers ``token`` (see module doc)."""
        return token is not None and all(t.covers(token) for t in self.tiers)

    def get(self, key: str) -> dict[str, Any] | None:
        """First tier holding ``key`` wins; later-tier hits are promoted."""
        for position, tier in enumerate(self.tiers):
            payload = tier.get(key)
            if payload is None:
                continue
            self.stats.hits += 1
            for earlier in self.tiers[:position]:
                earlier.put(key, payload)
            return payload
        self.stats.misses += 1
        return None

    def peek(self, key: str) -> dict[str, Any] | None:
        """Stat-neutral lookup across the stack — no counters, no promotion."""
        for tier in self.tiers:
            payload = tier.peek(key)
            if payload is not None:
                return payload
        return None

    def put(self, key: str, payload: dict[str, Any], stored_in: LocationToken | None = None) -> bool:
        """Write through every tier; ``True`` when all of them hold it."""
        stored = True
        for tier in self.tiers:
            stored = tier.put(key, payload, stored_in=stored_in) and stored
        self.stats.writes += 1
        return stored

    # -- introspection / maintenance ---------------------------------------------------

    def entries(self) -> list[CacheEntry]:
        """Union of member entries, deduplicated by key (earliest tier wins)."""
        seen: dict[str, CacheEntry] = {}
        for tier in self.tiers:
            for entry in tier.entries():
                seen.setdefault(entry.key, entry)
        return sorted(seen.values(), key=lambda e: (e.mtime, e.key))

    def total_bytes(self) -> int:
        """Total bytes across all locally enumerable member entries."""
        return sum(e.size_bytes for e in self.entries())

    def prune(self, max_bytes: int | None = None) -> list[str]:
        """Prune every member to its own (or the given) bound; evicted keys."""
        evicted: list[str] = []
        for tier in self.tiers:
            evicted.extend(tier.prune(max_bytes))
        return evicted

    def verify(self, delete: bool = False) -> tuple[list[str], list[tuple[str, str]]]:
        """Combined audit of every member tier."""
        valid: list[str] = []
        corrupt: list[tuple[str, str]] = []
        for tier in self.tiers:
            tier_valid, tier_corrupt = tier.verify(delete=delete)
            valid.extend(tier_valid)
            corrupt.extend(tier_corrupt)
        return valid, corrupt

    def close(self) -> None:
        """Close every member tier (remote members drop their sockets)."""
        for tier in self.tiers:
            tier.close()

    def __contains__(self, key: str) -> bool:
        return any(key in tier for tier in self.tiers)

    def __len__(self) -> int:
        return len({entry.key for tier in self.tiers for entry in tier.entries()})

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"TieredCache({list(self.tiers)!r})"
