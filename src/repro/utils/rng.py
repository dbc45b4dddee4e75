"""Deterministic random-number management.

Every stochastic task in the pipeline (a VQE run, a docking seed, a noise
channel) derives its generator from a *master seed* plus a stable string key.
This guarantees that results are identical whether tasks run serially or are
scattered across a process pool, which is the property the paper relies on
when it records per-run seeds for reproducibility (Sec. 6.2).
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def child_seed(master_seed: int, *keys: object) -> int:
    """Derive a deterministic 64-bit child seed from a master seed and keys.

    The derivation hashes the textual representation of the keys with SHA-256
    so that nearby integer keys do not produce correlated streams (a known
    hazard with naive ``master + i`` seeding).
    """
    h = hashlib.sha256()
    h.update(str(int(master_seed)).encode("utf-8"))
    for key in keys:
        h.update(b"\x1f")
        h.update(repr(key).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little") & _MASK64


def rng_for(master_seed: int, *keys: object) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for a (master seed, keys) pair."""
    return np.random.default_rng(child_seed(master_seed, *keys))


def spawn_rngs(master_seed: int, n: int, label: str = "task") -> list[np.random.Generator]:
    """Spawn ``n`` independent generators labelled ``label:0 .. label:n-1``."""
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of generators: {n}")
    return [rng_for(master_seed, label, i) for i in range(n)]


def stable_fraction(*keys: object) -> float:
    """Map arbitrary keys to a deterministic float in ``[0, 1)``.

    Used by the analytic timing / cost models to produce a reproducible
    per-fragment spread without any global RNG state.
    """
    return (child_seed(0, *keys) >> 11) / float(1 << 53)
