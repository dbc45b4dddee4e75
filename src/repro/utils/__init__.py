"""Shared infrastructure: deterministic RNG and JSON I/O."""

from repro.utils.rng import child_seed, rng_for, spawn_rngs
from repro.utils.io import read_json, write_json, ensure_dir

__all__ = [
    "child_seed",
    "rng_for",
    "spawn_rngs",
    "read_json",
    "write_json",
    "ensure_dir",
]
