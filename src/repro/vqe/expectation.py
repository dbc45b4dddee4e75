"""Sampled expectation values of diagonal Hamiltonians.

The folding Hamiltonian is diagonal in the computational basis, so the
expectation value ⟨ψ(θ)|H|ψ(θ)⟩ is estimated by sampling bitstrings from the
ansatz and averaging their classical energies — exactly the estimator the
paper's hybrid workflow uses on hardware.  Energies are cached per distinct
configuration-register value, so repeated evaluation across optimiser
iterations stays cheap even with large shot counts.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import VQEError
from repro.lattice.hamiltonian import LatticeHamiltonian
from repro.quantum.backend import samples_to_bitstrings, unique_rows


class DiagonalExpectation:
    """Estimates ⟨H⟩ from sampled bitstrings for a diagonal folding Hamiltonian."""

    def __init__(self, hamiltonian: LatticeHamiltonian, max_entries: int | None = None):
        if max_entries is not None and int(max_entries) <= 0:
            raise VQEError(f"max_entries must be positive or None, got {max_entries}")
        self.hamiltonian = hamiltonian
        self.encoding = hamiltonian.encoding
        self.max_entries = int(max_entries) if max_entries is not None else None
        self._cache: dict[str, float | None] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def cache_size(self) -> int:
        """Number of distinct configuration bitstrings currently cached."""
        return len(self._cache)

    def cache_info(self) -> dict[str, int | None]:
        """Hit/miss/eviction counters for the energy cache.

        Eviction never changes results — an evicted configuration that
        reappears is simply re-decoded to the same energy — so the cap only
        trades CPU for bounded memory on wide (100-qubit) fragments.
        """
        return {
            "entries": len(self._cache),
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "max_entries": self.max_entries,
        }

    def energy_of_bits(self, bits: str) -> float:
        """Energy of one bitstring (configuration register prefix), cached."""
        key = bits[: self.encoding.configuration_qubits]
        return float(self._energies_of_keys([key], [key])[0])

    def _energies_of_keys(self, keys: list[str], rows: np.ndarray | list[str]) -> np.ndarray:
        """Cached energies of distinct configuration keys, misses batch-scored.

        ``rows`` holds the same configurations as 0/1 rows or bitstrings
        (anything :meth:`FragmentEncoding.turns_from_bit_rows` accepts).
        The cache is capped at ``max_entries`` (when set) with FIFO eviction:
        dict insertion order is the arrival order, so the oldest configuration
        is dropped first.  Keys are looked up, inserted and evicted in order,
        exactly as one-at-a-time lookups would; only the scoring of the misses
        is deferred into one batch.
        """
        turns = self.encoding.turns_from_bit_rows(rows)
        energies = np.empty(len(keys))
        missed: list[int] = []
        for index, key in enumerate(keys):
            cached = self._cache.get(key)
            if cached is not None:
                self._hits += 1
                energies[index] = cached
                continue
            self._misses += 1
            missed.append(index)
            self._cache[key] = None  # placeholder keeps the FIFO position
            if self.max_entries is not None:
                while len(self._cache) > self.max_entries:
                    self._cache.pop(next(iter(self._cache)))
                    self._evictions += 1
        if missed:
            energies[missed] = self.hamiltonian.energies(turns[missed]).total
            for index in missed:
                if keys[index] in self._cache:
                    self._cache[keys[index]] = float(energies[index])
        return energies

    def estimate_from_counts(self, counts: dict[str, int]) -> float:
        """Shot-weighted mean energy of a counts dictionary."""
        if not counts:
            raise VQEError("cannot estimate an expectation value from empty counts")
        total = 0
        acc = 0.0
        for bits, freq in counts.items():
            if freq < 0:
                raise VQEError(f"negative count for bitstring {bits!r}")
            acc += self.energy_of_bits(bits) * freq
            total += freq
        if total == 0:
            raise VQEError("counts dictionary has zero total shots")
        return acc / total

    def _unique_config_energies(
        self, samples: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group a sample array by configuration register and decode each row once.

        Returns ``(energies, inverse, counts)`` where ``energies[i]`` is the
        energy of the i-th distinct configuration row, ``inverse`` maps every
        shot back to its row, and ``counts`` is the multiplicity of each row.
        Grouping keeps the Python-level decoding work proportional to the
        number of distinct conformations rather than the shot count.
        """
        samples = np.asarray(samples, dtype=np.uint8)
        if samples.ndim != 2 or samples.shape[0] == 0:
            raise VQEError(f"samples must be a non-empty 2-D array, got shape {samples.shape}")
        width = self.encoding.configuration_qubits
        if samples.shape[1] < width:
            raise VQEError(
                f"samples have {samples.shape[1]} qubits, but the configuration "
                f"register needs {width}"
            )
        # unique_rows keeps np.unique(axis=0)'s lexicographic row order, so
        # the energy cache's insertion order is the same as a row sort's.
        uniq, inverse, counts = unique_rows(samples[:, :width])
        energies = self._energies_of_keys(samples_to_bitstrings(uniq), uniq)
        return energies, inverse, counts

    def estimate_from_samples(self, samples: np.ndarray) -> float:
        """Mean energy of a (shots, n) sample array."""
        energies, _, counts = self._unique_config_energies(samples)
        return float(np.dot(energies, counts) / counts.sum())

    def cvar_from_samples(self, samples: np.ndarray, alpha: float = 0.2) -> float:
        """Conditional value-at-risk of the sampled energies (CVaR-VQE objective).

        For a diagonal Hamiltonian the quantity of interest is the *best*
        measurable bitstring, not the mean, so optimising the mean of the
        lowest ``alpha`` fraction of sampled energies (Barkoutsos et al. 2020)
        converges far faster at equal shot budget.  ``alpha = 1`` recovers the
        plain expectation value.
        """
        if not 0.0 < alpha <= 1.0:
            raise VQEError(f"alpha must be in (0, 1], got {alpha}")
        energies = self.per_shot_energies(samples)
        energies.sort()
        k = max(1, int(np.ceil(alpha * energies.size)))
        return float(energies[:k].mean())

    def per_shot_energies(self, samples: np.ndarray) -> np.ndarray:
        """Energy of every individual shot (used for distribution diagnostics)."""
        energies, inverse, _ = self._unique_config_energies(samples)
        return energies[inverse]
