"""Decoding measured bitstrings into lattice conformations and Cα traces.

The second stage of the paper's hardware workflow (Sec. 5.2) fixes the
optimised circuit parameters, measures 100,000 shots and maps the resulting
low-energy bitstrings to 3D structures.  :class:`ConformationDecoder`
implements that mapping: it scores every distinct measured bitstring with the
diagonal Hamiltonian, discards physically invalid conformations (clashes /
backtracking) when possible, and returns the best decoded conformation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import LatticeError
from repro.lattice.hamiltonian import LatticeHamiltonian, is_preferred
from repro.lattice.tetrahedral import turns_to_coords


@dataclass(frozen=True)
class DecodedConformation:
    """A decoded conformation with its provenance."""

    turns: tuple[int, ...]
    ca_coords: np.ndarray
    energy: float
    bitstring: str
    valid: bool

    @property
    def length(self) -> int:
        """Number of residues."""
        return self.ca_coords.shape[0]


class ConformationDecoder:
    """Maps measurement outcomes of one fragment's circuit to conformations."""

    def __init__(self, hamiltonian: LatticeHamiltonian):
        self.hamiltonian = hamiltonian
        self.encoding = hamiltonian.encoding

    def decode_counts(self, counts: dict[str, int]) -> DecodedConformation:
        """Decode a whole counts dictionary and return the best conformation.

        Preference order: the lowest-energy *valid* conformation; if every
        measured bitstring decodes to an invalid conformation, the lowest-energy
        invalid one is returned (mirroring the pragmatic behaviour needed on
        noisy hardware).  Ties follow :func:`is_preferred`.
        """
        if not counts:
            raise LatticeError("cannot decode an empty counts dictionary")
        # Deduplicate on the configuration register (first-seen order) so
        # bitstrings that differ only in interaction-register bits are scored
        # once, then score every distinct configuration in one batch.
        width = self.encoding.configuration_qubits
        keys = list(dict.fromkeys(bits[:width] for bits in counts))
        turns = self.encoding.turns_from_bit_rows(keys)
        batch = self.hamiltonian.energies(turns)
        totals = batch.total.tolist()

        def beats(row: int, incumbent: int | None) -> bool:
            return incumbent is None or is_preferred(
                totals[row], turns[row], totals[incumbent], turns[incumbent]
            )

        best_any: int | None = None
        best_valid: int | None = None
        valid_rows = batch.valid.tolist()
        for row, valid in enumerate(valid_rows):
            if beats(row, best_any):
                best_any = row
            if valid and beats(row, best_valid):
                best_valid = row
        best = best_valid if best_valid is not None else best_any
        return DecodedConformation(
            turns=tuple(turns[best].tolist()),
            ca_coords=turns_to_coords(turns[best], bond_length=self.hamiltonian.bond_length),
            energy=totals[best],
            bitstring=keys[best],
            valid=bool(valid_rows[best]),
        )
