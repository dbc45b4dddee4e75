"""Protein sequence value object."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.bio.amino_acids import AMINO_ACIDS, get as get_aa, one_to_three
from repro.exceptions import SequenceError


@dataclass(frozen=True)
class ProteinSequence:
    """An immutable protein fragment sequence in one-letter codes.

    Parameters
    ----------
    residues:
        One-letter amino-acid string, e.g. ``"YLVTHLMGAD"``.  Validated on
        construction; lowercase input is normalised to uppercase.
    """

    residues: str

    def __post_init__(self) -> None:
        seq = self.residues.upper().strip()
        if not seq:
            raise SequenceError("empty protein sequence")
        bad = sorted({c for c in seq if c not in AMINO_ACIDS})
        if bad:
            raise SequenceError(f"invalid residue codes in sequence {self.residues!r}: {bad}")
        object.__setattr__(self, "residues", seq)

    def __len__(self) -> int:
        return len(self.residues)

    def __iter__(self) -> Iterator[str]:
        return iter(self.residues)

    def __getitem__(self, item: int | slice) -> str:
        return self.residues[item]

    def __str__(self) -> str:
        return self.residues

    @property
    def three_letter(self) -> list[str]:
        """Residues as a list of three-letter codes."""
        return [one_to_three(c) for c in self.residues]

    @property
    def mass(self) -> float:
        """Sum of residue masses plus one water (18.015 Da)."""
        return sum(get_aa(c).mass for c in self.residues) + 18.015

    @property
    def net_charge(self) -> int:
        """Net formal charge at pH 7."""
        return sum(get_aa(c).charge for c in self.residues)

    def hydrophobic_fraction(self) -> float:
        """Fraction of residues with positive hydropathy."""
        return sum(1 for c in self.residues if get_aa(c).hydrophobic) / len(self)

    def polar_fraction(self) -> float:
        """Fraction of polar residues."""
        return sum(1 for c in self.residues if get_aa(c).polar) / len(self)

    def pair_types(self) -> list[tuple[str, str]]:
        """All unordered residue-type pairs occurring within this fragment.

        Used by the interaction-coverage analysis (Fig. 5): every pair of
        residues in a fragment contributes one observed amino-acid interaction
        type (both orderings are counted by the analysis layer).
        """
        pairs = []
        seq = self.residues
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                pairs.append((seq[i], seq[j]))
        return pairs

    def composition(self) -> dict[str, int]:
        """Residue-type counts."""
        counts: dict[str, int] = {}
        for c in self.residues:
            counts[c] = counts.get(c, 0) + 1
        return counts
