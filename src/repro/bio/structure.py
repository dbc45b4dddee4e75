"""Hierarchical molecular structure model: Structure > Chain > Residue > Atom.

A deliberately small, NumPy-friendly object model: coordinates live in plain
float arrays, residues know their one-letter type, and the whole hierarchy can
be flattened to an ``(N, 3)`` coordinate array for the vectorised kernels
(RMSD, docking grids) without copying atom-by-atom in Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.bio.amino_acids import one_to_three, three_to_one
from repro.exceptions import StructureError

#: Backbone atom names in canonical order.
BACKBONE_ATOMS: tuple[str, ...] = ("N", "CA", "C", "O")


@dataclass
class Atom:
    """A single atom with a name, element, coordinates and partial charge."""

    name: str
    element: str
    coords: np.ndarray
    charge: float = 0.0
    occupancy: float = 1.0
    b_factor: float = 0.0

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=float).reshape(3)
        if not np.all(np.isfinite(self.coords)):
            raise StructureError(f"atom {self.name!r} has non-finite coordinates")

    def distance_to(self, other: "Atom") -> float:
        """Euclidean distance to another atom."""
        return float(np.linalg.norm(self.coords - other.coords))

    def copy(self) -> "Atom":
        """Deep copy of this atom."""
        return Atom(self.name, self.element, self.coords.copy(), self.charge, self.occupancy, self.b_factor)


@dataclass
class Residue:
    """A residue: one-letter type, sequence number, and its atoms."""

    code: str
    seq_id: int
    atoms: list[Atom] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.code = self.code.upper()
        # Accept three-letter codes transparently.
        if len(self.code) == 3:
            self.code = three_to_one(self.code)

    @property
    def three(self) -> str:
        """Three-letter residue name."""
        return one_to_three(self.code)

    def atom(self, name: str) -> Atom:
        """Return the atom with the given name, raising if absent."""
        for a in self.atoms:
            if a.name == name:
                return a
        raise StructureError(f"residue {self.three}{self.seq_id} has no atom {name!r}")

    @property
    def ca(self) -> Atom:
        """The alpha-carbon atom."""
        return self.atom("CA")

    def backbone_coords(self) -> np.ndarray:
        """Coordinates of N, CA, C, O (those present), shape (k, 3)."""
        coords = [a.coords for a in self.atoms if a.name in BACKBONE_ATOMS]
        if not coords:
            raise StructureError(f"residue {self.three}{self.seq_id} has no backbone atoms")
        return np.array(coords)

    def copy(self) -> "Residue":
        """Deep copy of this residue."""
        return Residue(self.code, self.seq_id, [a.copy() for a in self.atoms])


@dataclass
class Chain:
    """A chain of residues."""

    chain_id: str = "A"
    residues: list[Residue] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.residues)

    def __iter__(self) -> Iterator[Residue]:
        return iter(self.residues)

    @property
    def sequence(self) -> str:
        """One-letter sequence of the chain."""
        return "".join(r.code for r in self.residues)

    def copy(self) -> "Chain":
        """Deep copy of this chain."""
        return Chain(self.chain_id, [r.copy() for r in self.residues])


@dataclass
class Structure:
    """A complete (fragment) structure with one or more chains."""

    structure_id: str = "FRAG"
    chains: list[Chain] = field(default_factory=list)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_ca_coords(
        cls,
        sequence: str,
        ca_coords: np.ndarray,
        structure_id: str = "FRAG",
        start_seq_id: int = 1,
    ) -> "Structure":
        """Build a Cα-only structure from a sequence and an (L, 3) coordinate array."""
        ca_coords = np.asarray(ca_coords, dtype=float)
        if ca_coords.shape != (len(sequence), 3):
            raise StructureError(
                f"expected ({len(sequence)}, 3) CA coordinates, got {ca_coords.shape}"
            )
        chain = Chain("A")
        for i, (code, xyz) in enumerate(zip(sequence, ca_coords)):
            res = Residue(code, start_seq_id + i, [Atom("CA", "C", xyz)])
            chain.residues.append(res)
        return cls(structure_id, [chain])

    # -- accessors -------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(c) for c in self.chains)

    @property
    def residues(self) -> list[Residue]:
        """All residues across chains, in order."""
        out: list[Residue] = []
        for chain in self.chains:
            out.extend(chain.residues)
        return out

    @property
    def atoms(self) -> list[Atom]:
        """All atoms across residues, in order."""
        out: list[Atom] = []
        for res in self.residues:
            out.extend(res.atoms)
        return out

    @property
    def sequence(self) -> str:
        """Concatenated one-letter sequence."""
        return "".join(c.sequence for c in self.chains)

    def ca_coords(self) -> np.ndarray:
        """(L, 3) array of alpha-carbon coordinates."""
        coords = [r.ca.coords for r in self.residues]
        if not coords:
            raise StructureError("structure has no residues")
        return np.array(coords)

    def backbone_coords(self) -> np.ndarray:
        """(K, 3) array of all backbone atom coordinates in residue order."""
        blocks = [r.backbone_coords() for r in self.residues]
        return np.vstack(blocks)

    def all_coords(self) -> np.ndarray:
        """(N, 3) array of every atom coordinate."""
        atoms = self.atoms
        if not atoms:
            raise StructureError("structure has no atoms")
        return np.array([a.coords for a in atoms])

    # -- transforms ------------------------------------------------------------

    def translate(self, vector: Iterable[float]) -> "Structure":
        """Translate every atom in place by ``vector``; returns self."""
        v = np.asarray(list(vector), dtype=float).reshape(3)
        for atom in self.atoms:
            atom.coords += v
        return self

    def rotate(self, rotation: np.ndarray) -> "Structure":
        """Rotate every atom about the origin in place; returns self."""
        rot = np.asarray(rotation, dtype=float)
        if rot.shape != (3, 3):
            raise StructureError(f"rotation must be 3x3, got {rot.shape}")
        for atom in self.atoms:
            atom.coords = rot @ atom.coords
        return self

    def center(self) -> "Structure":
        """Translate the structure so its centroid is at the origin; returns self."""
        coords = self.all_coords()
        return self.translate(-coords.mean(axis=0))

    def centroid(self) -> np.ndarray:
        """Centroid of all atoms."""
        return self.all_coords().mean(axis=0)

    def copy(self) -> "Structure":
        """Deep copy of this structure."""
        return Structure(self.structure_id, [c.copy() for c in self.chains])
