"""The 20 standard amino acids and their physicochemical properties.

The property tables are the ones the pipeline actually consumes:

* Kyte–Doolittle hydropathy — used by the docking scorer to decide which
  residue pseudo-atoms are hydrophobic;
* residue mass and approximate side-chain volume — used by the reference
  structure generator and the ligand builder;
* polarity / charge classes — used by the dataset diversity analysis
  (Sec. 4.1 of the paper highlights polar and hydrophobic enrichment);
* hydrogen-bond donor/acceptor capability — used by the Vina-like scoring
  function's H-bond term.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import SequenceError


@dataclass(frozen=True)
class AminoAcid:
    """One standard amino acid and the properties used by the pipeline."""

    code: str  # one-letter code
    three: str  # three-letter code
    name: str
    mass: float  # average residue mass in Da (monomer minus water)
    volume: float  # approximate side-chain volume in cubic Angstroms
    hydropathy: float  # Kyte-Doolittle index
    charge: int  # formal charge at pH 7 (-1, 0, +1)
    polar: bool
    aromatic: bool
    hbond_donor: bool
    hbond_acceptor: bool

    @property
    def hydrophobic(self) -> bool:
        """Kyte–Doolittle positive residues count as hydrophobic."""
        return self.hydropathy > 0.0


_AA_ROWS = [
    # code three  name             mass     vol    hydro  q  polar  arom  don    acc
    ("A", "ALA", "Alanine",        71.079,  88.6,  1.8,   0, False, False, False, False),
    ("R", "ARG", "Arginine",       156.188, 173.4, -4.5,  1, True,  False, True,  False),
    ("N", "ASN", "Asparagine",     114.104, 114.1, -3.5,  0, True,  False, True,  True),
    ("D", "ASP", "Aspartate",      115.089, 111.1, -3.5, -1, True,  False, False, True),
    ("C", "CYS", "Cysteine",       103.145, 108.5, 2.5,   0, False, False, True,  True),
    ("Q", "GLN", "Glutamine",      128.131, 143.8, -3.5,  0, True,  False, True,  True),
    ("E", "GLU", "Glutamate",      129.116, 138.4, -3.5, -1, True,  False, False, True),
    ("G", "GLY", "Glycine",        57.052,  60.1,  -0.4,  0, False, False, False, False),
    ("H", "HIS", "Histidine",      137.141, 153.2, -3.2,  0, True,  True,  True,  True),
    ("I", "ILE", "Isoleucine",     113.159, 166.7, 4.5,   0, False, False, False, False),
    ("L", "LEU", "Leucine",        113.159, 166.7, 3.8,   0, False, False, False, False),
    ("K", "LYS", "Lysine",         128.174, 168.6, -3.9,  1, True,  False, True,  False),
    ("M", "MET", "Methionine",     131.199, 162.9, 1.9,   0, False, False, False, False),
    ("F", "PHE", "Phenylalanine",  147.177, 189.9, 2.8,   0, False, True,  False, False),
    ("P", "PRO", "Proline",        97.117,  112.7, -1.6,  0, False, False, False, False),
    ("S", "SER", "Serine",         87.078,  89.0,  -0.8,  0, True,  False, True,  True),
    ("T", "THR", "Threonine",      101.105, 116.1, -0.7,  0, True,  False, True,  True),
    ("W", "TRP", "Tryptophan",     186.213, 227.8, -0.9,  0, False, True,  True,  False),
    ("Y", "TYR", "Tyrosine",       163.176, 193.6, -1.3,  0, True,  True,  True,  True),
    ("V", "VAL", "Valine",         99.133,  140.0, 4.2,   0, False, False, False, False),
]

#: Mapping from one-letter code to :class:`AminoAcid`.
AMINO_ACIDS: dict[str, AminoAcid] = {
    row[0]: AminoAcid(*row) for row in _AA_ROWS
}

#: Canonical ordering of the 20 one-letter codes (alphabetical by code).
AA_ORDER: tuple[str, ...] = tuple(sorted(AMINO_ACIDS))

#: Mapping from three-letter code to one-letter code.
THREE_TO_ONE: dict[str, str] = {aa.three: aa.code for aa in AMINO_ACIDS.values()}


def is_valid_residue(code: str) -> bool:
    """True if ``code`` is a standard one-letter amino-acid code."""
    return code.upper() in AMINO_ACIDS


def get(code: str) -> AminoAcid:
    """Return the :class:`AminoAcid` for a one-letter code, raising on unknown codes."""
    key = code.upper()
    try:
        return AMINO_ACIDS[key]
    except KeyError:
        raise SequenceError(f"unknown amino-acid code: {code!r}") from None


def one_to_three(code: str) -> str:
    """Convert a one-letter code to its three-letter equivalent."""
    return get(code).three


def three_to_one(three: str) -> str:
    """Convert a three-letter code to its one-letter equivalent."""
    key = three.upper()
    try:
        return THREE_TO_ONE[key]
    except KeyError:
        raise SequenceError(f"unknown three-letter residue code: {three!r}") from None


def hydrophobicity(code: str) -> float:
    """Kyte–Doolittle hydropathy of a residue."""
    return get(code).hydropathy


def residue_mass(code: str) -> float:
    """Average residue mass in daltons."""
    return get(code).mass


def residue_volume(code: str) -> float:
    """Approximate side-chain volume in cubic Angstroms."""
    return get(code).volume


def residue_charge(code: str) -> int:
    """Formal charge at physiological pH."""
    return get(code).charge


def is_hydrophobic(code: str) -> bool:
    """True for hydrophobic (positive hydropathy) residues."""
    return get(code).hydrophobic
