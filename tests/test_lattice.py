"""Tests for the tetrahedral lattice, encoding, Hamiltonian, decoder and solvers."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataset.fragments import PAPER_FRAGMENTS
from repro.exceptions import EncodingError, HamiltonianError, LatticeError
from repro.lattice.classical import ClassicalFoldingSolver
from repro.lattice.decoder import ConformationDecoder
from repro.lattice.encoding import (
    FragmentEncoding,
    circuit_depth_for_qubits,
    qubit_count_for_length,
)
from repro.lattice.hamiltonian import (
    ENERGY_CHUNK_ROWS,
    HamiltonianWeights,
    LatticeHamiltonian,
    encoding_offset,
)
from repro.lattice.reconstruction import reconstruct_structure
from repro.lattice.tetrahedral import (
    CA_VIRTUAL_BOND,
    backtracking_count,
    contact_pairs,
    is_self_avoiding,
    overlap_count,
    random_self_avoiding_turns,
    turns_to_coords,
)
from repro.vqe.expectation import DiagonalExpectation

turn_lists = st.lists(st.integers(0, 3), min_size=2, max_size=13)


# -- lattice geometry ------------------------------------------------------------


@given(turn_lists)
@settings(max_examples=50, deadline=None)
def test_turns_to_coords_bond_lengths(turns):
    coords = turns_to_coords(turns)
    steps = np.diff(coords, axis=0)
    lengths = np.linalg.norm(steps, axis=1)
    assert np.allclose(lengths, CA_VIRTUAL_BOND, atol=1e-9)


@given(turn_lists)
@settings(max_examples=50, deadline=None)
def test_tetrahedral_bond_angle(turns):
    coords = turns_to_coords(turns)
    if coords.shape[0] < 3:
        return
    v1 = coords[1:-1] - coords[:-2]
    v2 = coords[2:] - coords[1:-1]
    cos = np.einsum("ij,ij->i", v1, v2) / (CA_VIRTUAL_BOND**2)
    # On the diamond lattice consecutive steps either reverse (cos = -1,
    # backtracking) or form the tetrahedral angle (cos = +1/3).
    assert np.all((np.abs(cos - 1.0 / 3.0) < 1e-9) | (np.abs(cos + 1.0) < 1e-9))


def test_backtracking_detection():
    assert backtracking_count([0, 0, 1]) == 1
    assert backtracking_count([0, 1, 2, 3]) == 0
    coords = turns_to_coords([0, 0])
    assert overlap_count(coords) == 1
    assert not is_self_avoiding(coords)


def test_contact_pairs_chain_separation():
    turns = [0, 1, 0, 1, 0, 1]
    for i, j in contact_pairs(turns_to_coords(turns)):
        assert j - i >= 3


def test_invalid_turns_raise():
    with pytest.raises(LatticeError):
        turns_to_coords([0, 5])
    with pytest.raises(LatticeError):
        turns_to_coords([])


def test_random_self_avoiding_turns():
    rng = np.random.default_rng(3)
    turns = random_self_avoiding_turns(10, rng)
    assert is_self_avoiding(turns_to_coords(turns))


# -- encoding / resource model ----------------------------------------------------


def test_qubit_table_matches_paper_for_all_55_fragments():
    for fragment in PAPER_FRAGMENTS:
        enc = FragmentEncoding.for_sequence(fragment.sequence)
        assert enc.total_qubits == fragment.paper.qubits, fragment.pdb_id
        assert enc.circuit_depth == fragment.paper.depth, fragment.pdb_id


def test_depth_formula():
    for q in (12, 23, 38, 46, 54, 63, 72, 82, 92, 102):
        assert circuit_depth_for_qubits(q) == 4 * q + 5


def test_qubit_count_monotone_in_length():
    counts = [qubit_count_for_length(n) for n in range(5, 20)]
    assert counts == sorted(counts)


def test_encoding_roundtrip_bits_turns():
    enc = FragmentEncoding.for_sequence("EDACQGDSGG")
    turns = [0, 1, 2, 3, 0, 1, 2, 3, 2]
    bits = enc.bits_from_turns(turns)
    assert enc.turns_from_bits(bits) == turns


def test_encoding_rejects_short_bitstrings():
    enc = FragmentEncoding.for_sequence("RYRDV")
    with pytest.raises(EncodingError):
        enc.turns_from_bits("0")


@pytest.mark.parametrize("sequence", ["ACD", "ACDE", "EDACQGDSGG"])
def test_turns_from_bit_rows_matches_bitwise_decoding(sequence):
    enc = FragmentEncoding.for_sequence(sequence)
    rng = np.random.default_rng(len(sequence))
    rows = rng.integers(0, 2, size=(20, enc.configuration_qubits + 3)).astype(np.uint8)
    strings = ["".join(map(str, row)) for row in rows]
    # Reference: two bits per free turn, most significant first, after the
    # fixed leading turns 0 and 1, truncated to L - 1 turns.
    expected = [
        ([0, 1] + [int(bits[k : k + 2], 2) for k in range(0, enc.configuration_qubits, 2)])[
            : len(sequence) - 1
        ]
        for bits in strings
    ]
    assert enc.turns_from_bit_rows(rows).tolist() == expected
    assert enc.turns_from_bit_rows(strings).tolist() == expected
    assert [enc.turns_from_bits(bits) for bits in strings] == expected
    with pytest.raises(EncodingError):
        enc.turns_from_bit_rows([strings[0], "0"])
    with pytest.raises(EncodingError):
        enc.turns_from_bit_rows(["2" * enc.configuration_qubits])


def test_encoding_invalid_length():
    with pytest.raises(EncodingError):
        qubit_count_for_length(1)


# -- Hamiltonian --------------------------------------------------------------------


def test_energy_offset_increases_with_qubits():
    assert encoding_offset(102) > encoding_offset(63) > encoding_offset(12) > 0


def test_hamiltonian_penalises_overlap_and_backtracking():
    h = LatticeHamiltonian("ACDEF")
    good = [0, 1, 2, 1]
    bad = [0, 1, 1, 1]
    assert h.energy(bad) > h.energy(good)
    assert h.is_valid(good)
    assert not h.is_valid(bad)


def test_hamiltonian_breakdown_consistency():
    h = LatticeHamiltonian("EDACQGDSGG")
    turns = [0, 1, 2, 3, 0, 1, 2, 3, 2]
    b = h.breakdown(turns)
    assert b.total == pytest.approx(b.physical + b.offset)
    assert b.total == pytest.approx(h.energy(turns))
    assert set(b.as_dict()) >= {"chirality", "geometric", "clash", "interaction", "offset", "total"}


def test_hamiltonian_weights_scale_terms():
    turns = [0, 1, 1, 1]  # has geometric violations
    base = LatticeHamiltonian("ACDEF").breakdown(turns)
    doubled = LatticeHamiltonian("ACDEF", HamiltonianWeights(geometric=2.0)).breakdown(turns)
    assert doubled.geometric == pytest.approx(2.0 * base.geometric)


def test_hamiltonian_wrong_turn_count_raises():
    with pytest.raises(HamiltonianError):
        LatticeHamiltonian("ACDEF").energy([0, 1])


def test_energy_of_bits_matches_energy_of_turns():
    h = LatticeHamiltonian("ACDEFGH")
    turns = [0, 1, 2, 0, 3, 1]
    bits = h.encoding.bits_from_turns(turns)
    assert h.energy_of_bits(bits) == pytest.approx(h.energy(turns))


# -- decoder -----------------------------------------------------------------------


def test_decoder_prefers_valid_low_energy():
    h = LatticeHamiltonian("ACDEF")
    dec = ConformationDecoder(h)
    good_bits = h.encoding.bits_from_turns([0, 1, 2, 1])
    bad_bits = h.encoding.bits_from_turns([0, 1, 1, 1])
    best = dec.decode_counts({bad_bits: 100, good_bits: 1})
    assert best.valid
    assert best.bitstring == good_bits


def test_decoder_empty_counts_raise():
    h = LatticeHamiltonian("ACDEF")
    with pytest.raises(LatticeError):
        ConformationDecoder(h).decode_counts({})


# -- classical solver -----------------------------------------------------------------


def test_exact_solver_finds_valid_ground_state():
    h = LatticeHamiltonian("RYRDV")
    result = ClassicalFoldingSolver(h).solve()
    assert result.exact
    assert h.is_valid(result.turns)
    # No sampled conformation can beat the exhaustive ground state.
    rng = np.random.default_rng(0)
    for _ in range(50):
        turns = [0, 1] + list(rng.integers(0, 4, size=2))
        assert h.energy(turns) >= result.energy - 1e-9


def test_annealing_close_to_exact_on_small_fragment():
    h = LatticeHamiltonian("PWWERYQP")
    solver = ClassicalFoldingSolver(h)
    exact = solver.solve_exact()
    annealed = solver.solve_annealing(seed=1, sweeps=300)
    assert annealed.energy <= exact.energy * 1.02 + 1.0


def test_solver_deterministic():
    h = LatticeHamiltonian("EDACQGDSGG")
    a = ClassicalFoldingSolver(h).solve_annealing(seed=5, sweeps=100)
    b = ClassicalFoldingSolver(h).solve_annealing(seed=5, sweeps=100)
    assert a.turns == b.turns


# -- reconstruction -------------------------------------------------------------------


def test_reconstruct_structure_centres_and_preserves_sequence():
    h = LatticeHamiltonian("RYRDV")
    result = ClassicalFoldingSolver(h).solve()
    structure = reconstruct_structure("RYRDV", result.ca_coords)
    assert structure.sequence == "RYRDV"
    assert np.allclose(structure.all_coords().mean(axis=0), 0.0, atol=1e-9)


def test_reconstruct_jitter_requires_rng():
    from repro.exceptions import StructureError

    with pytest.raises(StructureError):
        reconstruct_structure("RYRDV", turns_to_coords([0, 1, 2, 1]), jitter=0.5)


# -- batched energies: bit-identity with the scalar formulas ----------------------------
#
# The oracle below is the one-conformation-at-a-time implementation of the four
# terms that the batched kernel replaced.  Every comparison uses ``==``: the
# kernel must reproduce it bit for bit, not approximately.


def oracle_coords(turns: np.ndarray, bond_length: float) -> np.ndarray:
    """One chain's Cα coordinates, accumulated step by step along axis 0."""
    scale = bond_length / np.sqrt(3.0)
    directions = np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    )
    signs = np.where(np.arange(turns.size) % 2 == 0, 1.0, -1.0)[:, None]
    coords = np.zeros((turns.size + 1, 3))
    np.cumsum(directions[turns] * scale * signs, axis=0, out=coords[1:])
    return coords


def oracle_terms(h: LatticeHamiltonian, turns) -> tuple[float, float, float, float]:
    """Scalar (chirality, geometric, clash, interaction) of one conformation."""
    turns = np.asarray(turns, dtype=int)
    coords = oracle_coords(turns, h.bond_length)
    w = h.weights

    diff = coords[:, None, :] - coords[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    iu = np.triu_indices(coords.shape[0], k=1)
    clash = w.clash * h._clash_penalty * int(np.count_nonzero(dist2[iu] < 1e-6))

    geometric = w.geometric * h._geometric_penalty * backtracking_count(turns)

    if coords.shape[0] < 4:
        chirality = 0.0
    else:
        v1 = coords[1:-2] - coords[:-3]
        v2 = coords[2:-1] - coords[1:-2]
        v3 = coords[3:] - coords[2:-1]
        handedness = np.einsum("ij,ij->i", np.cross(v1, v2), v3)
        chirality = w.chirality * h._chirality_penalty * int(np.count_nonzero(handedness < -1e-9))

    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    contact = np.abs(dist - h.bond_length) < 1e-3
    n = coords.shape[0]
    sep = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    mask = np.triu(contact & (sep >= 3), k=3)
    energy = float(np.sum(h._mj[mask]))
    centroid = coords.mean(axis=0)
    dist_to_centroid = np.linalg.norm(coords - centroid, axis=1) / h.bond_length
    energy += 0.05 * float(np.dot(h._hydropathy, dist_to_centroid))
    interaction = w.interaction * h._interaction_scale * energy
    return chirality, geometric, clash, interaction


def oracle_energy(h: LatticeHamiltonian, turns) -> float:
    chirality, geometric, clash, interaction = oracle_terms(h, turns)
    return chirality + geometric + clash + interaction + h.offset


def oracle_contacts(turns) -> int:
    """Number of non-local nearest-neighbour contacts of one conformation."""
    return len(contact_pairs(turns_to_coords(turns)))


def assert_batch_matches_oracle(h: LatticeHamiltonian, turns: np.ndarray) -> None:
    batch = h.energies(turns)
    total = batch.total
    for row, conformation in enumerate(turns):
        chirality, geometric, clash, interaction = oracle_terms(h, conformation)
        assert batch.chirality[row] == chirality, (row, conformation)
        assert batch.geometric[row] == geometric, (row, conformation)
        assert batch.clash[row] == clash, (row, conformation)
        assert batch.interaction[row] == interaction, (row, conformation)
        assert total[row] == chirality + geometric + clash + interaction + h.offset


def all_conformations(length: int) -> np.ndarray:
    free = itertools.product(range(4), repeat=length - 3)
    return np.array([[0, 1, *rest] for rest in free])


def random_conformations(length: int, rows: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    free = rng.integers(0, 4, size=(rows, length - 3))
    return np.hstack([np.tile([0, 1], (rows, 1)), free])


@pytest.mark.parametrize("sequence", ["SIHSYS", "PWWERYQP", "EDACQGDSG"])
def test_energies_exhaustive_bit_identical(sequence):
    assert_batch_matches_oracle(LatticeHamiltonian(sequence), all_conformations(len(sequence)))


@pytest.mark.parametrize("sequence", ["ACDEFGHIKLMNP", "WWLLIIFFVVMMAA"])
def test_energies_random_long_fragments_bit_identical(sequence):
    turns = random_conformations(len(sequence), 5000, seed=len(sequence))
    # The Miyazawa-Jernigan sum switches to numpy's pairwise summation at 8
    # terms; make sure such rows are in the sample.
    assert max(oracle_contacts(t) for t in turns) >= 8
    assert_batch_matches_oracle(LatticeHamiltonian(sequence), turns)


def test_energies_non_default_weights_bit_identical():
    weights = HamiltonianWeights(chirality=0.3, geometric=1.7, clash=2.5, interaction=-0.9)
    h = LatticeHamiltonian("WWLLIIFFVVMMAA", weights)
    assert_batch_matches_oracle(h, random_conformations(14, 1000, seed=3))


@pytest.mark.parametrize(
    "rows", [1, ENERGY_CHUNK_ROWS - 1, ENERGY_CHUNK_ROWS, ENERGY_CHUNK_ROWS + 1]
)
def test_energies_chunk_boundaries_bit_identical(rows):
    h = LatticeHamiltonian("ACDEFGHIKLMNP")
    turns = random_conformations(13, rows, seed=rows)
    assert_batch_matches_oracle(h, turns)


def test_energies_many_contact_conformation():
    # A compact 14-residue fold with at least 8 non-local contacts.
    turns = random_conformations(14, 20000, seed=11)
    compact = max(turns, key=oracle_contacts)
    assert oracle_contacts(compact) >= 8
    h = LatticeHamiltonian("WWLLIIFFVVMMAA")
    assert_batch_matches_oracle(h, compact[None, :])
    assert h.breakdown(compact).total == oracle_energy(h, compact)


def test_energies_validates_shape_and_range():
    h = LatticeHamiltonian("ACDEF")
    assert h.energies(np.empty((0, 4), dtype=int)).total.shape == (0,)
    with pytest.raises(HamiltonianError):
        h.energies(np.zeros((3, 5), dtype=int))
    with pytest.raises(LatticeError):
        h.energies([[0, 1, 4, 1]])


# -- callers of the batched kernel agree with the scalar path ----------------------------


def reference_decode(h: LatticeHamiltonian, counts: dict[str, int]):
    """The one-bitstring-at-a-time decoder: (turns, energy, bitstring, valid)."""
    width = h.encoding.configuration_qubits
    best_any = best_valid = None
    seen = set()

    def better(candidate, incumbent):
        if incumbent is None:
            return True
        if candidate[1] < incumbent[1] - 1e-9:
            return True
        if abs(candidate[1] - incumbent[1]) <= 1e-9:
            return candidate[0] < incumbent[0]
        return False

    for bits in counts:
        key = bits[:width]
        if key in seen:
            continue
        seen.add(key)
        turns = tuple(h.encoding.turns_from_bits(bits))
        _, geometric, clash, _ = oracle_terms(h, turns)
        conf = (turns, oracle_energy(h, turns), key, clash == 0.0 and geometric == 0.0)
        if better(conf, best_any):
            best_any = conf
        if conf[3] and better(conf, best_valid):
            best_valid = conf
    return best_valid if best_valid is not None else best_any


@pytest.mark.parametrize("sequence", ["ACDEF", "PWWERYQP", "WWLLIIFFVVMMAA"])
def test_decode_counts_matches_scalar_decoder(sequence):
    h = LatticeHamiltonian(sequence)
    rng = np.random.default_rng(len(sequence))
    width = h.encoding.configuration_qubits
    # Extra interaction-register bits make some configurations repeat.
    samples = rng.integers(0, 2, size=(600, width + 3))
    samples[:, : min(width, 4)] = 0
    counts = {"".join(map(str, row)): 1 for row in samples}
    decoded = ConformationDecoder(h).decode_counts(counts)
    turns, energy, bitstring, valid = reference_decode(h, counts)
    assert decoded.turns == turns
    assert decoded.energy == energy
    assert decoded.bitstring == bitstring
    assert decoded.valid == valid
    assert np.array_equal(decoded.ca_coords, oracle_coords(np.array(turns), CA_VIRTUAL_BOND))


def test_decode_counts_tie_goes_to_smaller_turns():
    h = LatticeHamiltonian("ACDEF")
    dec = ConformationDecoder(h)
    bits = [h.encoding.bits_from_turns([0, 1, 2, 1]), h.encoding.bits_from_turns([0, 1, 0, 1])]
    # The same configuration listed twice never changes the winner, in either order.
    for order in (bits, bits[::-1]):
        counts = {b: 1 for b in order}
        assert dec.decode_counts(counts).turns == reference_decode(h, counts)[0]


def reference_solve_exact(h: LatticeHamiltonian):
    n_free = h.encoding.num_free_turns
    best_turns, best_energy, count = None, np.inf, 0
    for code in range(4**n_free):
        free = [(code >> (2 * k)) & 3 for k in range(n_free)]
        turns = ([0, 1] + free)[: h.encoding.length - 1]
        count += 1
        e = oracle_energy(h, turns)
        if e < best_energy - 1e-9 or (
            abs(e - best_energy) <= 1e-9
            and best_turns is not None
            and tuple(turns) < tuple(best_turns)
        ):
            best_energy = min(e, best_energy)
            best_turns = list(turns)
    return tuple(best_turns), best_energy, count


@pytest.mark.parametrize("sequence", ["RYRDV", "SIHSYS", "PWWERYQP", "EDACQGDSG"])
def test_solve_exact_matches_scalar_enumeration(sequence):
    h = LatticeHamiltonian(sequence)
    result = ClassicalFoldingSolver(h).solve_exact()
    turns, energy, count = reference_solve_exact(h)
    assert result.turns == turns
    assert result.energy == energy
    assert result.evaluations == count
    assert np.array_equal(result.ca_coords, oracle_coords(np.array(turns), CA_VIRTUAL_BOND))


def test_solve_annealing_memo_matches_scalar_annealing(monkeypatch):
    h = LatticeHamiltonian("EDACQGDSGGKL")
    solver = ClassicalFoldingSolver(h)
    fast = solver.solve_annealing(seed=4, sweeps=60)
    calls = []

    def scalar_energy(turns):
        calls.append(1)
        return oracle_energy(h, turns)

    # Without the memo every move is scored afresh by the scalar formula.
    monkeypatch.setattr(h, "energy", scalar_energy)
    slow = solver.solve_annealing(seed=4, sweeps=60)
    assert fast.turns == slow.turns
    assert fast.energy == slow.energy
    assert fast.evaluations == slow.evaluations
    assert np.array_equal(fast.ca_coords, slow.ca_coords)
    assert len(calls) < slow.evaluations  # the memo really skipped revisits


class ReferenceExpectationCache:
    """One-key-at-a-time FIFO energy cache over the scalar oracle."""

    def __init__(self, h: LatticeHamiltonian, max_entries):
        self.h, self.max_entries = h, max_entries
        self.cache, self.hits, self.misses, self.evictions = {}, 0, 0, 0

    def energy_of_bits(self, key: str) -> float:
        cached = self.cache.get(key)
        if cached is None:
            self.misses += 1
            cached = self.cache[key] = oracle_energy(self.h, self.h.encoding.turns_from_bits(key))
            while self.max_entries is not None and len(self.cache) > self.max_entries:
                self.cache.pop(next(iter(self.cache)))
                self.evictions += 1
        else:
            self.hits += 1
        return cached


@pytest.mark.parametrize("max_entries", [None, 32])
def test_unique_config_energies_match_scalar_cache(max_entries):
    h = LatticeHamiltonian("WWLLIIFFVVMMAA")
    width = h.encoding.configuration_qubits
    exp = DiagonalExpectation(h, max_entries=max_entries)
    ref = ReferenceExpectationCache(h, max_entries)
    rng = np.random.default_rng(9)
    for free_bits in (4, 6, 4, 5, 3, 6):
        # Few free bits per batch: batches overlap, so the capped cache both
        # hits and evicts, within a batch and across batches.
        samples = np.zeros((200, width + 2), dtype=np.uint8)
        samples[:, width - free_bits :] = rng.integers(0, 2, size=(200, free_bits + 2))
        energies, _, _ = exp._unique_config_energies(samples)
        uniq = np.unique(samples[:, :width], axis=0)
        expected = [ref.energy_of_bits("".join(map(str, row))) for row in uniq]
        assert energies.tolist() == expected
        assert list(exp._cache.items()) == list(ref.cache.items())
        info = exp.cache_info()
        assert (info["hits"], info["misses"], info["evictions"]) == (
            ref.hits, ref.misses, ref.evictions
        )
    if max_entries is not None:
        assert exp.cache_info()["evictions"] > 0 and exp.cache_info()["hits"] > 0
