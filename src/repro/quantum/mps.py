"""Matrix-product-state (MPS) circuit simulator.

The folding circuits the paper runs are EfficientSU2 ansaetze with *linear*
(nearest-neighbour) entanglement and a small number of repetitions.  Such
circuits generate bounded entanglement across every cut, so they are exactly
representable as an MPS with a modest bond dimension (``2**reps``), and can be
simulated for 100+ qubits — which is how this reproduction executes the
92–102-qubit L-group fragments that are far beyond statevector reach.

Implementation notes
--------------------
* Site tensors ``A[k]`` have shape ``(chi_left, 2, chi_right)``.
* Two-qubit gates act on adjacent sites via a theta-tensor SVD with truncation
  to the configured maximum bond dimension.
* Sampling uses exact right environments plus a *vectorised* left-to-right
  conditional sweep: all shots advance through the chain simultaneously, so
  the inner loop is O(n_sites) matrix products regardless of the shot count.
* Every contraction is reshapes plus ``@`` on contiguous operands.  The
  operands are small (bond dimension 2 to 16), so what a contraction costs is
  its per-call overhead, and a general contraction routine that plans its
  path on every call is several times slower here than a direct product.

Contract
--------
Amplitudes and site tensors are reproducible only up to floating-point
summation order and the SVD gauge, so they are not what results depend on.
What is fixed is the *sampled bitstrings*: one ``rng.random(shots)`` draw per
site in site order, compared ``< prob1`` against the conditional probability
of a 1, with the same clipping, zero-total handling and SVD truncation rule.
Every fold result is a function of those bitstrings, and the test suite
checks them ``==`` against a frozen copy of the index-notation formulas
this module used to run.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import BackendError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.gates import gate_matrix


def _row_quadratic_forms(w: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``Re(w[s] @ r @ w[s].conj())`` for every row ``s`` of ``w``.

    Over the float views, the real part of ``(w r) * conj(w)`` summed along a
    row is a plain elementwise product summed along the row.
    """
    weighted = (w @ r).view(np.float64)
    weighted *= w.view(np.float64)
    return weighted @ np.ones(weighted.shape[1])


class MPSState:
    """An MPS over ``n`` qubits, initialised to |0...0>."""

    def __init__(self, num_qubits: int, max_bond_dimension: int = 16):
        if num_qubits < 1:
            raise BackendError(f"MPS needs at least one qubit, got {num_qubits}")
        if max_bond_dimension < 1:
            raise BackendError(f"bond dimension must be >= 1, got {max_bond_dimension}")
        self.num_qubits = int(num_qubits)
        self.max_bond_dimension = int(max_bond_dimension)
        self.tensors: list[np.ndarray] = []
        for _ in range(self.num_qubits):
            t = np.zeros((1, 2, 1), dtype=complex)
            t[0, 0, 0] = 1.0
            self.tensors.append(t)
        self.truncation_error = 0.0

    # -- gate application ---------------------------------------------------------

    def apply_single(self, matrix: np.ndarray, qubit: int) -> None:
        """Apply a 2x2 unitary to one site."""
        self.tensors[qubit] = matrix @ self.tensors[qubit]

    def apply_two(self, matrix: np.ndarray, q0: int, q1: int) -> None:
        """Apply a 4x4 unitary to two *adjacent* sites (q1 == q0 + 1 or q0 == q1 + 1)."""
        if abs(q0 - q1) != 1:
            raise BackendError(
                f"MPS backend only supports nearest-neighbour two-qubit gates, got ({q0}, {q1})"
            )
        left, right = (q0, q1) if q0 < q1 else (q1, q0)
        gate = matrix
        if q0 > q1:
            # The gate was specified with (control, target) = (q0, q1); swap its
            # qubit legs so that leg order matches (left, right).
            gate = matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)

        a, b = self.tensors[left], self.tensors[right]
        chi_l, _, chi_m = a.shape
        _, _, chi_r = b.shape
        # theta[a, (i j), c] = sum_b A[a, i, b] B[b, j, c]; the gate then acts
        # on the (i j) leg of every left-bond slice.
        theta = (a.reshape(chi_l * 2, chi_m) @ b.reshape(chi_m, 2 * chi_r)).reshape(chi_l, 4, chi_r)
        theta = (gate @ theta).reshape(chi_l * 2, 2 * chi_r)

        u, s, vh = np.linalg.svd(theta, full_matrices=False)
        keep = min(self.max_bond_dimension, int(np.count_nonzero(s > 1e-14)) or 1)
        if keep < s.size:
            discarded = float(np.sum(s[keep:] ** 2))
            self.truncation_error += discarded
        u, s, vh = u[:, :keep], s[:keep], vh[:keep, :]
        self.tensors[left] = np.ascontiguousarray(u.reshape(chi_l, 2, keep))
        self.tensors[right] = np.ascontiguousarray((s[:, None] * vh).reshape(keep, 2, chi_r))

    # -- observables ----------------------------------------------------------------

    def right_environments(self) -> list[np.ndarray]:
        """Exact right environments R[k] (shape (chi_k, chi_k)); R[n] = [[1]]."""
        envs: list[np.ndarray] = [np.array([[1.0 + 0j]])] * (self.num_qubits + 1)
        env = np.array([[1.0 + 0j]])
        for k in range(self.num_qubits - 1, -1, -1):
            a = self.tensors[k]
            chi_l, _, chi_r = a.shape
            # R[k][a, d] = sum_{i, b, c} A[a, i, b] R[k+1][b, c] conj(A[d, i, c])
            left = (a.reshape(chi_l * 2, chi_r) @ env).reshape(chi_l, 2 * chi_r)
            env = left @ a.reshape(chi_l, 2 * chi_r).conj().T
            envs[k] = env
        return envs

    def norm_squared(self) -> float:
        """<psi|psi> (1 up to truncation error)."""
        return float(np.real(self.right_environments()[0][0, 0]))

    def amplitude(self, bits: str) -> complex:
        """Amplitude of one computational-basis state."""
        if len(bits) != self.num_qubits:
            raise BackendError(
                f"bitstring length {len(bits)} does not match {self.num_qubits} qubits"
            )
        vec = np.array([1.0 + 0j])
        for k, ch in enumerate(bits):
            vec = vec @ self.tensors[k][:, int(ch), :]
        return complex(vec[0])

    def sample(self, shots: int, rng: np.random.Generator) -> np.ndarray:
        """Sample ``shots`` bitstrings; returns (shots, n) uint8 array.

        All shots advance together; the per-site cost is six matrix products,
        whatever the shot count.  The chosen branch overwrites the other in
        place, so no third (shots, chi) array is allocated per site.
        """
        if shots <= 0:
            raise BackendError(f"shots must be positive, got {shots}")
        envs = self.right_environments()
        n = self.num_qubits
        samples = np.empty((shots, n), dtype=np.uint8)
        vec = np.ones((shots, 1), dtype=complex)  # partial amplitudes per shot
        for k in range(n):
            a = self.tensors[k]
            r = envs[k + 1]
            # w[b] = vec @ A[:, b, :], shape (shots, chi_right); p[b] = Re(w R w^dagger)
            w0 = vec @ np.ascontiguousarray(a[:, 0, :])
            w1 = vec @ np.ascontiguousarray(a[:, 1, :])
            p0 = np.clip(_row_quadratic_forms(w0, r), 0.0, None)
            p1 = np.clip(_row_quadratic_forms(w1, r), 0.0, None)
            total = p0 + p1
            total[total <= 0] = 1.0
            prob1 = p1 / total
            draws = rng.random(shots) < prob1
            samples[:, k] = draws
            w0[draws] = w1[draws]
            vec = w0
        return samples


class MPSSimulator:
    """Runs bound circuits on :class:`MPSState`."""

    def __init__(self, max_bond_dimension: int = 16):
        self.max_bond_dimension = int(max_bond_dimension)

    def run(self, circuit: QuantumCircuit) -> MPSState:
        """Evolve |0...0> through ``circuit`` and return the final MPS."""
        if not circuit.is_bound:
            raise BackendError("cannot simulate a circuit with unbound parameters")
        state = MPSState(circuit.num_qubits, self.max_bond_dimension)
        for inst in circuit.instructions:
            if inst.name == "barrier":
                continue
            matrix = gate_matrix(inst.name, tuple(float(p) for p in inst.params))
            if inst.num_qubits == 1:
                state.apply_single(matrix, inst.qubits[0])
            elif inst.num_qubits == 2:
                state.apply_two(matrix, inst.qubits[0], inst.qubits[1])
            else:
                raise BackendError(
                    f"MPS backend supports 1- and 2-qubit gates only, got {inst.name!r} "
                    f"on {inst.num_qubits} qubits"
                )
        return state

    def sample(self, circuit: QuantumCircuit, shots: int, rng: np.random.Generator) -> np.ndarray:
        """Run and sample; returns (shots, n) uint8 array."""
        return self.run(circuit).sample(shots, rng)

    def statevector(self, circuit: QuantumCircuit) -> np.ndarray:
        """Dense statevector (small circuits only; used to cross-check against the exact simulator)."""
        state = self.run(circuit)
        n = state.num_qubits
        if n > 20:
            raise BackendError("refusing to densify an MPS with more than 20 qubits")
        amps = np.zeros(2**n, dtype=complex)
        for idx in range(2**n):
            bits = format(idx, f"0{n}b")
            amps[idx] = state.amplitude(bits)
        return amps
