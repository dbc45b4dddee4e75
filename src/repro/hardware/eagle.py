"""The emulated IBM Eagle r3 device and its sampling backend.

:class:`EagleDevice` bundles the topology, native basis, noise model, timing
and cost models of the 127-qubit processor the paper runs on.
:class:`EagleEmulatorBackend` is the execution backend used by the VQE driver
when emulating hardware: it transpiles the incoming circuit, simulates the
ideal distribution with the MPS engine, perturbs the sampled bitstrings with
the device noise model, and records per-job execution metadata (depth, SWAPs,
estimated QPU seconds) that the dataset builder stores alongside each
prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hardware.cost import CostModel
from repro.hardware.coupling import EAGLE_QUBITS, heavy_hex_coupling_map
from repro.hardware.routing import LinearChainRouter
from repro.hardware.timing import ExecutionTimeModel
from repro.hardware.transpiler import TranspiledCircuit, Transpiler
from repro.quantum.backend import Backend, MPSBackend
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise import NoiseModel


@dataclass
class EagleDevice:
    """Static description of the emulated processor."""

    name: str = "ibm_eagle_r3_emulated"
    num_qubits: int = EAGLE_QUBITS
    basis_gates: tuple[str, ...] = ("ecr", "id", "rz", "sx", "x")
    noise_model: NoiseModel = field(default_factory=NoiseModel.eagle_r3)
    timing_model: ExecutionTimeModel = field(default_factory=ExecutionTimeModel)
    cost_model: CostModel = field(default_factory=CostModel)
    defective_qubits: tuple[int, ...] = ()

    def transpiler(self, ancilla_margin: int = 5) -> Transpiler:
        """A transpiler targeting this device."""
        router = LinearChainRouter(heavy_hex_coupling_map())
        return Transpiler(router=router, ancilla_margin=ancilla_margin)


@dataclass(frozen=True)
class JobRecord:
    """Execution metadata of one sampling job on the emulator."""

    num_qubits: int
    shots: int
    reported_depth: int
    swap_count: int
    noisy: bool


class EagleEmulatorBackend(Backend):
    """Noisy sampling backend emulating the utility-level processor."""

    name = "eagle_emulator"

    def __init__(
        self,
        device: EagleDevice | None = None,
        ancilla_margin: int = 5,
        max_bond_dimension: int = 16,
        noise_enabled: bool = True,
    ):
        self.device = device or EagleDevice()
        self.noise_enabled = bool(noise_enabled)
        self._transpiler = self.device.transpiler(ancilla_margin=ancilla_margin)
        self._mps = MPSBackend(max_bond_dimension=max_bond_dimension)
        self._transpile_cache: dict[tuple[str, int], TranspiledCircuit] = {}
        self.job_records: list[JobRecord] = []

    # -- transpilation -----------------------------------------------------------

    def transpile(self, circuit: QuantumCircuit) -> TranspiledCircuit:
        """Transpile (with caching keyed on circuit name and width)."""
        key = (circuit.name, circuit.num_qubits)
        cached = self._transpile_cache.get(key)
        if cached is None:
            cached = self._transpiler.transpile(
                circuit, defective_qubits=self.device.defective_qubits
            )
            self._transpile_cache[key] = cached
        return cached

    # -- execution -----------------------------------------------------------------

    def sample_array(self, circuit: QuantumCircuit, shots: int, rng: np.random.Generator) -> np.ndarray:
        transpiled = self.transpile(circuit)
        samples = self._mps.sample_array(circuit, shots, rng)
        if self.noise_enabled:
            samples = self.device.noise_model.apply(
                samples,
                rng,
                depth=transpiled.reported_depth,
                two_qubit_gates_per_qubit=transpiled.two_qubit_gates_per_qubit,
            )
        self.job_records.append(
            JobRecord(
                num_qubits=circuit.num_qubits,
                shots=shots,
                reported_depth=transpiled.reported_depth,
                swap_count=transpiled.routing.swap_count,
                noisy=self.noise_enabled,
            )
        )
        return samples

    # -- reporting -------------------------------------------------------------------

    def total_shots(self) -> int:
        """Total shots executed across all jobs on this backend instance."""
        return sum(job.shots for job in self.job_records)
