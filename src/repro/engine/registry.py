"""Backend and executor registries: execution strategy resolved by name.

Call sites used to hand-wire simulator objects (``AutoBackend(...)``,
``EagleEmulatorBackend(...)``) wherever a circuit needed sampling.  The
backend registry replaces that with a single factory,
``make_backend(name, config)``, so the backend is a *configuration choice*
(``PipelineConfig.backend``) rather than code: the same pipeline runs on the
exact statevector simulator, the MPS engine, the width-dispatching auto
backend or the noisy Eagle emulator by changing one string.

The *executor registry* is the same idea one level up: every job kind
(``fold``, ``baseline_fold``, ``dock`` — see :mod:`repro.engine.jobs`) maps to
the module-level function that executes one spec of that kind.
:func:`repro.engine.core.execute_job` dispatches through it, which is what
lets one :class:`~repro.engine.core.Engine` run a heterogeneous batch.

Third-party backends and executors can be added at runtime with
:func:`register_backend` / :func:`register_executor`; backend builders receive
the :class:`~repro.config.PipelineConfig` and pull whatever knobs they need
from it.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.config import PipelineConfig
from repro.exceptions import BackendError, EngineError
from repro.quantum.backend import AutoBackend, Backend, MPSBackend, StatevectorBackend

BackendBuilder = Callable[[PipelineConfig], Backend]

#: A job executor: one spec of the registered kind in, its result out.
JobExecutor = Callable[[Any], Any]

_REGISTRY: dict[str, BackendBuilder] = {}

_EXECUTORS: dict[str, JobExecutor] = {}


def register_executor(kind: str, executor: JobExecutor, overwrite: bool = False) -> None:
    """Register the executor function for one job ``kind``.

    Raises :class:`EngineError` if the kind is already taken, unless
    ``overwrite`` is set.  Like backend builders, executors must be picklable
    module-level functions for parallel runs to ship them to workers.
    """
    key = kind.strip().lower()
    if not key:
        raise EngineError("job kind must be a non-empty string")
    if key in _EXECUTORS and not overwrite:
        raise EngineError(f"executor for job kind {key!r} is already registered")
    _EXECUTORS[key] = executor


def executor_kinds() -> tuple[str, ...]:
    """The job kinds currently registered, sorted alphabetically."""
    return tuple(sorted(_EXECUTORS))


def executor_for(kind: str) -> JobExecutor:
    """The executor registered for ``kind`` (raising a clear error when absent).

    Normalised the same way :func:`register_executor` stores kinds, so a
    mixed-case kind resolves to its registration.
    """
    executor = _EXECUTORS.get(kind.strip().lower())
    if executor is None:
        raise EngineError(
            f"no executor registered for job kind {kind!r}; "
            f"registered kinds: {', '.join(executor_kinds())}"
        )
    return executor


def executor_snapshot() -> dict[str, JobExecutor]:
    """A copy of the current executor registry (shipped to worker processes)."""
    return dict(_EXECUTORS)


def restore_registries(
    backends: dict[str, BackendBuilder], executors: dict[str, JobExecutor]
) -> None:
    """Merge both registries into this process (worker-process initializer)."""
    _REGISTRY.update(backends)
    _EXECUTORS.update(executors)


def register_backend(name: str, builder: BackendBuilder, overwrite: bool = False) -> None:
    """Register ``builder`` under ``name`` (lower-cased).

    Raises :class:`BackendError` if the name is already taken, unless
    ``overwrite`` is set (useful for tests that stub a backend out).

    The engine replicates the registry into its worker processes (spawn-based
    start methods do not inherit parent module state), so builders must be
    picklable — define them at module level, not as lambdas or closures — for
    parallel runs to see them.
    """
    key = name.strip().lower()
    if not key:
        raise BackendError("backend name must be a non-empty string")
    if key in _REGISTRY and not overwrite:
        raise BackendError(f"backend {key!r} is already registered")
    _REGISTRY[key] = builder


def backend_names() -> tuple[str, ...]:
    """The names currently registered, sorted alphabetically."""
    return tuple(sorted(_REGISTRY))


def registry_snapshot() -> dict[str, BackendBuilder]:
    """A copy of the current registry (shipped to engine worker processes)."""
    return dict(_REGISTRY)


def make_backend(name: str | None = None, config: PipelineConfig | None = None) -> Backend:
    """Build the backend registered under ``name``, configured from ``config``.

    ``name`` of ``None`` uses ``config.backend`` (the pipeline's configured
    default); ``config`` of ``None`` uses the default :class:`PipelineConfig`.
    """
    config = config or PipelineConfig()
    key = (name or config.backend).strip().lower()
    builder = _REGISTRY.get(key)
    if builder is None:
        raise BackendError(
            f"unknown backend {key!r}; registered backends: {', '.join(backend_names())}"
        )
    return builder(config)


def _plan_cache_size(config: PipelineConfig) -> int:
    # A zero-sized plan cache disables the compiled replay path entirely; the
    # statevector backend then falls back to bind-and-sample.
    return 64 if config.quantum_compiled_plans else 0


def _build_statevector(config: PipelineConfig) -> Backend:
    # An explicit statevector choice should not be capped below the simulator's
    # own default limit just because the auto-dispatch threshold is small.
    return StatevectorBackend(
        max_qubits=max(24, config.max_statevector_qubits),
        plan_cache_size=_plan_cache_size(config),
    )


def _build_mps(config: PipelineConfig) -> Backend:
    return MPSBackend(max_bond_dimension=config.mps_bond_dimension)


def _build_auto(config: PipelineConfig) -> Backend:
    return AutoBackend(
        max_statevector_qubits=config.max_statevector_qubits,
        max_bond_dimension=config.mps_bond_dimension,
        plan_cache_size=_plan_cache_size(config),
    )


def _build_eagle(config: PipelineConfig) -> Backend:
    # Imported lazily: the hardware layer pulls in the full topology /
    # transpiler stack, which most simulator-only runs never need.
    from repro.hardware.eagle import EagleEmulatorBackend

    return EagleEmulatorBackend(
        ancilla_margin=config.ancilla_margin,
        max_bond_dimension=config.mps_bond_dimension,
        noise_enabled=config.noise_enabled,
    )


register_backend("statevector", _build_statevector)
register_backend("mps", _build_mps)
register_backend("auto", _build_auto)
register_backend("eagle", _build_eagle)
register_backend("eagle_emulator", _build_eagle)
