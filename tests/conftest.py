"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.config import PipelineConfig


@pytest.fixture(scope="session")
def tiny_config() -> PipelineConfig:
    """A minimal configuration keeping unit tests fast while exercising every stage."""
    return PipelineConfig(
        vqe_iterations=10,
        optimisation_shots=64,
        final_shots=256,
        ansatz_reps=1,
        docking_seeds=2,
        docking_poses=3,
        docking_mc_steps=40,
        seed=7,
    )


@pytest.fixture(scope="session")
def fast_config() -> PipelineConfig:
    """The library's fast preset (used by integration tests)."""
    return PipelineConfig.fast()
