"""Tests for the shared utilities: RNG derivation, JSON I/O, config, package imports."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro
from repro.config import PipelineConfig
from repro.utils.io import read_json, write_json
from repro.utils.rng import child_seed, rng_for, spawn_rngs, stable_fraction
from repro.utils.validation import as_points, require_in_range, require_positive


# -- rng ------------------------------------------------------------------------


def test_child_seed_deterministic_and_distinct():
    assert child_seed(1, "a") == child_seed(1, "a")
    assert child_seed(1, "a") != child_seed(1, "b")
    assert child_seed(1, "a") != child_seed(2, "a")


@given(st.integers(0, 2**31), st.text(max_size=10))
def test_child_seed_in_64_bit_range(seed, key):
    value = child_seed(seed, key)
    assert 0 <= value < 2**64


def test_rng_for_reproducible_streams():
    a = rng_for(5, "task", 1).random(4)
    b = rng_for(5, "task", 1).random(4)
    assert np.allclose(a, b)


def test_spawn_rngs_independent():
    rngs = spawn_rngs(0, 3)
    values = [r.random() for r in rngs]
    assert len(set(values)) == 3


def test_stable_fraction_bounds():
    for key in ("a", "b", "exec-queue", 123):
        f = stable_fraction(key)
        assert 0.0 <= f < 1.0
        assert f == stable_fraction(key)


# -- io ----------------------------------------------------------------------------------


def test_json_roundtrip_with_numpy(tmp_path):
    data = {"array": np.arange(3), "value": np.float64(1.5), "flag": np.bool_(True)}
    path = write_json(tmp_path / "sub" / "data.json", data)
    loaded = read_json(path)
    assert loaded == {"array": [0, 1, 2], "value": 1.5, "flag": True}


# -- validation ----------------------------------------------------------------------------


def test_validation_helpers():
    assert require_positive("x", 2.0) == 2.0
    with pytest.raises(ValueError):
        require_positive("x", 0.0)
    with pytest.raises(ValueError):
        require_in_range("y", 5.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        as_points([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_points([[np.inf, 0.0, 0.0]])


# -- config ---------------------------------------------------------------------------------


def test_config_presets_and_updates():
    paper = PipelineConfig.paper()
    fast = PipelineConfig.fast()
    assert paper.final_shots == 100_000
    assert paper.vqe_iterations > fast.vqe_iterations
    updated = fast.with_updates(docking_seeds=9)
    assert updated.docking_seeds == 9
    assert fast.docking_seeds != 9  # original untouched (frozen dataclass)


# -- package import ---------------------------------------------------------------


def test_import_repro_defers_scipy_optimize_and_networkx():
    # Folding imports scipy.optimize and the coupling-map builders import
    # networkx on first use; a bare ``import repro`` must pay for neither.
    src = Path(repro.__file__).resolve().parents[1]
    probe = "import sys, repro; print(sorted({'scipy.optimize', 'networkx'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "[]"


def test_library_modules_leave_logging_unconfigured():
    # Only the console tools' main() functions configure logging; importing
    # any library module must leave every repro logger handler-free and
    # propagating, so applications and test harnesses see its records.
    src = Path(repro.__file__).resolve().parents[1]
    probe = (
        "import importlib, logging, pkgutil, repro\n"
        "for mod in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(mod.name)\n"
        "loggers = [logging.getLogger('repro')] + [\n"
        "    logger for name, logger in logging.Logger.manager.loggerDict.items()\n"
        "    if name.startswith('repro.') and isinstance(logger, logging.Logger)]\n"
        "print(len(loggers), sorted(l.name for l in loggers if l.handlers or not l.propagate))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    count, misconfigured = out.stdout.strip().split(" ", 1)
    assert int(count) > 1  # the probe saw the library's module loggers
    assert misconfigured == "[]"
