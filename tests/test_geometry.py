"""Unit and property tests for the 3D geometry kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.bio.geometry import (
    angle_between,
    apply_transform,
    dihedral_angle,
    kabsch_rotation,
    pairwise_distances,
    radius_of_gyration,
    random_rotation,
    rotation_matrices,
    rotation_matrix,
    superimpose,
)

finite_floats = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
point_sets = arrays(np.float64, st.tuples(st.integers(3, 12), st.just(3)), elements=finite_floats)


def test_rotation_matrix_is_orthogonal():
    rot = rotation_matrix(np.array([1.0, 2.0, 3.0]), 0.7)
    assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
    assert np.isclose(np.linalg.det(rot), 1.0)


def test_rotation_matrix_zero_axis_raises():
    with pytest.raises(ValueError):
        rotation_matrix(np.zeros(3), 0.5)


def _scalar_rodrigues(axis, angle):
    """The one-axis Rodrigues formula, frozen: ``np.linalg.norm`` and Python scalars."""
    axis = np.asarray(axis, dtype=float)
    x, y, z = axis / np.linalg.norm(axis)
    c, s = np.cos(angle), np.sin(angle)
    C = 1.0 - c
    return np.array(
        [
            [x * x * C + c, x * y * C - z * s, x * z * C + y * s],
            [y * x * C + z * s, y * y * C + c, y * z * C - x * s],
            [z * x * C - y * s, z * y * C + x * s, z * z * C + c],
        ]
    )


@pytest.mark.parametrize("count", [1, 2, 5, 7, 8, 25])
def test_rotation_matrices_match_the_scalar_formula_bitwise(count):
    rng = np.random.default_rng(count)
    for _ in range(40):
        axes = rng.normal(size=(count, 3)) * 10.0 ** rng.uniform(-150, 150, size=(count, 1))
        angles = rng.normal(scale=rng.choice([1e-8, 0.5, 3.0, 100.0]), size=count)
        stacked = rotation_matrices(axes, angles)
        assert stacked.shape == (count, 3, 3)
        for axis, angle, rot in zip(axes, angles, stacked):
            assert np.array_equal(rot, _scalar_rodrigues(axis, float(angle)))
            assert np.array_equal(rot, rotation_matrix(axis, float(angle)))


def test_rotation_matrices_edge_angles_and_axis_norms():
    axes = np.array(
        [[1.0, 2.0, 3.0], [1e-150, -2e-150, 5e-151], [1e150, 3e150, -2e150], [0.0, 0.0, -4.0]]
    )
    for angle in (0.0, np.pi, -np.pi, -0.0):
        stacked = rotation_matrices(axes, np.full(len(axes), angle))
        for axis, rot in zip(axes, stacked):
            assert np.array_equal(rot, _scalar_rodrigues(axis, angle))
    assert np.array_equal(rotation_matrices(axes, np.zeros(4)), np.broadcast_to(np.eye(3), (4, 3, 3)))


def test_rotation_matrices_zero_axis_raises():
    axes = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        rotation_matrices(axes, np.array([0.3, 0.5]))


def test_angle_between_orthogonal_vectors():
    assert angle_between([1, 0, 0], [0, 1, 0]) == pytest.approx(np.pi / 2)


def test_dihedral_of_planar_points_is_pi_or_zero():
    p0, p1, p2, p3 = [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]
    assert np.sin(dihedral_angle(p0, p1, p2, p3)) == pytest.approx(0.0, abs=1e-9)


def test_pairwise_distances_matches_norm():
    a = np.array([[0.0, 0, 0], [3.0, 4.0, 0]])
    d = pairwise_distances(a)
    assert d[0, 1] == pytest.approx(5.0)
    assert d[1, 0] == pytest.approx(5.0)
    assert np.allclose(np.diag(d), 0.0)


@given(point_sets, st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_superimpose_recovers_rigid_transform(points, seed):
    rng = np.random.default_rng(seed)
    rot = random_rotation(rng)
    translation = rng.normal(scale=5.0, size=3)
    moved = points @ rot.T + translation
    aligned, _r, _t = superimpose(moved, points)
    assert np.allclose(aligned, points, atol=1e-6)


@given(point_sets)
@settings(max_examples=25, deadline=None)
def test_kabsch_returns_proper_rotation(points):
    centred = points - points.mean(axis=0)
    rot = kabsch_rotation(centred, centred[::-1] - centred[::-1].mean(axis=0))
    assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-8)
    assert np.isclose(np.linalg.det(rot), 1.0, atol=1e-8)


@given(point_sets, st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_radius_of_gyration_rotation_invariant(points, seed):
    rng = np.random.default_rng(seed)
    rot = random_rotation(rng)
    rotated = apply_transform(points, rot, np.zeros(3))
    assert radius_of_gyration(points) == pytest.approx(radius_of_gyration(rotated), rel=1e-9, abs=1e-9)


def test_superimpose_shape_mismatch_raises():
    with pytest.raises(ValueError):
        superimpose(np.zeros((4, 3)), np.zeros((5, 3)))
