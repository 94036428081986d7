"""Point types, coordinate conversions and the padded bounds of a grid."""

import math

import numpy as np
import pytest

from cylpc import (
    CartesianPoint,
    CoordinateSystem,
    CylindricalPoint,
    InvalidInputError,
    PointCloud,
    make_config,
    to_cartesian,
)
from cylpc.geometry import cylindrical_axes


def box_bounds(pc):
    """(x0, y0, z0, W) of the Cartesian grid around ``pc``, whose sides are all W."""
    cfg = make_config(pc, CoordinateSystem.CARTESIAN, 1)
    assert cfg.extents == (cfg.extents[0],) * 3
    return (*cfg.origin, cfg.extents[0])


def cylinder_bounds(pc):
    """(R, H, h_min) of the cylindrical grid around ``pc``, whose angular
    axis is [-pi, pi)."""
    cfg = make_config(pc, CoordinateSystem.CYLINDRICAL, 1)
    assert (cfg.origin[:2], cfg.extents[1]) == ((0.0, -math.pi), 2.0 * math.pi)
    return cfg.extents[0], cfg.extents[2], cfg.origin[2]


def cyl(x, y, z):
    """(r, theta, h) of one point through the vectorized conversion."""
    return tuple(float(a[0]) for a in cylindrical_axes(np.array([[x, y, z]])))


def scalar_cylindrical(x, y, z):
    """Per-point reference: atan2 canonicalized to [-pi, pi), theta 0 on the axis."""
    r = math.hypot(x, y)
    theta = 0.0 if r == 0.0 else math.atan2(y, x)
    return r, -math.pi if theta >= math.pi else theta, z


def test_positive_x_axis():
    assert cyl(1.0, 0.0, 5.0) == (1.0, 0.0, 5.0)


def test_diagonal_symmetry():
    r, theta, h = cyl(1.0, 1.0, 0.0)
    assert r == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert theta == pytest.approx(math.pi / 4.0, rel=1e-15)
    assert h == 0.0


def test_axis_point_theta_convention():
    assert cyl(0.0, 0.0, 3.0) == (0.0, 0.0, 3.0)
    # negative zero x must not flip theta to pi
    assert cyl(-0.0, 0.0, 3.0)[1] == 0.0


def test_negative_x_axis_maps_into_half_open_interval():
    # atan2 returns +pi here; the conversion canonicalizes it to -pi
    theta = cyl(-1.0, 0.0, 0.0)[1]
    assert theta == -math.pi
    assert -math.pi <= theta < math.pi


def test_to_cartesian_quarter_turn():
    p = to_cartesian(CylindricalPoint(2.0, math.pi / 2.0, -1.0))
    assert p.x == pytest.approx(0.0, abs=1e-15)
    assert p.y == pytest.approx(2.0, rel=1e-15)
    assert p.z == -1.0


def test_round_trip_random_points():
    rng = np.random.default_rng(0)
    xyz = rng.uniform(-100.0, 100.0, (1000, 3))
    for (x, y, z), row in zip(xyz, np.column_stack(cylindrical_axes(xyz))):
        q = to_cartesian(CylindricalPoint(*row))
        assert q.x == pytest.approx(x, rel=1e-12, abs=1e-12)
        assert q.y == pytest.approx(y, rel=1e-12, abs=1e-12)
        assert q.z == z


def test_vectorized_conversion_matches_scalar():
    rng = np.random.default_rng(1)
    xyz = rng.uniform(-50.0, 50.0, (200, 3))
    rth = np.column_stack(cylindrical_axes(xyz))
    for row, (x, y, z) in zip(rth, xyz):
        r, theta, h = scalar_cylindrical(x, y, z)
        assert row[0] == pytest.approx(r, rel=1e-14)
        assert row[1] == pytest.approx(theta, rel=1e-14, abs=1e-14)
        assert row[2] == h
    r, theta, h = rth.T
    back = np.column_stack((r * np.cos(theta), r * np.sin(theta), h))
    np.testing.assert_allclose(back, xyz, rtol=1e-12, atol=1e-12)


def test_theta_always_in_half_open_interval():
    rng = np.random.default_rng(2)
    xyz = rng.normal(0.0, 10.0, (5000, 3))
    theta = cylindrical_axes(xyz)[1]
    assert (theta >= -math.pi).all()
    assert (theta < math.pi).all()


def test_non_finite_point_rejected():
    with pytest.raises(InvalidInputError):
        CartesianPoint(math.nan, 0.0, 0.0)
    with pytest.raises(InvalidInputError):
        CylindricalPoint(1.0, math.inf, 0.0)
    with pytest.raises(InvalidInputError):
        CylindricalPoint(-1.0, 0.0, 0.0)


def test_point_cloud_validation():
    with pytest.raises(InvalidInputError):
        PointCloud(np.zeros((2, 3)), np.array([0.0, 300.0]))
    with pytest.raises(InvalidInputError):
        PointCloud(np.array([[np.inf, 0, 0]]), np.array([1.0]))
    with pytest.raises(InvalidInputError):
        PointCloud(np.zeros((2, 3)), np.zeros(3))
    for xyz in (np.zeros((2, 2)), np.zeros(3), np.zeros((2, 3, 1))):
        with pytest.raises(InvalidInputError, match=r"xyz must have shape \(N, 3\)"):
            PointCloud(xyz, np.zeros(len(xyz)))


def test_point_cloud_leaves_the_callers_arrays_writable():
    xyz, attrs = np.zeros((3, 3)), np.zeros(3)
    pc = PointCloud(xyz, attrs)
    xyz[0, 0] = 1.0
    attrs[0] = 2.0
    for held in (pc.xyz, pc.attributes):
        assert not held.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 0.0


def test_bounding_cylinder_single_point():
    pc = PointCloud(np.array([[3.0, 4.0, 2.0]]), np.array([7.0]))
    radius, height, h_min = cylinder_bounds(pc)
    assert radius == pytest.approx(5.0, rel=1e-6)
    assert radius > 5.0  # padded
    assert h_min == 2.0
    assert 0.0 < height < 1e-6


def test_bounding_cylinder_two_points():
    pc = PointCloud(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 5.0]]), np.array([0.0, 0.0]))
    radius, height, h_min = cylinder_bounds(pc)
    assert radius == pytest.approx(2.0, rel=1e-6)
    assert h_min == 0.0
    assert height == pytest.approx(5.0, rel=1e-6)
    assert height > 5.0


def test_bounding_box_two_points():
    pc = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]), np.array([0.0, 0.0]))
    x0, y0, z0, side = box_bounds(pc)
    assert (x0, y0, z0) == (0.0, 0.0, 0.0)
    assert side == pytest.approx(3.0, rel=1e-6)
    assert side > 3.0


def test_bounding_volumes_contain_all_points():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = rng.integers(1, 200)
        xyz = rng.normal(0.0, rng.uniform(0.1, 50.0), (n, 3))
        pc = PointCloud(xyz, np.full(n, 100.0))
        x0, y0, z0, side = box_bounds(pc)
        radius, height, h_min = cylinder_bounds(pc)
        assert (xyz >= np.array([x0, y0, z0]) - 1e-12).all()
        assert (xyz < np.array([x0, y0, z0]) + side).all()
        r = np.hypot(xyz[:, 0], xyz[:, 1])
        assert (r <= radius).all()
        assert (xyz[:, 2] >= h_min).all()
        assert (xyz[:, 2] <= h_min + height).all()


def test_empty_cloud_rejected_by_bounds():
    empty = PointCloud(np.empty((0, 3)), np.empty(0))
    with pytest.raises(InvalidInputError):
        box_bounds(empty)
    with pytest.raises(InvalidInputError):
        cylinder_bounds(empty)
