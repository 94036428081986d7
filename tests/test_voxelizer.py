"""Voxel grids, binning, reconstruction and the voxelization error models."""

import math

import numpy as np
import pytest

from cylpc import (
    CoordinateSystem,
    ErrorModel,
    InvalidConfigError,
    InvalidInputError,
    OutOfRangeError,
    PointCloud,
    VoxelGridConfig,
    assign_codes,
    encode_cloud,
    expected_error_cylindrical,
    knn_mean_distance,
    make_config,
    to_cartesian,
    voxel_centers,
    voxelization_error_cylindrical,
    voxelize,
)
from cylpc.geometry import CylindricalPoint, cylindrical_axes
from cylpc.ingest import SweepSpec, synth_sweep
from cylpc.morton import morton_decode, morton_encode
from cylpc.voxelizer import _padded_span


def random_cloud(rng, n, scale=20.0):
    xyz = rng.normal(0.0, scale, (n, 3))
    return PointCloud(xyz, rng.uniform(0.0, 255.0, n))


# ---------------------------------------------------------------- configs


def test_cartesian_step_is_side_over_bins():
    pc = PointCloud(np.array([[0.0, 0.0, 0.0], [8.0, 1.0, 1.0]]), np.zeros(2))
    cfg = make_config(pc, CoordinateSystem.CARTESIAN, 3)
    assert cfg.steps[0] == pytest.approx(8.0 / 8.0, rel=1e-6)
    assert cfg.extents == (cfg.extents[0],) * 3


def test_cylindrical_angular_step():
    rng = np.random.default_rng(0)
    cfg = make_config(random_cloud(rng, 50), CoordinateSystem.CYLINDRICAL, 8)
    assert cfg.steps[1] == pytest.approx(2.0 * math.pi / 256.0, rel=1e-15)
    assert cfg.origin[1] == -math.pi


def test_log_radial_bin_edges_grow_geometrically():
    cfg = VoxelGridConfig(
        system=CoordinateSystem.CYLINDRICAL,
        depth=8,
        origin=(math.log(0.5), -math.pi, 0.0),
        extents=(math.log(128.0) - math.log(0.5), 2.0 * math.pi, 1.0),
        log_radial=True,
    )
    assert cfg.extents[0] == pytest.approx(math.log(256.0), rel=1e-15)
    edges = np.exp(cfg.origin[0] + cfg.steps[0] * np.arange(257))
    ratios = edges[1:] / edges[:-1]
    np.testing.assert_allclose(ratios, 256.0 ** (1.0 / 256.0), rtol=1e-12)
    assert edges[0] == pytest.approx(0.5)
    assert edges[-1] == pytest.approx(128.0)


def test_log_radial_requires_r_min_below_radius():
    pc = PointCloud(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 1.0]]), np.zeros(2))
    with pytest.raises(InvalidConfigError):
        make_config(pc, CoordinateSystem.CYLINDRICAL, 4, log_radial=True, r_min=5.0)
    with pytest.raises(InvalidConfigError):
        make_config(pc, CoordinateSystem.CYLINDRICAL, 4, log_radial=True, r_min=0.0)


def test_log_radial_requires_the_cylindrical_system():
    with pytest.raises(InvalidConfigError, match="log_radial requires the cylindrical system"):
        VoxelGridConfig(CoordinateSystem.CARTESIAN, 4, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0),
                        log_radial=True)


def test_depth_bounds_enforced():
    pc = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), np.zeros(2))
    with pytest.raises(InvalidConfigError):
        make_config(pc, CoordinateSystem.CARTESIAN, 0)
    with pytest.raises(InvalidConfigError):
        make_config(pc, CoordinateSystem.CARTESIAN, 22)


# a string system once went down the cylindrical branch of make_config and
# failed formatting system.value; a float depth failed inside 1 << depth
@pytest.mark.parametrize(
    "system,depth,match",
    [
        ("cartesian", 8, "^system 'cartesian' is not a CoordinateSystem$"),
        ("cylindrical", 8, "^system 'cylindrical' is not a CoordinateSystem$"),
        ("polar", 8, "^system 'polar' is not a CoordinateSystem$"),
        (1, 8, "^system 1 is not a CoordinateSystem$"),
        (None, 8, "^system None is not a CoordinateSystem$"),
        (CoordinateSystem.CARTESIAN, 8.0, "^depth 8.0 is not an integer$"),
        (CoordinateSystem.CYLINDRICAL, "8", "^depth '8' is not an integer$"),
        (CoordinateSystem.CARTESIAN, None, "^depth None is not an integer$"),
        (CoordinateSystem.CARTESIAN, True, "^depth True is not an integer$"),
    ],
)
def test_grids_reject_a_wrong_typed_system_or_depth(system, depth, match):
    pc = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), np.zeros(2))
    with pytest.raises(InvalidConfigError, match=match):
        make_config(pc, system, depth)
    with pytest.raises(InvalidConfigError, match=match):
        encode_cloud(pc, system, depth, 4.0)
    with pytest.raises(InvalidConfigError, match=match):
        VoxelGridConfig(system, depth, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


def test_numpy_integer_depths_still_build_grids():
    pc = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), np.zeros(2))
    assert make_config(pc, CoordinateSystem.CARTESIAN, np.int64(8)).steps[0] > 0.0


# ---------------------------------------------------------------- voxelize


def test_assign_codes_rejects_an_empty_cloud():
    cfg = VoxelGridConfig(CoordinateSystem.CARTESIAN, 4, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    with pytest.raises(InvalidInputError, match="cannot voxelize an empty point cloud"):
        assign_codes(PointCloud(np.zeros((0, 3)), np.zeros(0)), cfg)


def test_single_point_single_voxel():
    pc = PointCloud(np.array([[1.0, 2.0, 3.0]]), np.array([42.0]))
    vc = voxelize(pc, make_config(pc, CoordinateSystem.CARTESIAN, 4))
    assert len(vc) == 1
    assert np.bincount(vc.slots)[0] == 1
    assert vc.attributes[0] == 42.0


def test_two_points_same_voxel_average():
    pc = PointCloud(
        np.array([[1.0, 1.0, 1.0], [1.01, 1.0, 1.0], [50.0, 50.0, 50.0]]),
        np.array([10.0, 20.0, 99.0]),
    )
    vc = voxelize(pc, make_config(pc, CoordinateSystem.CARTESIAN, 3))
    assert len(vc) == 2
    assert vc.n_points == 3
    merged = vc.attributes[np.bincount(vc.slots) == 2]
    assert merged[0] == pytest.approx(15.0)


def test_handcrafted_cloud_matches_exhaustive_bin_oracle():
    rng = np.random.default_rng(4)
    xyz = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.4, 3.9, 1.1],
            [3.9, 0.1, 2.0],
            [1.0, 1.0, 1.0],
            [2.5, 2.5, 2.5],
            [3.999, 3.999, 3.999],
            [0.1, 2.0, 3.0],
            [2.0, 0.5, 0.6],
            [1.5, 3.2, 0.2],
            [3.0, 1.7, 2.9],
        ]
    )
    pc = PointCloud(xyz, rng.uniform(0, 255, 10))
    cfg = make_config(pc, CoordinateSystem.CARTESIAN, 2)
    got = morton_decode(assign_codes(pc, cfg), 2)
    for point, idx in zip(xyz, got):
        for axis in range(3):
            hits = [
                i
                for i in range(4)
                if cfg.origin[axis] + i * cfg.steps[axis]
                <= point[axis]
                < cfg.origin[axis] + (i + 1) * cfg.steps[axis]
            ]
            assert hits == [int(idx[axis])]


def test_cylindrical_binning_matches_interval_oracle():
    rng = np.random.default_rng(5)
    pc = random_cloud(rng, 40)
    for log_radial in (False, True):
        cfg = make_config(
            pc, CoordinateSystem.CYLINDRICAL, 3, log_radial=log_radial, r_min=1.0
        )
        got = morton_decode(assign_codes(pc, cfg), 3)
        rth = np.column_stack(cylindrical_axes(pc.xyz))
        if log_radial:
            rth[:, 0] = np.log(np.maximum(rth[:, 0], 1.0))
        for coords, idx in zip(rth, got):
            for axis in range(3):
                hits = [
                    i
                    for i in range(8)
                    if cfg.origin[axis] + i * cfg.steps[axis]
                    <= coords[axis]
                    < cfg.origin[axis] + (i + 1) * cfg.steps[axis]
                ]
                assert hits == [int(idx[axis])]


def test_weight_conservation_and_mean_bounds():
    rng = np.random.default_rng(6)
    for system, log_radial in [
        (CoordinateSystem.CARTESIAN, False),
        (CoordinateSystem.CYLINDRICAL, False),
        (CoordinateSystem.CYLINDRICAL, True),
    ]:
        pc = random_cloud(rng, 500)
        cfg = make_config(pc, system, 4, log_radial=log_radial)
        vc = voxelize(pc, cfg)
        assert vc.n_points == len(pc)
        codes = assign_codes(pc, cfg)
        for code, mean in zip(vc.codes, vc.attributes):
            members = pc.attributes[codes == code]
            assert members.min() - 1e-12 <= mean <= members.max() + 1e-12


@pytest.mark.parametrize(
    "system,log_radial",
    [
        (CoordinateSystem.CARTESIAN, False),
        (CoordinateSystem.CYLINDRICAL, False),
        (CoordinateSystem.CYLINDRICAL, True),
    ],
)
def test_slots_index_each_points_voxel(system, log_radial):
    pc = random_cloud(np.random.default_rng(11), 400)
    # every tenth point twice: those voxels hold at least 2 points
    pc = PointCloud(np.vstack([pc.xyz, pc.xyz[::10]]),
                    np.concatenate([pc.attributes, pc.attributes[::10]]))
    cfg = make_config(pc, system, 6, log_radial=log_radial)
    vc = voxelize(pc, cfg)
    codes = assign_codes(pc, cfg)
    np.testing.assert_array_equal(vc.codes[vc.slots], codes)
    counts = np.array([np.count_nonzero(codes == code) for code in vc.codes])
    np.testing.assert_array_equal(np.bincount(vc.slots), counts)
    assert counts.max() > 1
    assert vc.n_points == counts.sum() == len(pc)


def test_duplicate_points_add_weight():
    pc = PointCloud(np.array([[1.0, 1.0, 1.0]] * 4 + [[5.0, 5.0, 5.0]]),
                    np.array([8.0, 8.0, 8.0, 8.0, 1.0]))
    vc = voxelize(pc, make_config(pc, CoordinateSystem.CARTESIAN, 2))
    assert sorted(np.bincount(vc.slots).tolist()) == [1, 4]


def test_out_of_range_names_point_index():
    pc = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), np.zeros(2))
    cfg = make_config(pc, CoordinateSystem.CARTESIAN, 4)
    far = PointCloud(np.array([[0.5, 0.5, 0.5], [90.0, 0.0, 0.0]]), np.zeros(2))
    with pytest.raises(OutOfRangeError, match="point 1") as exc:
        voxelize(far, cfg)
    assert "at (90.0, 0.0, 0.0) falls outside" in str(exc.value)  # plain floats


# clouds whose padded extent is no finite float64, and the extent each names
OVERFLOWING_CLOUDS = {
    "cart": ([[1e308, 0.0, 0.0], [-1e308, 0.0, 0.0]], CoordinateSystem.CARTESIAN, False,
             "side on the x axis"),
    "cyl": ([[0.0, 0.0, 0.0], [1.7e308, 1.7e308, 0.0]], CoordinateSystem.CYLINDRICAL, False,
            "radius on the r axis"),
    "cyl-log": ([[0.0, 0.0, 0.0], [1.7e308, 1.7e308, 0.0]], CoordinateSystem.CYLINDRICAL, True,
                "radius on the r axis"),
    "cyl-height": ([[1.0, 0.0, -1e308], [1.0, 0.0, 1e308]], CoordinateSystem.CYLINDRICAL, False,
                   "height on the h axis"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", OVERFLOWING_CLOUDS)
def test_extent_that_overflows_float64_is_invalid_input(case):
    xyz, system, log_radial, extent = OVERFLOWING_CLOUDS[case]
    pc = PointCloud(np.array(xyz), np.zeros(2))
    with pytest.raises(InvalidInputError) as exc:
        make_config(pc, system, 8, log_radial=log_radial)
    assert str(exc.value) == f"the cloud's padded {extent} is inf: it overflows float64"


def test_out_of_range_names_lowest_point_out_on_any_axis():
    # point 0 is out on axis 2 only, point 1 on axis 0: a check that stopped
    # at the first axis with a bad point would name point 1
    pc = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), np.zeros(2))
    cfg = make_config(pc, CoordinateSystem.CARTESIAN, 4)
    for out in (90.0, -90.0):
        far = PointCloud(np.array([[0.5, 0.5, out], [out, 0.5, 0.5]]), np.zeros(2))
        with pytest.raises(OutOfRangeError, match="point 0 at"):
            assign_codes(far, cfg)


def test_points_below_r_min_clamp_to_first_radial_bin():
    pc = PointCloud(
        np.array([[0.0, 0.0, 1.0], [0.01, 0.0, 1.0], [4.0, 0.0, 2.0]]),
        np.zeros(3),
    )
    cfg = make_config(pc, CoordinateSystem.CYLINDRICAL, 3, log_radial=True, r_min=1.0)
    idx = morton_decode(assign_codes(pc, cfg), 3)
    assert idx[0, 0] == 0 and idx[1, 0] == 0


def test_clamp_below_r_min_uses_the_grids_own_log():
    # numpy 2.4's np.log(r_min) is 1 ulp below math.log(r_min), the grid's
    # origin: clamped to the former, these points once fell outside the grid
    r_min = 0.981775961747949
    pc = PointCloud(np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 1.0], [5.0, 1.0, 1.0]]), np.zeros(3))
    for depth in (3, 13, 21):
        cfg = make_config(pc, CoordinateSystem.CYLINDRICAL, depth, log_radial=True, r_min=r_min)
        idx = morton_decode(assign_codes(pc, cfg), depth)
        assert idx[0, 0] == 0 and idx[1, 0] == 0


@pytest.mark.parametrize("depth", [1, 8, 13, 21])
@pytest.mark.parametrize("log_radial", [False, True])
def test_theta_just_below_pi_lands_in_the_last_angular_bin(depth, log_radial):
    # atan2 gives nextafter(pi, 0) here, and theta + pi rounds to 2 pi
    pc = PointCloud(np.array([[-1.0, 4e-16, 0.0], [5.0, 1.0, 1.0], [10.0, -3.0, 2.0]]),
                    np.zeros(3))
    assert cylindrical_axes(pc.xyz)[1][0] == np.nextafter(math.pi, 0.0)
    cfg = make_config(pc, CoordinateSystem.CYLINDRICAL, depth, log_radial=log_radial)
    idx = morton_decode(assign_codes(pc, cfg), depth)
    assert idx[0, 1] == (1 << depth) - 1


def test_configs_fix_what_make_config_never_varies():
    # the angular clip above is exact only on the full circle, so a narrower
    # angular axis, which would hide points past its end, is not a grid
    rng = np.random.default_rng(4)
    pc = random_cloud(rng, 50)
    cart = make_config(pc, CoordinateSystem.CARTESIAN, 8)
    cyl = make_config(pc, CoordinateSystem.CYLINDRICAL, 8)
    log = make_config(pc, CoordinateSystem.CYLINDRICAL, 8, log_radial=True, r_min=0.5)
    bad = [
        (cart, cart.origin, (1.0, 1.0, 2.0)),
        (cyl, (0.0, 0.0, 0.0), cyl.extents),
        (cyl, cyl.origin, (cyl.extents[0], math.pi, cyl.extents[2])),
        (log, log.origin, (log.extents[0], math.pi, log.extents[2])),
        (cyl, (0.5,) + cyl.origin[1:], cyl.extents),
    ]
    for cfg, origin, extents in bad:
        with pytest.raises(InvalidConfigError, match=f"^not a {cfg.system.value} grid: "):
            VoxelGridConfig(cfg.system, cfg.depth, origin, extents, cfg.log_radial)
    # the free values: any corner and side, h range, and a log-radial ln r_min
    VoxelGridConfig(cart.system, 8, (-1.0, 2.0, 3.0), (0.5, 0.5, 0.5))
    VoxelGridConfig(log.system, 8, (-3.0, -math.pi, 9.0), (0.1, 2.0 * math.pi, 0.2), True)


# ------------------------------------------- per-axis columns, same bits

GRIDS = {
    "cart": (CoordinateSystem.CARTESIAN, 12, False),
    "cyl": (CoordinateSystem.CYLINDRICAL, 11, False),
    "cyl-log": (CoordinateSystem.CYLINDRICAL, 11, True),
}


@pytest.fixture(scope="module")
def sweep():
    return synth_sweep(SweepSpec(beam_count=16, azimuth_step=2.0 * math.pi / 640.0), seed=3)


def broadcast_grid(pc, system, log_radial):
    """make_config's (origin, extents) as computed with (N, 3) reductions, at r_min 1."""
    xyz = pc.xyz
    if system is CoordinateSystem.CARTESIAN:
        lo, hi = xyz.min(axis=0).tolist(), xyz.max(axis=0).tolist()
        return tuple(lo), (max(_padded_span(a, b, "side") for a, b in zip(lo, hi)),) * 3
    h_min, h_max = float(xyz[:, 2].min()), float(xyz[:, 2].max())
    radius = _padded_span(0.0, float(np.hypot(xyz[:, 0], xyz[:, 1]).max()), "radius")
    radial = math.log(radius) - math.log(1.0) if log_radial else radius
    return (0.0, -math.pi, h_min), (radial, 2.0 * math.pi, _padded_span(h_min, h_max, "height"))


@pytest.mark.parametrize("grid", GRIDS)
def test_per_axis_geometry_keeps_the_broadcast_bits(sweep, grid):
    system, depth, log_radial = GRIDS[grid]
    pc = PointCloud(np.vstack([sweep.xyz, random_cloud(np.random.default_rng(4), 500).xyz]),
                    np.zeros(len(sweep) + 500))
    cfg = make_config(pc, system, depth, log_radial=log_radial)
    assert (cfg.origin, cfg.extents) == broadcast_grid(pc, system, log_radial)

    coords = pc.xyz if system is CoordinateSystem.CARTESIAN else np.column_stack(cylindrical_axes(pc.xyz))
    if log_radial:
        coords[:, 0] = np.log(np.maximum(coords[:, 0], 1.0))
    idx = np.floor((coords - np.asarray(cfg.origin)) / np.asarray(cfg.steps)).astype(np.int64)
    codes = assign_codes(pc, cfg)
    np.testing.assert_array_equal(codes, morton_encode(idx))

    rows = np.ascontiguousarray(idx.T)  # (3, N): its transpose has strides (8, 8N)
    np.testing.assert_array_equal(morton_encode(rows.T), morton_encode(idx))

    ijk = morton_decode(codes, depth)
    centers = np.asarray(cfg.origin) + (ijk + 0.5) * np.asarray(cfg.steps)
    if system is CoordinateSystem.CYLINDRICAL:
        if log_radial:
            centers[:, 0] = np.exp(centers[:, 0])
        r, theta, h = centers.T
        centers = np.column_stack((r * np.cos(theta), r * np.sin(theta), h))
    got = voxel_centers(cfg, codes)
    assert got.shape == centers.shape and got.flags.c_contiguous
    assert got.tobytes() == centers.tobytes()

    # the full call gathers exp, cos and sin from per-bin tables; fewer
    # leaves than bins evaluate them per leaf, to the same bits
    k = (1 << depth) - 1
    assert k < 1 << depth <= codes.size
    assert voxel_centers(cfg, codes[:k]).tobytes() == got[:k].tobytes()


# -------------------------------------------------------------- devoxelize


def test_devoxelize_fixed_point():
    # a point already at a voxel center comes back unchanged
    pc = PointCloud(np.array([[0.0, 0.0, 0.0], [8.0, 8.0, 8.0]]), np.zeros(2))
    cfg = make_config(pc, CoordinateSystem.CARTESIAN, 3)
    center = np.asarray(cfg.origin) + 2.5 * np.asarray(cfg.steps)
    one = PointCloud(center[None, :], np.array([50.0]))
    vc = voxelize(one, cfg)
    np.testing.assert_allclose(voxel_centers(cfg, vc.codes)[0], center, atol=1e-9)
    assert vc.attributes[0] == 50.0


def test_cartesian_reconstruction_within_half_step():
    rng = np.random.default_rng(7)
    pc = random_cloud(rng, 300)
    cfg = make_config(pc, CoordinateSystem.CARTESIAN, 5)
    centers = voxel_centers(cfg, assign_codes(pc, cfg))
    err = np.abs(centers - pc.xyz)
    assert (err <= cfg.steps[0] / 2.0 + 1e-12).all()


def test_log_radial_center_is_geometric():
    pc = PointCloud(np.array([[1.0, 0.0, 0.0], [16.0, 0.0, 1.0]]), np.zeros(2))
    cfg = make_config(pc, CoordinateSystem.CYLINDRICAL, 1, log_radial=True, r_min=1.0)
    centers = voxel_centers(cfg, np.array([0, 1]))
    r_edge = math.exp(cfg.origin[0] + cfg.steps[0])
    assert np.hypot(*centers[0][:2]) == pytest.approx(math.sqrt(1.0 * r_edge), rel=1e-12)


def test_realized_cylindrical_error_matches_formula():
    rng = np.random.default_rng(8)
    xyz = rng.normal(0.0, 15.0, (200, 3))
    xyz = xyz[np.hypot(xyz[:, 0], xyz[:, 1]) > 0.5]
    pc = PointCloud(xyz, np.full(len(xyz), 9.0))
    for log_radial in (False, True):
        cfg = make_config(pc, CoordinateSystem.CYLINDRICAL, 6, log_radial=log_radial)
        centers = voxel_centers(cfg, assign_codes(pc, cfg))
        orig = np.column_stack(cylindrical_axes(pc.xyz))
        rec = np.column_stack(cylindrical_axes(centers))
        e1 = rec[:, 0] - orig[:, 0]
        e2 = rec[:, 1] - orig[:, 1]
        e3 = rec[:, 2] - orig[:, 2]
        direct = ((pc.xyz - centers) ** 2).sum(axis=1)
        formula = voxelization_error_cylindrical(orig[:, 0], e1, e2, e3)
        np.testing.assert_allclose(formula, direct, rtol=1e-9, atol=1e-12)


# ------------------------------------------------------------ error models


def test_cylindrical_error_examples():
    assert voxelization_error_cylindrical(5.0, 0.0, 0.0, 0.0) == 0.0
    expected = 2.0 * (1.0 - math.cos(0.1))
    assert voxelization_error_cylindrical(1.0, 0.0, 0.1, 0.0) == pytest.approx(
        expected, rel=1e-12
    )
    assert expected == pytest.approx(0.0099917, abs=5e-7)


def test_cylindrical_error_equals_direct_distance():
    rng = np.random.default_rng(9)
    n = 10_000
    r = rng.uniform(0.6, 60.0, n)
    theta = rng.uniform(-math.pi, math.pi, n)
    h = rng.uniform(-10.0, 10.0, n)
    e1 = rng.uniform(0.01, 0.5, n) * rng.choice([-1.0, 1.0], n)
    e2 = rng.uniform(1e-3, 0.3, n) * rng.choice([-1.0, 1.0], n)
    e3 = rng.uniform(0.01, 0.5, n) * rng.choice([-1.0, 1.0], n)
    worst = 0.0
    for i in range(n):
        p = to_cartesian(CylindricalPoint(r[i], theta[i], h[i]))
        th_hat = math.remainder(theta[i] + e2[i], 2.0 * math.pi)
        th_hat = th_hat if th_hat < math.pi else -math.pi
        q = to_cartesian(CylindricalPoint(r[i] + e1[i], th_hat, h[i] + e3[i]))
        direct = (p.x - q.x) ** 2 + (p.y - q.y) ** 2 + (p.z - q.z) ** 2
        formula = voxelization_error_cylindrical(r[i], e1[i], e2[i], e3[i])
        worst = max(worst, abs(formula - direct) / direct)
    assert worst <= 1e-10


def test_expected_error_cylindrical_formula():
    model = ErrorModel(0.25, 0.01, 0.04)
    assert expected_error_cylindrical(0.0, model) == pytest.approx(0.29)
    s = 0.3
    m = ErrorModel(s, s, s)
    for r in (0.0, 1.0, 7.0):
        assert expected_error_cylindrical(r, m) == pytest.approx(s * (2.0 + r * r))


@pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", range(3))
def test_error_model_needs_finite_non_negative_variances(bad, axis):
    variances = [0.1, 0.2, 0.3]
    variances[axis] = bad
    with pytest.raises(InvalidInputError, match="finite and non-negative"):
        ErrorModel(*variances)


def test_expected_error_cylindrical_monte_carlo():
    rng = np.random.default_rng(10)
    n = 200_000
    sigma1 = sigma3 = 0.05
    sigma2 = 0.005
    a1, a2, a3 = (math.sqrt(3.0) * s for s in (sigma1, sigma2, sigma3))
    e1 = rng.uniform(-a1, a1, n)
    e2 = rng.uniform(-a2, a2, n)
    e3 = rng.uniform(-a3, a3, n)
    model = ErrorModel(sigma1**2, sigma2**2, sigma3**2)
    for r in (0.1, 1.0, 10.0, 50.0):
        mc = voxelization_error_cylindrical(np.full(n, r), e1, e2, e3).mean()
        assert mc == pytest.approx(expected_error_cylindrical(r, model), rel=0.01)


def test_small_angle_approximation_degrades_as_sigma2_grows():
    # common random numbers make the deviation sweep smooth
    rng = np.random.default_rng(12)
    u = rng.uniform(-1.0, 1.0, 300_000)
    r = 30.0
    devs = []
    for sigma2 in (0.005, 0.05, 0.2, 0.5, 1.0):
        a2 = math.sqrt(3.0) * sigma2
        mc = voxelization_error_cylindrical(
            np.full(u.size, r), np.zeros(u.size), a2 * u, np.zeros(u.size)
        ).mean()
        approx = expected_error_cylindrical(r, ErrorModel(0.0, sigma2**2, 0.0))
        devs.append(abs(mc - approx) / mc)
    assert devs[0] < 0.01
    assert all(d2 > d1 for d1, d2 in zip(devs, devs[1:]))


def test_error_crossover_between_systems():
    # matched radial/height variances: cylindrical wins near the axis,
    # Cartesian (3 sigma^2 at equal variances) wins far out, with a single
    # monotone crossover
    sigma = 0.1
    sigma2 = 0.02
    cyl = ErrorModel(sigma**2, sigma2**2, sigma**2)
    r = np.linspace(0.0, 20.0, 2000)
    diff = np.array([expected_error_cylindrical(x, cyl) for x in r]) - 3 * sigma**2
    signs = np.sign(diff)
    crossings = np.flatnonzero(np.diff(signs) != 0)
    assert len(crossings) == 1
    assert (np.diff(diff) > 0).all()
    r_star = r[crossings[0]]
    assert r_star == pytest.approx(sigma / sigma2, abs=r[1] - r[0])


# ------------------------------------------------------- knn and occupancy


def test_knn_collinear_points():
    pc = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
                    np.zeros(3))
    out = knn_mean_distance(pc, 1)
    np.testing.assert_allclose(out[:, 1], [1.0, 1.0, 1.0])


def test_knn_degenerate_k_equals_all_others():
    rng = np.random.default_rng(13)
    pc = random_cloud(rng, 12)
    out = knn_mean_distance(pc, 11)
    d = np.linalg.norm(pc.xyz[:, None, :] - pc.xyz[None, :, :], axis=2)
    expected = d.sum(axis=1) / 11.0
    np.testing.assert_allclose(out[:, 1], expected, rtol=1e-12)


def test_knn_matches_brute_force():
    rng = np.random.default_rng(14)
    pc = random_cloud(rng, 80)
    out = knn_mean_distance(pc, 5)
    d = np.linalg.norm(pc.xyz[:, None, :] - pc.xyz[None, :, :], axis=2)
    d.sort(axis=1)
    np.testing.assert_allclose(out[:, 1], d[:, 1:6].mean(axis=1), rtol=1e-12)
    np.testing.assert_allclose(out[:, 0], np.hypot(pc.xyz[:, 0], pc.xyz[:, 1]), rtol=1e-12)


def test_knn_requires_enough_points():
    rng = np.random.default_rng(15)
    with pytest.raises(InvalidInputError):
        knn_mean_distance(random_cloud(rng, 5), 5)

