"""Voxel grids in Cartesian or cylindrical coordinates.

A grid partitions each axis into 2**depth half-open bins of equal width
in the axis domain. For the cylindrical system the axis domains are
(r, theta, h) with theta spanning exactly [-pi, pi); the radial axis may
optionally be partitioned uniformly in ln(r) between ln(r_min) and
ln(R), which makes radial shells grow geometrically with distance from
the sensor. Points with r < r_min (including r = 0) clamp into the
first radial bin.

Points on a bin boundary go to the upper bin (floor semantics).
Duplicate points are kept and add to the voxel's point count.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidConfigError, InvalidInputError, OutOfRangeError
from .geometry import PointCloud, cartesian_to_cylindrical
from .morton import MAX_DEPTH, morton_decode, morton_encode

# Relative padding applied to bounding extents, so that maximal points
# land strictly inside the half-open grid.
PAD_REL = 1e-9


class CoordinateSystem(enum.Enum):
    CARTESIAN = "cartesian"
    CYLINDRICAL = "cylindrical"


@dataclass(frozen=True)
class VoxelGridConfig:
    """Geometry of one voxel partition, held as the stream header holds it.

    ``bounds`` are the header's six doubles:

      Cartesian:    (x0, y0, z0, W, 0, 0)   the cube [x0, x0 + W) x ... x [z0, z0 + W)
      cylindrical:  (R, H, h_min, 0, 0, 0)  r < R, h in [h_min, h_min + H), in meters

    R is the padded bounding radius also on log-radial grids. ``origin``
    and ``extents`` are derived from them and give the three axis
    intervals in the (possibly log-transformed) axis domain:

      Cartesian:    origin = (x0, y0, z0),           extents = (W, W, W)
      cylindrical:  origin = (0, -pi, h_min),         extents = (R, 2*pi, H)
      cyl. + log:   origin = (ln r_min, -pi, h_min),  extents = (ln R - ln r_min, 2*pi, H)

    The per-axis quantization step is extents[a] / 2**depth.
    """

    system: CoordinateSystem
    depth: int
    bounds: tuple[float, float, float, float, float, float]
    log_radial: bool = False
    r_min: float = 1.0

    def __post_init__(self):
        if not 1 <= self.depth <= MAX_DEPTH:
            raise InvalidConfigError(f"depth {self.depth} outside [1, {MAX_DEPTH}]")
        if self.log_radial:
            if self.system is not CoordinateSystem.CYLINDRICAL:
                raise InvalidConfigError("log_radial requires the cylindrical system")
            # before any ln R: the radial extent takes logs of both
            if not 0.0 < self.r_min < self.bounds[0]:
                raise InvalidConfigError(
                    f"log_radial requires 0 < r_min < R, got r_min {self.r_min},"
                    f" R {self.bounds[0]}"
                )
        if any(not (e > 0.0) for e in self.extents):
            raise InvalidConfigError(f"axis extents must be positive, got {self.extents}")

    @property
    def origin(self) -> tuple[float, float, float]:
        b = self.bounds
        if self.system is CoordinateSystem.CARTESIAN:
            return (b[0], b[1], b[2])
        return (math.log(self.r_min) if self.log_radial else 0.0, -math.pi, b[2])

    @property
    def extents(self) -> tuple[float, float, float]:
        b = self.bounds
        if self.system is CoordinateSystem.CARTESIAN:
            return (b[3], b[3], b[3])
        radial = math.log(b[0]) - math.log(self.r_min) if self.log_radial else b[0]
        return (radial, 2.0 * math.pi, b[1])

    @property
    def steps(self) -> tuple[float, float, float]:
        n = 1 << self.depth
        return (self.extents[0] / n, self.extents[1] / n, self.extents[2] / n)


@dataclass(frozen=True)
class VoxelizedCloud:
    """Occupied voxels: sorted interleaved codes, mean attributes, point slots.

    ``voxelize`` is the only constructor: its codes come from ``np.unique``
    (strictly increasing int64) and ``slots``, each point's index into
    ``codes``, is that call's inverse, so the fields need no checks.
    """

    config: VoxelGridConfig
    codes: np.ndarray
    attributes: np.ndarray
    slots: np.ndarray

    def __len__(self) -> int:
        return self.codes.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """Point count of each voxel (each >= 1)."""
        return np.bincount(self.slots, minlength=len(self.codes))

    @property
    def n_points(self) -> int:
        return self.slots.size


@dataclass(frozen=True)
class ErrorModel:
    """Per-axis variances of the zero-mean voxelization error variables."""

    sigma1_sq: float
    sigma2_sq: float
    sigma3_sq: float

    def __post_init__(self):
        if min(self.sigma1_sq, self.sigma2_sq, self.sigma3_sq) < 0.0:
            raise InvalidInputError("variances must be non-negative")


def _padded_span(lo: float, hi: float, name: str) -> float:
    """Half-open span covering [lo, hi], padded so hi falls strictly inside.
    Raises InvalidInputError, naming the extent, when it overflows float64."""
    span = hi - lo
    span += PAD_REL * max(span, abs(lo), abs(hi), 1.0)
    if not math.isfinite(span):
        raise InvalidInputError(f"the cloud's padded {name} is {span}: it overflows float64")
    return span


def make_config(
    pc: PointCloud,
    system: CoordinateSystem,
    depth: int,
    log_radial: bool = False,
    r_min: float = 1.0,
) -> VoxelGridConfig:
    """Build a grid config whose bounds tightly (plus padding) enclose ``pc``."""
    if len(pc) == 0:
        raise InvalidInputError("cannot bound an empty point cloud")
    if not log_radial:
        r_min = 1.0  # r_min shapes log-radial grids only; others keep the default
    if system is CoordinateSystem.CARTESIAN:
        lo, hi = [float(c.min()) for c in pc.xyz.T], [float(c.max()) for c in pc.xyz.T]
        side = max(_padded_span(a, b, f"side on the {axis} axis")
                   for axis, a, b in zip("xyz", lo, hi))
        return VoxelGridConfig(system, depth, (*lo, side, 0.0, 0.0), log_radial, r_min)
    h_min, h_max = float(pc.xyz[:, 2].min()), float(pc.xyz[:, 2].max())
    with np.errstate(over="ignore"):  # an infinite radius fails in _padded_span
        r_max = float(np.hypot(pc.xyz[:, 0], pc.xyz[:, 1]).max())
    radius = _padded_span(0.0, r_max, "radius on the r axis")
    bounds = (radius, _padded_span(h_min, h_max, "height on the h axis"), h_min, 0.0, 0.0, 0.0)
    return VoxelGridConfig(system, depth, bounds, log_radial, r_min)


def _axis_coordinates(pc: PointCloud, cfg: VoxelGridConfig) -> np.ndarray:
    """Per-point coordinates in the grid's (possibly transformed) axis domain."""
    if cfg.system is CoordinateSystem.CARTESIAN:
        return pc.xyz
    rth = cartesian_to_cylindrical(pc.xyz)
    if cfg.log_radial:
        rth[:, 0] = np.log(np.maximum(rth[:, 0], cfg.r_min))
    return rth


def assign_codes(pc: PointCloud, cfg: VoxelGridConfig) -> np.ndarray:
    """Interleaved voxel code of every point of ``pc`` under ``cfg``."""
    if len(pc) == 0:
        raise InvalidInputError("cannot voxelize an empty point cloud")
    coords = _axis_coordinates(pc, cfg)
    # one contiguous row per axis; a negative index wraps to >= 2^depth as uint64
    idx = np.empty((3, len(pc)), dtype=np.int64)
    bad = np.zeros(len(pc), dtype=bool)
    for a, (lo, step) in enumerate(zip(cfg.origin, cfg.steps)):
        idx[a] = np.floor((coords[:, a] - lo) / step)
        bad |= idx[a].view(np.uint64) >= (1 << cfg.depth)
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        raise OutOfRangeError(
            f"point {first} at {tuple(pc.xyz[first].tolist())} falls outside the voxel grid"
        )
    return morton_encode(idx.T)


def voxelize(pc: PointCloud, cfg: VoxelGridConfig) -> VoxelizedCloud:
    """Bin every point of ``pc`` and average attributes per occupied voxel."""
    codes = assign_codes(pc, cfg)
    unique, slots = np.unique(codes, return_inverse=True)
    weights = np.bincount(slots, minlength=unique.size)
    sums = np.bincount(slots, weights=pc.attributes, minlength=unique.size)
    return VoxelizedCloud(
        config=cfg,
        codes=unique,
        attributes=sums / weights,
        slots=slots,
    )


def voxel_centers(cfg: VoxelGridConfig, codes: np.ndarray) -> np.ndarray:
    """Cartesian (N, 3) centers of the voxels addressed by ``codes``.

    Centers are the midpoints of each axis bin in the axis domain; for a
    log-radial grid the radial midpoint is taken in the log domain and
    exponentiated, i.e. the geometric center of the shell.
    """
    ijk = morton_decode(np.asarray(codes, dtype=np.int64), cfg.depth)
    u, v, w = (lo + (ijk[:, a] + 0.5) * step
               for a, (lo, step) in enumerate(zip(cfg.origin, cfg.steps)))
    if cfg.system is CoordinateSystem.CARTESIAN:
        return np.column_stack((u, v, w))
    if cfg.log_radial:
        u = np.exp(u)
    return np.column_stack((u * np.cos(v), u * np.sin(v), w))


def voxelization_error_cylindrical(r, e1, e2, e3):
    """Exact squared Cartesian error caused by cylindrical-domain offsets.

    For a point at radius r displaced by (e1, e2, e3) along (r, theta, h)
    the squared distance between original and displaced point is
    e1^2 + 2 r (r + e1) (1 - cos e2) + e3^2, identically in theta.
    1 - cos is evaluated as 2 sin^2(e2 / 2) to avoid cancellation.
    """
    r = np.asarray(r, dtype=np.float64)
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    e3 = np.asarray(e3, dtype=np.float64)
    s = np.sin(e2 / 2.0)
    out = e1 * e1 + 2.0 * r * (r + e1) * (2.0 * s * s) + e3 * e3
    if out.ndim == 0:
        return float(out)
    return out


def expected_error_cylindrical(r: float, model: ErrorModel) -> float:
    """Small-angle expectation sigma1^2 + r^2 sigma2^2 + sigma3^2."""
    return model.sigma1_sq + r * r * model.sigma2_sq + model.sigma3_sq


def expected_error_cartesian(model: ErrorModel) -> float:
    """Expected squared Cartesian error; equals 3 sigma^2 for equal variances."""
    return model.sigma1_sq + model.sigma2_sq + model.sigma3_sq


def knn_mean_distance(pc: PointCloud, k: int) -> np.ndarray:
    """(N, 2) rows of (radial distance, mean distance to the k nearest neighbors)."""
    n = len(pc)
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    if n <= k:
        raise InvalidInputError(f"need more than k={k} points, got {n}")
    tree = cKDTree(pc.xyz)
    dists, _ = tree.query(pc.xyz, k=k + 1)  # first hit is the point itself
    mean_knn = dists[:, 1:].mean(axis=1)
    r = np.hypot(pc.xyz[:, 0], pc.xyz[:, 1])
    return np.column_stack((r, mean_knn))


def occupancy_stats(vc: VoxelizedCloud) -> tuple[int, float]:
    """(occupied voxel count, mean number of points per occupied voxel)."""
    count = len(vc)
    return count, vc.n_points / count
