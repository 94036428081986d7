"""Voxel grids in Cartesian or cylindrical coordinates.

A grid partitions each axis into 2**depth half-open bins of equal width
in the axis domain. For the cylindrical system the axis domains are
(r, theta, h) with theta spanning exactly [-pi, pi); the radial axis may
be partitioned uniformly in ln(r) between ln(r_min) and ln(R), so radial
shells grow geometrically with distance from the sensor. Points with
ln r below ln r_min (and r = 0) clamp into the first radial bin, and a
theta that rounds up to pi goes to the last angular bin.

Points on a bin boundary go to the upper bin (floor semantics).
Duplicate points are kept and add to the voxel's point count.

Coordinates are binned one contiguous axis array at a time. Voxel
centers evaluate exp, cos and sin once per bin and gather them per leaf,
but only when the 2**depth bins do not outnumber the leaves, so that a
decoder's memory stays bounded by the stream it reads; with fewer leaves
they run per leaf. Both give the same bits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidInputError, MissingDependencyError, OutOfRangeError
from .geometry import PointCloud, cylindrical_axes
from .morton import MAX_DEPTH, morton_decode, morton_encode

# Relative padding applied to bounding extents, so that maximal points
# land strictly inside the half-open grid.
PAD_REL = 1e-9


class CoordinateSystem(enum.Enum):
    CARTESIAN = "cartesian"
    CYLINDRICAL = "cylindrical"


@dataclass(frozen=True)
class VoxelGridConfig:
    """Geometry of one voxel partition, as the stream header holds it.

    Axis a covers [origin[a], origin[a] + extents[a]) in the (possibly
    log-transformed) axis domain; ``make_config`` builds

      Cartesian:    origin = (x0, y0, z0),           extents = (W, W, W)
      cylindrical:  origin = (0, -pi, h_min),         extents = (R, 2*pi, H)
      cyl. + log:   origin = (ln r_min, -pi, h_min),  extents = (ln R - ln r_min, 2*pi, H)

    with R the padded bounding radius in meters. The per-axis
    quantization step is extents[a] / 2**depth. Nothing else is accepted:
    a cube, theta over exactly [-pi, pi), and a plain r axis from 0.
    """

    system: CoordinateSystem
    depth: int
    origin: tuple[float, float, float]
    extents: tuple[float, float, float]
    log_radial: bool = False

    def __post_init__(self):
        if not isinstance(self.system, CoordinateSystem):
            raise InvalidConfigError(f"system {self.system!r} is not a CoordinateSystem")
        if isinstance(self.depth, bool) or not isinstance(self.depth, (int, np.integer)):
            raise InvalidConfigError(f"depth {self.depth!r} is not an integer")
        if not 1 <= self.depth <= MAX_DEPTH:
            raise InvalidConfigError(f"depth {self.depth} outside [1, {MAX_DEPTH}]")
        if self.log_radial and self.system is not CoordinateSystem.CYLINDRICAL:
            raise InvalidConfigError("log_radial requires the cylindrical system")
        if not all(map(math.isfinite, self.origin)):
            raise InvalidConfigError(f"axis origins must be finite, got {self.origin}")
        if not all(0.0 < e < math.inf for e in self.extents):
            raise InvalidConfigError(f"axis extents must be positive and finite, got {self.extents}")
        if not ((self.origin[1], self.extents[1]) == (-math.pi, 2.0 * math.pi)
                and (self.log_radial or self.origin[0] == 0.0)
                if self.system is CoordinateSystem.CYLINDRICAL else len(set(self.extents)) == 1):
            raise InvalidConfigError(
                f"not a {self.system.value} grid: origin {self.origin}, extents {self.extents}")

    @property
    def steps(self) -> tuple[float, float, float]:
        return tuple(e / (1 << self.depth) for e in self.extents)


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
    def n_points(self) -> int:
        return self.slots.size


@dataclass(frozen=True)
class ErrorModel:
    """Per-axis variances of the zero-mean voxelization error variables."""

    sigma1_sq: float
    sigma2_sq: float
    sigma3_sq: float

    def __post_init__(self):
        if not all(0.0 <= v < math.inf for v in (self.sigma1_sq, self.sigma2_sq, self.sigma3_sq)):
            raise InvalidInputError("variances must be finite and non-negative")


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
    """Build a grid config that tightly (plus padding) encloses ``pc``.
    ``r_min`` shapes log-radial grids only."""
    if len(pc) == 0:
        raise InvalidInputError("cannot bound an empty point cloud")
    if system is CoordinateSystem.CARTESIAN:
        lo, hi = [float(c.min()) for c in pc.xyz.T], [float(c.max()) for c in pc.xyz.T]
        side = max(_padded_span(a, b, f"side on the {axis} axis") for axis, a, b in zip("xyz", lo, hi))
        return VoxelGridConfig(system, depth, tuple(lo), (side, side, side), log_radial)
    h_min, h_max = float(pc.xyz[:, 2].min()), float(pc.xyz[:, 2].max())
    with np.errstate(over="ignore"):  # an infinite radius fails in _padded_span
        r_max = float(np.hypot(pc.xyz[:, 0], pc.xyz[:, 1]).max())
    radius = _padded_span(0.0, r_max, "radius on the r axis")
    height = _padded_span(h_min, h_max, "height on the h axis")
    if not log_radial:
        return VoxelGridConfig(system, depth, (0.0, -math.pi, h_min), (radius, 2.0 * math.pi, height))
    if not 0.0 < r_min < radius:  # before any log
        raise InvalidConfigError(f"log_radial requires 0 < r_min < R, got r_min {r_min}, R {radius}")
    return VoxelGridConfig(system, depth, (math.log(r_min), -math.pi, h_min),
                           (math.log(radius) - math.log(r_min), 2.0 * math.pi, height), True)


def _axis_coordinates(pc: PointCloud, cfg: VoxelGridConfig) -> tuple[np.ndarray, ...]:
    """Per-point coordinates in the grid's (possibly transformed) axis
    domain, one 1-D array per axis."""
    if cfg.system is CoordinateSystem.CARTESIAN:
        return tuple(pc.xyz.T)
    r, theta, h = cylindrical_axes(pc.xyz)
    if cfg.log_radial:
        # clamp against the origin the bins start from; ln 0 = -inf clamps too
        with np.errstate(divide="ignore"):
            np.maximum(np.log(r, out=r), cfg.origin[0], out=r)
    return r, theta, h


def assign_codes(pc: PointCloud, cfg: VoxelGridConfig) -> np.ndarray:
    """Interleaved voxel code of every point of ``pc`` under ``cfg``."""
    if len(pc) == 0:
        raise InvalidInputError("cannot voxelize an empty point cloud")
    # one contiguous row per axis; a negative index wraps to >= 2^depth as uint64
    idx = np.empty((3, len(pc)), dtype=np.int64)
    bad = np.zeros(len(pc), dtype=bool)
    top = (1 << cfg.depth) - 1
    for a, (coord, lo, step) in enumerate(zip(_axis_coordinates(pc, cfg), cfg.origin, cfg.steps)):
        idx[a] = np.floor((coord - lo) / step)
        if a == 1 and cfg.system is CoordinateSystem.CYLINDRICAL:
            # theta lies in [-pi, pi), but theta + pi rounds to 2 pi just below pi
            np.minimum(idx[a], top, out=idx[a])
        bad |= idx[a].view(np.uint64) > top
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


def _centers(cfg: VoxelGridConfig, a: int, i: np.ndarray, out=None) -> np.ndarray:
    """lo + (i + 0.5) * step: the centers of bins i on axis a."""
    return np.add(cfg.origin[a], (i + 0.5) * cfg.steps[a], out=out)


def _bin_values(cfg: VoxelGridConfig, a: int, i: np.ndarray, *funcs) -> list[np.ndarray]:
    """f(center of bin i on axis a) for each f in ``funcs``: from a table
    of all 2**depth bins when that is no longer than i, else per leaf."""
    if 1 << cfg.depth > i.size:
        return [f(_centers(cfg, a, i)) for f in funcs]
    table = _centers(cfg, a, np.arange(1 << cfg.depth))
    return [f(table).take(i) for f in funcs]


def voxel_centers(cfg: VoxelGridConfig, codes: np.ndarray) -> np.ndarray:
    """Cartesian (N, 3) centers of the voxels addressed by ``codes``.

    Centers are the midpoints of each axis bin in the axis domain; for a
    log-radial grid the radial midpoint is taken in the log domain and
    exponentiated, i.e. the geometric center of the shell. exp, cos and
    sin are evaluated per bin and gathered per leaf, but only when the
    bins do not outnumber the leaves, so memory stays bounded by the
    number of leaves; otherwise they run per leaf. Both give the same bits.
    """
    ijk = morton_decode(np.asarray(codes, dtype=np.int64), cfg.depth)
    out = np.empty(ijk.shape)
    cartesian = cfg.system is CoordinateSystem.CARTESIAN
    for a in range(3) if cartesian else (2,):
        _centers(cfg, a, ijk[:, a], out=out[:, a])
    if cartesian:
        return out
    r = _bin_values(cfg, 0, ijk[:, 0], np.exp)[0] if cfg.log_radial else _centers(cfg, 0, ijk[:, 0])
    cos, sin = _bin_values(cfg, 1, ijk[:, 1], np.cos, np.sin)
    np.multiply(r, cos, out=out[:, 0])
    np.multiply(r, sin, out=out[:, 1])
    return out


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


def knn_mean_distance(pc: PointCloud, k: int) -> np.ndarray:
    """(N, 2) rows of (radial distance, mean distance to the k nearest neighbors)."""
    n = len(pc)
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    if n <= k:
        raise InvalidInputError(f"need more than k={k} points, got {n}")
    try:  # here, not at the top: the codec installs and imports without scipy
        from scipy.spatial import cKDTree
    except ImportError as exc:
        raise MissingDependencyError(
            "k-nearest-neighbour distances need scipy: pip install scipy") from exc

    tree = cKDTree(pc.xyz)
    dists, _ = tree.query(pc.xyz, k=k + 1)  # first hit is the point itself
    mean_knn = dists[:, 1:].mean(axis=1)
    r = np.hypot(pc.xyz[:, 0], pc.xyz[:, 1])
    return np.column_stack((r, mean_knn))
