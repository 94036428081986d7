"""Point types and Cartesian/cylindrical conversion.

Conventions:
  * theta is the full-quadrant angle of (y, x) canonicalized to the
    half-open interval [-pi, pi); a computed +pi wraps to -pi so that
    angular binning is unambiguous.
  * theta = 0 at the axis (x = y = 0), keeping the conversion total.

All functions are pure. PointCloud holds read-only views of the arrays
it is given (copies only where they are not contiguous float64), so it
never locks the caller's arrays, and a write to those arrays shows in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class CartesianPoint:
    """A point (x, y, z) in meters."""

    x: float
    y: float
    z: float


@dataclass(frozen=True)
class CylindricalPoint:
    """A point (r, theta, h): radial distance, angle in [-pi, pi), height."""

    r: float
    theta: float
    h: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.theta) and math.isfinite(self.h)):
            raise InvalidInputError(f"non-finite cylindrical point {(self.r, self.theta, self.h)}")
        if self.r < 0.0:
            raise InvalidInputError(f"negative radius {self.r}")
        if not (-math.pi <= self.theta < math.pi):
            raise InvalidInputError(f"theta {self.theta} outside [-pi, pi)")


@dataclass(frozen=True)
class PointCloud:
    """A LiDAR sweep: (N, 3) Cartesian coordinates plus one intensity per point.

    Intensities live on the 8-bit scale [0, 255] (loaders rescale at
    ingestion). Empty clouds are representable; operations that need at
    least one point raise InvalidInputError.
    """

    xyz: np.ndarray
    attributes: np.ndarray

    def __post_init__(self):
        xyz = np.ascontiguousarray(self.xyz, dtype=np.float64).view()
        attrs = np.ascontiguousarray(self.attributes, dtype=np.float64).view()
        if xyz.ndim != 2 or xyz.shape[1] != 3:
            raise InvalidInputError(f"xyz must have shape (N, 3), got {xyz.shape}")
        if attrs.shape != (xyz.shape[0],):
            raise InvalidInputError(
                f"attributes length {attrs.shape} does not match {xyz.shape[0]} points"
            )
        if not np.isfinite(xyz).all():
            raise InvalidInputError("non-finite coordinates in point cloud")
        if attrs.size and (attrs.min() < 0.0 or attrs.max() > 255.0 or not np.isfinite(attrs).all()):
            raise InvalidInputError("attributes must be finite values in [0, 255]")
        xyz.setflags(write=False)
        attrs.setflags(write=False)
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "attributes", attrs)

    def __len__(self) -> int:
        return self.xyz.shape[0]


def to_cartesian(p: CylindricalPoint) -> CartesianPoint:
    """Convert one cylindrical point back to Cartesian coordinates."""
    return CartesianPoint(p.r * math.cos(p.theta), p.r * math.sin(p.theta), p.h)


def cylindrical_axes(xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized conversion of (N, 3) x/y/z into 1-D arrays r, theta, h.

    The only array conversion to cylindrical: the voxelizer bins these one
    axis at a time, and ``np.column_stack`` gives (N, 3) rows. It alone
    wraps theta = +pi to -pi and sets theta = 0 at the axis; r and theta
    are new arrays, h views z.
    """
    x, y, h = np.asarray(xyz, dtype=np.float64).T
    r = np.hypot(x, y)
    theta = np.arctan2(y, x)
    theta[theta >= np.pi] = -np.pi
    theta[r == 0.0] = 0.0
    return r, theta, h
