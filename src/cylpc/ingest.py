"""LiDAR frame loaders and a synthetic sweep generator.

Intensities are brought onto the 8-bit scale [0, 255] at ingestion so
every downstream PSNR uses the 255 peak:

  * KITTI ``.bin``: reflectance in [0, 1] is clamped, scaled by 255 and
    rounded to integers.
  * PLY intensity: kept as-is when the property is an 8-bit integer or
    the observed values already lie in [0, 255] (values within [0, 1]
    are treated as normalized and scaled by 255); a constant value
    outside [0, 255] is clipped into it, and anything else is linearly
    rescaled from the observed [min, max] onto [0, 255].

Rows with non-finite coordinates or intensity are dropped with a
warning, not fatally; real sweeps contain invalid returns. A file with
no finite row loads as an empty cloud, which the CLI rejects (exit 2).
"""

from __future__ import annotations

import math
import numbers
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, MalformedFileError
from .geometry import PointCloud

_PLY_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


def _drop_nonfinite(xyz: np.ndarray, attrs: np.ndarray, source: str) -> PointCloud:
    keep = np.isfinite(xyz).all(axis=1) & np.isfinite(attrs)
    dropped = int(keep.size - keep.sum())
    if dropped:
        warnings.warn(f"{source}: dropped {dropped} non-finite points", stacklevel=3)
        xyz = xyz[keep]
        attrs = attrs[keep]
    return PointCloud(xyz, attrs)


def load_kitti_bin(path) -> PointCloud:
    """Read consecutive little-endian float32 (x, y, z, reflectance) records."""
    size = os.path.getsize(path)
    if size % 16 != 0:
        raise MalformedFileError(
            f"{path}: size {size} is not a multiple of 16-byte point records"
        )
    with np.errstate(invalid="ignore"):  # a signalling NaN warns on the cast
        raw = np.fromfile(path, dtype="<f4").reshape(-1, 4).astype(np.float64)
    refl = np.clip(raw[:, 3], 0.0, 1.0)  # NaN propagates into the drop pass
    attrs = np.rint(refl * 255.0)
    return _drop_nonfinite(raw[:, :3], attrs, str(path))


def _rescale_intensity(values: np.ndarray, declared_type: str) -> np.ndarray:
    if declared_type == "u1":
        return values
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return values
    lo, hi = float(finite.min()), float(finite.max())
    if 0.0 <= lo and hi <= 1.0:
        return values * 255.0
    if 0.0 <= lo and hi <= 255.0:
        return values
    if hi == lo:
        return np.clip(values, 0.0, 255.0)
    return (values - lo) / (hi - lo) * 255.0


def _parse_ply_header(f, path):
    """Returns (is_binary, elements) where elements are (name, count, props)."""
    line_no = 1
    if f.readline().strip() != b"ply":
        raise MalformedFileError(f"{path}:1: missing 'ply' magic")
    is_binary = None
    elements = []
    while True:
        line_no += 1
        raw = f.readline()
        if not raw:
            raise MalformedFileError(f"{path}:{line_no}: header ends before end_header")
        tokens = raw.decode("ascii", errors="replace").strip().split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "end_header":
            break
        if tokens[0] == "format":
            if len(tokens) < 2:
                raise MalformedFileError(f"{path}:{line_no}: format line names no format")
            if tokens[1] == "ascii":
                is_binary = False
            elif tokens[1] == "binary_little_endian":
                is_binary = True
            else:
                raise MalformedFileError(
                    f"{path}:{line_no}: unsupported format '{tokens[1]}'"
                )
        elif tokens[0] == "element":
            if len(tokens) != 3:
                raise MalformedFileError(f"{path}:{line_no}: malformed element line")
            if not tokens[2].isdigit():
                raise MalformedFileError(
                    f"{path}:{line_no}: element count '{tokens[2]}' is not a "
                    "non-negative integer"
                )
            elements.append((tokens[1], int(tokens[2]), []))
        elif tokens[0] == "property":
            if not elements:
                raise MalformedFileError(f"{path}:{line_no}: property before any element")
            if len(tokens) < 3:
                raise MalformedFileError(f"{path}:{line_no}: malformed property line")
            name = tokens[-1] if tokens[1] == "list" else tokens[2]
            if any(name == prop[0] for prop in elements[-1][2]):
                raise MalformedFileError(f"{path}:{line_no}: duplicate property '{name}'")
            if tokens[1] == "list":
                elements[-1][2].append((name, "list"))
            else:
                if tokens[1] not in _PLY_TYPES:
                    raise MalformedFileError(
                        f"{path}:{line_no}: unknown property type '{tokens[1]}'"
                    )
                elements[-1][2].append((name, _PLY_TYPES[tokens[1]]))
    if is_binary is None:
        raise MalformedFileError(f"{path}: header declares no format")
    return is_binary, elements


def _read_element(f, path, is_binary, name, count, props) -> dict:
    """Read the ``count`` rows of one element from ``f`` into a float64
    column per property. A count the file cannot hold is rejected before
    anything is read or allocated."""
    if any(kind == "list" for _, kind in props):
        raise MalformedFileError(f"{path}: element '{name}' has list properties, "
                                 "which are not supported")
    left = os.fstat(f.fileno()).st_size - f.tell()
    dtype = np.dtype([(prop, "<" + kind) for prop, kind in props])
    # the fewest bytes the rows take: an ASCII value takes at least one byte
    # and one separator, and the last row may lack its newline
    need = count * dtype.itemsize if is_binary else max(2 * len(props), 1) * count - 1
    if need > left:
        raise MalformedFileError(
            f"{path}: element '{name}' declares {count} rows but only {left} bytes follow"
        )
    if is_binary:
        # rows of no property take no bytes, whatever their count: numpy
        # cannot count them, and nothing reads them
        data = np.frombuffer(f.read(need), dtype=dtype, count=count if need else 0)
        with np.errstate(invalid="ignore"):  # a signalling NaN warns on the cast
            return {prop: data[prop].astype(np.float64) for prop, _ in props}
    rows = np.empty((count, len(props)))
    for i in range(count):
        line = f.readline()
        if not line:
            raise MalformedFileError(f"{path}: element '{name}' ends after {i} of {count} rows")
        parts = line.split()
        if len(parts) < len(props):
            raise MalformedFileError(
                f"{path}: {name} row {i} has {len(parts)} of {len(props)} values"
            )
        try:
            rows[i] = [float(tok) for tok in parts[: len(props)]]
        except ValueError:
            raise MalformedFileError(
                f"{path}: {name} row {i} holds a value that is not a number"
            ) from None
    for (prop, kind), column in zip(props, rows.T):
        if kind[0] in "iu":  # a NaN fails the floor test
            lo, hi = np.iinfo(kind).min, np.iinfo(kind).max
            bad = (column < lo) | (column > hi) | (column != np.floor(column))
            if bad.any():
                i = int(bad.argmax())
                raise MalformedFileError(
                    f"{path}: {name} row {i} holds {column[i]:g} in property "
                    f"'{prop}', which is not an integer in [{lo}, {hi}]"
                )
    return {prop: rows[:, i] for i, (prop, _) in enumerate(props)}


def load_ply(path) -> PointCloud:
    """Read an ASCII or binary-little-endian PLY with x, y, z and intensity."""
    with open(path, "rb") as f:
        is_binary, elements = _parse_ply_header(f, path)
        vertex = next((e for e in elements if e[0] == "vertex"), None)
        if vertex is None:
            raise MalformedFileError(f"{path}: no 'vertex' element")
        kinds = dict(vertex[2])
        for needed in ("x", "y", "z", "intensity"):
            if needed not in kinds:
                raise MalformedFileError(f"{path}: vertex element lacks property '{needed}'")
        # elements ahead of the vertices are read and checked like them, then dropped
        for name, count, props in elements:
            columns = _read_element(f, path, is_binary, name, count, props)
            if name == "vertex":
                break
    xyz = np.column_stack([columns["x"], columns["y"], columns["z"]])
    attrs = _rescale_intensity(columns["intensity"], kinds["intensity"])
    return _drop_nonfinite(xyz, attrs, str(path))


# rows that write_ply formats with one % operation: bounds the transient
# string at a few MB
_ASCII_BLOCK_ROWS = 1 << 16


def write_ply(path, pc: PointCloud, binary: bool = False):
    """Write a cloud with float64 x, y, z, intensity properties.

    ASCII output uses 17 significant digits so coordinates round-trip
    exactly; identical clouds produce byte-identical files, the same bytes
    as ``np.savetxt(fmt="%.17g")``.
    """
    with open(path, "wb") as f:
        f.write(b"ply\n")
        f.write(b"format binary_little_endian 1.0\n" if binary else b"format ascii 1.0\n")
        f.write(b"element vertex %d\n" % len(pc))
        for name in ("x", "y", "z", "intensity"):
            f.write(b"property double %s\n" % name.encode())
        f.write(b"end_header\n")
        rows = np.column_stack([pc.xyz, pc.attributes])
        if binary:
            rows.astype("<f8").tofile(f)
        else:
            for start in range(0, len(rows), _ASCII_BLOCK_ROWS):
                block = rows[start:start + _ASCII_BLOCK_ROWS]
                f.write((("%.17g %.17g %.17g %.17g\n" * len(block))
                         % tuple(block.ravel().tolist())).encode())


# Largest sweep synth_sweep makes, counted in ray-surface tests: rays (beams
# x azimuth steps) times surfaces (the ground plane and each box). The
# default sweep makes 655,360 of them. At a traced peak of about 80 bytes
# per ray (the 420k-point frame), the cap keeps a sweep under about 1.3 GB.
MAX_SWEEP_TESTS = 1 << 24

# synthetic intensity models, for SweepSpec and synth --intensity
INTENSITY_MODELS = ("constant", "range-decay", "checker")


@dataclass(frozen=True)
class SweepSpec:
    """Geometry of a synthetic spinning-scanner sweep over a simple scene.

    The defaults model a dense, nearly horizontal beam fan: ground rings
    between ~13 m and the range limit, a couple of tall pillars past the
    outermost ring (they pin the vertical extent of the scene without
    shadowing the ground) and one car-sized box. ``box_count`` splits
    into ceil(n/2) pillars and floor(n/2) cars.
    """

    beam_count: int = 128
    elevation_range: tuple[float, float] = (-0.135, 0.015)
    azimuth_step: float = 2.0 * math.pi / 1280.0
    max_range: float = 45.0
    sensor_height: float = 1.8
    noise_sigma: float = 0.005
    intensity_model: str = "range-decay"
    box_count: int = 3

    def __post_init__(self):
        for name in ("beam_count", "box_count"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise InvalidInputError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if np.shape(self.elevation_range) != (2,):
            raise InvalidInputError(
                f"elevation_range must be a (low, high) pair, got {self.elevation_range!r}"
            )
        if self.beam_count < 1:
            raise InvalidInputError(f"beam_count must be >= 1, got {self.beam_count}")
        for name in ("azimuth_step", "max_range", "sensor_height", "elevation_range"):
            if not np.isfinite(getattr(self, name)).all():
                raise InvalidInputError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.azimuth_step > 0.0:
            raise InvalidInputError("azimuth_step must be positive")
        if not self.max_range > 0.0:
            raise InvalidInputError("max_range must be positive")
        if not (self.noise_sigma >= 0.0 and math.isfinite(self.noise_sigma)):
            raise InvalidInputError(
                f"noise_sigma must be a finite number >= 0, got {self.noise_sigma}"
            )
        if self.box_count < 0:
            raise InvalidInputError("box_count must be >= 0")
        if self.intensity_model not in INTENSITY_MODELS:
            raise InvalidInputError(
                f"unknown intensity model '{self.intensity_model}'"
            )
        # before anything is allocated; an int-float comparison cannot overflow
        azimuths = max(1.0, 2.0 * math.pi / self.azimuth_step)
        if self.beam_count * (self.box_count + 1) > MAX_SWEEP_TESTS / azimuths:
            raise InvalidInputError(
                f"sweep of {self.beam_count} beams x {azimuths:.0f} azimuths x "
                f"{self.box_count + 1} surfaces exceeds {MAX_SWEEP_TESTS} ray tests"
            )


def synth_sweep(spec: SweepSpec, seed: int = 0) -> PointCloud:
    """Deterministic synthetic sweep: rays from a sensor above a ground
    plane dotted with random boxes, with Gaussian range noise.

    The rays form one (beam, azimuth) grid: each beam, spaced evenly
    between the two elevations, fires once per ``azimuth_step`` of a full
    turn. Point density decays with radial distance exactly as for a real
    spinning scanner: both the ring spacing and the along-ring spacing
    grow with range.
    """
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    # scene first so the draw order is independent of ray parameters; a box
    # is a column of (radius, bearing, half x, half y, height). Pillars sit
    # past the outermost ground ring: they bound the height extent of the
    # cloud while shadowing no ground returns
    pillars = rng.uniform([[0.88 * spec.max_range], [-math.pi], [0.6], [0.6], [4.0]],
                          [[0.96 * spec.max_range], [math.pi], [1.2], [1.2], [8.0]],
                          (5, (spec.box_count + 1) // 2))
    cars = rng.uniform([[0.3 * spec.max_range], [-math.pi], [0.7], [0.7], [1.2]],
                       [[0.6 * spec.max_range], [math.pi], [1.1], [1.1], [1.8]],
                       (5, spec.box_count // 2))
    radius, bearing, half_x, half_y, height = np.hstack([pillars, cars])
    cx, cy = radius * np.cos(bearing), radius * np.sin(bearing)
    box_lo = np.column_stack([cx - half_x, cy - half_y, np.zeros(spec.box_count)])
    box_hi = np.column_stack([cx + half_x, cy + half_y, height])

    el = np.linspace(*spec.elevation_range, spec.beam_count)[:, None]
    az = -math.pi + spec.azimuth_step * np.arange(max(1, int(2.0 * math.pi / spec.azimuth_step)))
    cos_el = np.cos(el)
    dirs = (cos_el * np.cos(az), cos_el * np.sin(az), np.sin(el))  # (B, n), (B, n), (B, 1)
    origin = np.array([0.0, 0.0, spec.sensor_height])

    # extreme finite specs overflow to inf or NaN here; the keep mask drops those rays
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ground = np.where(dirs[2] < 0.0, -spec.sensor_height / dirs[2], np.inf)
        t = np.broadcast_to(ground, dirs[0].shape)  # the grid's shape even with no boxes
        for lo, hi in zip(box_lo, box_hi):
            # slab test one axis at a time; fmax/fmin skip the NaN of a 0/0
            # slab, and no ray has all three direction components zero
            t_near, t_far = -np.inf, np.inf
            for axis in range(3):
                t1 = (lo[axis] - origin[axis]) / dirs[axis]
                t2 = (hi[axis] - origin[axis]) / dirs[axis]
                t_near = np.fmax(t_near, np.minimum(t1, t2))
                t_far = np.fmin(t_far, np.maximum(t1, t2))
            hit = (t_far >= t_near) & (t_far > 0.0) & (t_near > 1e-9)
            t = np.where(hit & (t_near < t), t_near, t)
        if spec.noise_sigma:
            t = t + rng.normal(0.0, spec.noise_sigma, t.shape)
    keep = np.isfinite(t) & (t > 0.0) & (t <= spec.max_range)
    beam, step = rays = np.nonzero(keep)  # in the C order of t[keep]
    t = t[keep]
    xyz = np.column_stack([origin[axis] + t * np.broadcast_to(dirs[axis], keep.shape)[rays]
                           for axis in range(3)])

    if spec.intensity_model == "constant":
        attrs = np.full(t.shape, 128.0)
    elif spec.intensity_model == "range-decay":
        attrs = 255.0 * np.exp(-t / 50.0)
    else:  # checker
        attrs = 255.0 * ((beam // 8 + step // 64) % 2).astype(np.float64)
    return PointCloud(xyz, np.clip(attrs, 0.0, 255.0))
