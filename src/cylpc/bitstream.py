"""Self-contained bitstream container for one encoded point cloud.

Layout (all integers little-endian, floats IEEE-754 binary64):

    offset  size  field
    0        6    magic "CYLPC1"
    6        1    version (1)
    7        1    coordinate system: 0 Cartesian, 1 cylindrical
    8        1    octree depth (1..21)
    9        1    flags: bit 0 = log-radial partition (cylindrical only)
    10       8    r_min (meters; shapes log-radial grids only, and the
                  encoder writes 1.0 on every other grid)
    18      48    bounds, 6 doubles (VoxelGridConfig.bounds):
                    Cartesian:   origin_x, origin_y, origin_z, side, 0, 0
                    cylindrical: radius, height, h_min, 0, 0, 0
                  radius is the padded bounding R in meters, also on
                  log-radial grids; each 0 field is reserved and must be
                  eight zero bytes (+0.0)
    66       8    original point count N (>= the occupied leaf count)
    74       8    quantization step
    82       8    geometry section length G
    90       G    octree occupancy bytes
    90+G     8    attribute section length A
    98+G     8    coefficient count (equals the occupied leaf count)
    106+G    A    RLGR payload bytes

The decoder needs nothing beyond these bytes. Leaf weights are not
transmitted: the wire pipeline runs the hierarchical transform with unit
weight per occupied voxel, which the decoder reproduces from the
occupancy stream alone.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CorruptStreamError, CylpcError, InvalidConfigError
from .geometry import PointCloud
from .morton import MAX_DEPTH
from .octree import deserialize, octree_from_leaf_codes, serialize
from .coeff_codec import RlgrPayload, dequantize, quantize, rlgr_decode, rlgr_encode
from .raht import RahtSchedule, raht_forward_arrays, raht_inverse_arrays, raht_schedule
from .voxelizer import (
    CoordinateSystem,
    VoxelGridConfig,
    VoxelizedCloud,
    make_config,
    voxel_centers,
    voxelize,
)

MAGIC = b"CYLPC1"
VERSION = 1

_HEADER = struct.Struct("<6sBBBB7dQd")
HEADER_BYTES = _HEADER.size  # 82
# container overhead: fixed header + two section lengths + coefficient count
OVERHEAD_BYTES = HEADER_BYTES + 8 + 8 + 8

# Finest qstep the encoder accepts. float64 holds an attribute below
# 256 = 2^8 with a rounding error of up to 2^8 * 2^-53 = 2^-45, and the
# transform round trip adds about one such error per step: 3 butterfly
# passes per level each way plus quantize and dequantize, at most
# 6 * MAX_DEPTH + 2 = 128 = 2^7 steps, or 2^-38 in all. From 2^-35 on that
# is at most qstep/8; added to the qstep/sqrt(12) RMS of uniform
# quantization it keeps the RMS error under qstep/2, so MSE <= qstep^2/4.
# Measured: rounding alone leaves an RMS error near 1e-13, and at qstep
# 1e-13 the MSE reaches 5x the bound.
QSTEP_MIN = 2.0**-35


@dataclass(frozen=True)
class EncodeSummary:
    """Per-stream rate accounting. Section bpp figures count payload bytes
    only; header_bpp covers the fixed header and length/count fields so
    the three sections sum exactly to the file size."""

    n_points: int
    n_voxels: int
    geometry_bytes: int
    attribute_bytes: int
    total_bytes: int

    @property
    def header_bytes(self) -> int:
        return self.total_bytes - self.geometry_bytes - self.attribute_bytes

    @property
    def geometry_bpp(self) -> float:
        return 8.0 * self.geometry_bytes / self.n_points

    @property
    def attribute_bpp(self) -> float:
        return 8.0 * self.attribute_bytes / self.n_points

    @property
    def header_bpp(self) -> float:
        return 8.0 * self.header_bytes / self.n_points

    @property
    def total_bpp(self) -> float:
        return 8.0 * self.total_bytes / self.n_points


@dataclass(frozen=True)
class DecodedCloud:
    """Decoder output: voxel-center cloud plus the stream's parameters."""

    cloud: PointCloud
    config: VoxelGridConfig
    codes: np.ndarray
    leaf_attributes: np.ndarray
    qstep: float
    n_points: int


def wire_schedule(codes: np.ndarray, depth: int) -> RahtSchedule:
    """Transform schedule of the leaf codes at the wire's unit leaf weights."""
    return raht_schedule(codes, np.ones(codes.size, dtype=np.int64), depth)


def attribute_ints(vc: VoxelizedCloud, qstep: float) -> np.ndarray:
    """Transform and quantize the attribute coefficients, in coding order."""
    schedule = wire_schedule(vc.codes, vc.config.depth)
    return quantize(raht_forward_arrays(schedule, vc.attributes), qstep)


def decode_attributes(
    ints: Sequence[int] | np.ndarray, schedule: RahtSchedule, qstep: float
) -> np.ndarray:
    """Inverse of attribute_ints given the leaves' wire_schedule; clamps to [0, 255].

    Raises CorruptStreamError when the coefficients reconstruct to values
    that are not finite, which only a corrupt stream can cause.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        attrs = raht_inverse_arrays(dequantize(ints, qstep), schedule)
    if not np.isfinite(attrs).all():
        raise CorruptStreamError(
            f"coefficients at qstep {qstep:g} reconstruct to non-finite attributes"
        )
    return np.clip(attrs, 0.0, 255.0)


def _config_from_header(
    coords: int, depth: int, log_radial: bool, r_min: float, bounds: tuple[float, ...]
) -> VoxelGridConfig:
    system = CoordinateSystem.CARTESIAN if coords == 0 else CoordinateSystem.CYLINDRICAL
    try:
        return VoxelGridConfig(system, depth, bounds, log_radial, r_min)
    except CylpcError as exc:
        # r_min and the six bounds fields start at byte 10
        raise CorruptStreamError(f"invalid bounds in header: {exc}", offset=10) from exc


def pack_stream(cfg: VoxelGridConfig, n_points: int, qstep: float,
                occupancy: bytes, payload: RlgrPayload) -> bytes:
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        0 if cfg.system is CoordinateSystem.CARTESIAN else 1,
        cfg.depth,
        1 if cfg.log_radial else 0,
        cfg.r_min,
        *cfg.bounds,
        n_points,
        qstep,
    )
    return b"".join(
        [
            header,
            struct.pack("<Q", len(occupancy)),
            occupancy,
            struct.pack("<QQ", len(payload.data), payload.count),
            payload.data,
        ]
    )


class Encoder:
    """One point cloud voxelized on one grid, ready to encode at any qstep.

    Voxelization, the occupancy bytes, the transform schedule and the
    forward transform do not depend on the qstep, so they run once here;
    each ``encode`` only quantizes, entropy-codes and packs. A sweep rebuilds
    each qstep from the ints it returns, this schedule and ``voxels.slots``.
    """

    def __init__(self, pc: PointCloud, system: CoordinateSystem, depth: int,
                 log_radial: bool = False, r_min: float = 1.0):
        cfg = make_config(pc, system, depth, log_radial=log_radial, r_min=r_min)
        self.voxels = voxelize(pc, cfg)
        self.occupancy = serialize(octree_from_leaf_codes(self.voxels.codes, depth)).data
        self.schedule = wire_schedule(self.voxels.codes, depth)
        self.coeffs = raht_forward_arrays(self.schedule, self.voxels.attributes)

    def encode(self, qstep: float) -> tuple[bytes, EncodeSummary, np.ndarray]:
        """Return (bitstream, summary, the int64 coefficients RLGR coded into it)."""
        if 0.0 < qstep < QSTEP_MIN:
            raise InvalidConfigError(
                f"qstep {qstep} is too small: below {QSTEP_MIN:g}, float64 rounding"
                " breaks MSE <= qstep^2/4"
            )
        ints = quantize(self.coeffs, qstep)
        payload = rlgr_encode(ints)
        data = pack_stream(
            self.voxels.config, self.voxels.n_points, qstep, self.occupancy, payload
        )
        summary = EncodeSummary(
            n_points=self.voxels.n_points,
            n_voxels=len(self.voxels),
            geometry_bytes=len(self.occupancy),
            attribute_bytes=len(payload.data),
            total_bytes=len(data),
        )
        return data, summary, ints


def encode_cloud(
    pc: PointCloud,
    system: CoordinateSystem,
    depth: int,
    qstep: float,
    log_radial: bool = False,
    r_min: float = 1.0,
) -> tuple[bytes, EncodeSummary]:
    """Run the full pipeline on ``pc`` and return (bitstream, summary)."""
    data, summary, _ = Encoder(pc, system, depth, log_radial, r_min).encode(qstep)
    return data, summary


def decode_cloud(data: bytes) -> DecodedCloud:
    """Decode a bitstream produced by encode_cloud; needs only the bytes."""
    if len(data) < HEADER_BYTES:
        raise CorruptStreamError(
            f"stream of {len(data)} bytes is shorter than the {HEADER_BYTES}-byte header",
            offset=len(data),
        )
    (magic, version, coords, depth, flags, r_min, b0, b1, b2, b3, b4, b5,
     n_points, qstep) = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise CorruptStreamError(f"bad magic {magic!r}", offset=0)
    if version != VERSION:
        raise CorruptStreamError(f"unsupported version {version}", offset=6)
    if coords not in (0, 1):
        raise CorruptStreamError(f"unknown coordinate system {coords}", offset=7)
    if not 1 <= depth <= MAX_DEPTH:
        raise CorruptStreamError(f"depth {depth} outside [1, {MAX_DEPTH}]", offset=8)
    if flags & ~1:
        raise CorruptStreamError(f"unknown flags 0x{flags:02x}", offset=9)
    if flags and coords == 0:
        raise CorruptStreamError("log-radial flag on a Cartesian stream", offset=9)
    if not (qstep > 0.0 and np.isfinite(qstep)):
        raise CorruptStreamError(f"invalid qstep {qstep}", offset=74)
    for field in range(4 if coords == 0 else 3, 6):
        offset = 18 + 8 * field
        if data[offset : offset + 8] != bytes(8):
            raise CorruptStreamError(
                f"reserved bounds field {field} is not eight zero bytes", offset=offset
            )
    cfg = _config_from_header(
        coords, depth, bool(flags & 1), r_min, (b0, b1, b2, b3, b4, b5)
    )

    pos = HEADER_BYTES
    if len(data) < pos + 8:
        raise CorruptStreamError("truncated geometry section length", offset=len(data))
    (geom_len,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    if len(data) < pos + geom_len:
        raise CorruptStreamError(
            f"geometry section of {geom_len} bytes exceeds stream", offset=len(data)
        )
    try:
        octree = deserialize(data[pos : pos + geom_len], depth)
    except CorruptStreamError as exc:
        raise CorruptStreamError(
            f"geometry section: {exc}",
            offset=pos + (exc.offset if exc.offset is not None else 0),
        ) from exc
    pos += geom_len
    codes = octree.leaves
    if n_points < codes.size:
        raise CorruptStreamError(
            f"point count {n_points} is below the {codes.size} occupied leaves", offset=66
        )

    if len(data) < pos + 16:
        raise CorruptStreamError("truncated attribute section header", offset=len(data))
    attr_len, count = struct.unpack_from("<QQ", data, pos)
    pos += 16
    if len(data) < pos + attr_len:
        raise CorruptStreamError(
            f"attribute section of {attr_len} bytes exceeds stream", offset=len(data)
        )
    if len(data) != pos + attr_len:
        raise CorruptStreamError(
            f"{len(data) - pos - attr_len} trailing bytes after attribute section",
            offset=pos + attr_len,
        )
    if count != codes.size:
        raise CorruptStreamError(
            f"coefficient count {count} does not match {codes.size} occupied leaves",
            offset=pos - 8,
        )
    payload = RlgrPayload(data=data[pos : pos + attr_len], count=int(count))
    try:
        ints = rlgr_decode(payload, as_array=True)
        attrs = decode_attributes(ints, wire_schedule(codes, depth), qstep)
    except CorruptStreamError as exc:
        raise CorruptStreamError(
            f"attribute section: {exc}", offset=exc.offset
        ) from exc
    with np.errstate(over="ignore", invalid="ignore"):
        xyz = voxel_centers(cfg, codes)
    if not np.isfinite(xyz).all():
        raise CorruptStreamError(
            "header bounds put voxel centers outside the float64 range", offset=18
        )
    return DecodedCloud(
        cloud=PointCloud(xyz, attrs),
        config=cfg,
        codes=codes,
        leaf_attributes=attrs,
        qstep=qstep,
        n_points=int(n_points),
    )
