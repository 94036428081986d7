"""Self-contained bitstream container for one encoded point cloud.

Layout (all integers little-endian, floats IEEE-754 binary64):

    offset  size  field
    0        6    magic "CYLPC1"
    6        1    version (5)
    7        1    coordinate system: 0 Cartesian, 1 cylindrical
    8        1    octree depth (1..21)
    9        1    flags: bit 0 = log-radial partition (cylindrical only)
    10      24    grid origin, 3 doubles (VoxelGridConfig.origin)
    34      24    grid extents, 3 doubles (VoxelGridConfig.extents), in
                  the axis domain: x/y/z, or r (ln r if log-radial),
                  theta and h
    58       8    original point count N (>= the occupied leaf count)
    66       8    quantization step
    74       G    geometry section: the raw deflate (RFC 1951) of
                  the occupancy bytes, one Huffman-only block per
                  octree level; its last block (BFINAL) ends it
    74+G     rest RLGR payload bytes, to the end of the stream

A stream that ends inside the header raises CorruptStreamError (exit 4),
naming the byte where the stream ends. The section length G is not
stored: the decoder inflates from byte 74 until the deflate data's last
block, and what follows is the payload. It inflates at most 1032 bytes
per byte after the header, deflate's largest expansion, so its memory
stays bounded by the stream. zlib reports no bit offset, so an inflate
error, or deflate data that ends before its last block, names byte 74,
where the deflate data starts; an error in the inflated occupancy (a
zero byte, too few or too many bytes for the tree) names its inflated
byte in the message and byte 74 as its offset. The occupied leaves give
the coefficient count, and RLGR must use up the payload to its padding,
so a payload cut short or followed by more bytes is an attribute section
error; it names the byte where the payload starts, and its offset is a
payload bit. Any correct inflate decodes the encoder's deflate bytes,
which are those of its zlib build. Leaf weights are not transmitted: the
wire pipeline runs the hierarchical transform with unit weight per
occupied voxel, which the decoder reproduces from the occupancy stream.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CorruptStreamError, CylpcError
from .geometry import PointCloud
from .morton import MAX_DEPTH
from .octree import Octree, deserialize, octree_from_leaf_codes, serialize
from .coeff_codec import RlgrPayload, dequantize, quantize, rlgr_decode, rlgr_encode
from .raht import (CoefficientStream, RahtSchedule, raht_forward_arrays,
                   raht_inverse_arrays, raht_schedule)
from .voxelizer import (
    CoordinateSystem,
    VoxelGridConfig,
    VoxelizedCloud,
    make_config,
    voxel_centers,
    voxelize,
)

MAGIC = b"CYLPC1"
VERSION = 5

_HEADER = struct.Struct("<6sBBBB6dQd")
HEADER_BYTES = _HEADER.size  # 74

# The geometry coder: zlib's raw deflate (no zlib header or checksum,
# 32 KiB window) at level 9 and memLevel 9, Huffman codes only. Each
# octree level ends its block, so each level gets its own code table.
_DEFLATE = (9, zlib.DEFLATED, -15, 9, zlib.Z_HUFFMAN_ONLY)
# one deflate byte inflates to at most 1032 bytes: a 258-byte match can
# take 2 bits
_INFLATE_MAX = 1032


@dataclass(frozen=True)
class EncodeSummary:
    """Per-stream rate accounting. Section bpp figures count section bytes
    only: the geometry section is the deflate data, the attribute section
    the RLGR payload. header_bpp covers the fixed header, so the
    three sum exactly to the file size. geometry_raw_bytes counts the
    occupancy bytes before deflate."""

    n_points: int
    n_voxels: int
    geometry_bytes: int
    attribute_bytes: int
    total_bytes: int
    geometry_raw_bytes: int

    @property
    def header_bytes(self) -> int:
        return self.total_bytes - self.geometry_bytes - self.attribute_bytes

    @property
    def geometry_bpp(self) -> float:
        return 8.0 * self.geometry_bytes / self.n_points

    @property
    def geometry_raw_bpp(self) -> float:
        return 8.0 * self.geometry_raw_bytes / self.n_points

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
    return quantize(raht_forward_arrays(schedule, vc.attributes).values, qstep)


def decode_attributes(
    ints: Sequence[int] | np.ndarray, schedule: RahtSchedule, qstep: float
) -> np.ndarray:
    """Inverse of attribute_ints given the leaves' wire_schedule; clamps to [0, 255].

    Raises CorruptStreamError when the coefficients reconstruct to values
    that are not finite, which only a corrupt stream can cause.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        attrs = raht_inverse_arrays(CoefficientStream(dequantize(ints, qstep)), schedule)
    if not np.isfinite(attrs).all():
        raise CorruptStreamError(
            f"coefficients at qstep {qstep:g} reconstruct to non-finite attributes"
        )
    return np.clip(attrs, 0.0, 255.0)


def _geometry_section(octree: Octree) -> tuple[int, bytes]:
    """The length of ``serialize(octree)``, and the raw deflate of those
    bytes, one Huffman-only block per level."""
    raw_bytes = len(serialize(octree).data)
    z = zlib.compressobj(*_DEFLATE)
    parts = []
    for occupancy in octree.occupancy:
        parts += (z.compress(occupancy), z.flush(zlib.Z_BLOCK))
    parts.append(z.flush())
    return raw_bytes, b"".join(parts)


def _inflate_geometry(data: bytes, at: int) -> tuple[bytes, bytes]:
    """The occupancy bytes of the deflate data from byte ``at`` of ``data``,
    and the bytes after its last block.

    At most _INFLATE_MAX bytes per byte from ``at`` on come out, which no
    valid deflate stream reaches, so memory stays bounded by the stream. A
    max_length of 0 means no limit to zlib, but a stream that ends at
    ``at`` inflates nothing and fails the end-of-stream check.
    """
    inflater = zlib.decompressobj(-15)
    try:
        raw = inflater.decompress(data[at:], _INFLATE_MAX * (len(data) - at))
    except zlib.error as exc:
        raise CorruptStreamError(
            f"geometry section: {exc} (in the deflate data from byte {at})", offset=at
        ) from exc
    if not inflater.eof:
        raise CorruptStreamError(
            f"geometry section: the deflate data from byte {at} ends after {len(raw)}"
            " bytes, before its last block",
            offset=at,
        )
    return raw, inflater.unused_data


def pack_stream(cfg: VoxelGridConfig, n_points: int, qstep: float,
                geometry: bytes, payload: RlgrPayload) -> bytes:
    """The container around a geometry section and an RLGR payload."""
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        0 if cfg.system is CoordinateSystem.CARTESIAN else 1,
        cfg.depth,
        1 if cfg.log_radial else 0,
        *cfg.origin,
        *cfg.extents,
        n_points,
        qstep,
    )
    return b"".join([header, geometry, payload.data])


class Encoder:
    """One point cloud voxelized on the grid ``cfg``, ready to encode at any qstep.

    ``cfg`` is the grid ``make_config`` built for ``pc``; a grid that does
    not enclose the cloud raises OutOfRangeError. Voxelization, the coded
    geometry section (``geometry``), the transform schedule and the
    forward transform do not depend on the qstep, so they run once here;
    each ``encode`` only quantizes, entropy-codes and packs. A sweep
    rebuilds each qstep from the ints it returns, this schedule and
    ``voxels.slots``.
    """

    def __init__(self, pc: PointCloud, cfg: VoxelGridConfig):
        self.voxels = voxelize(pc, cfg)
        self.geometry_raw_bytes, self.geometry = _geometry_section(
            octree_from_leaf_codes(self.voxels.codes, cfg.depth))
        self.schedule = wire_schedule(self.voxels.codes, cfg.depth)
        self.coeffs = raht_forward_arrays(self.schedule, self.voxels.attributes)

    def encode(self, qstep: float) -> tuple[bytes, EncodeSummary, np.ndarray]:
        """Return (bitstream, summary, the int64 coefficients RLGR coded into it)."""
        ints = quantize(self.coeffs.values, qstep)
        payload = rlgr_encode(ints)
        data = pack_stream(
            self.voxels.config, self.voxels.n_points, qstep, self.geometry, payload
        )
        summary = EncodeSummary(
            n_points=self.voxels.n_points,
            n_voxels=len(self.voxels),
            geometry_bytes=len(self.geometry),
            attribute_bytes=len(payload.data),
            total_bytes=len(data),
            geometry_raw_bytes=self.geometry_raw_bytes,
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
    cfg = make_config(pc, system, depth, log_radial=log_radial, r_min=r_min)
    data, summary, _ = Encoder(pc, cfg).encode(qstep)
    return data, summary


def decode_cloud(data: bytes) -> DecodedCloud:
    """Decode a bitstream produced by encode_cloud; needs only the bytes."""
    if len(data) < HEADER_BYTES:
        raise CorruptStreamError(
            f"stream ends at byte {len(data)} inside the {HEADER_BYTES}-byte header at byte 0",
            offset=len(data),
        )
    magic, version, coords, depth, flags, *grid, n_points, qstep = _HEADER.unpack_from(data)
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
        raise CorruptStreamError(f"invalid qstep {qstep}", offset=66)
    system = CoordinateSystem.CARTESIAN if coords == 0 else CoordinateSystem.CYLINDRICAL
    try:
        cfg = VoxelGridConfig(system, depth, tuple(grid[:3]), tuple(grid[3:]), bool(flags))
    except CylpcError as exc:
        raise CorruptStreamError(f"invalid grid in header: {exc}", offset=10) from exc

    occupancy, payload = _inflate_geometry(data, HEADER_BYTES)
    try:
        codes = deserialize(occupancy, depth).leaves
    except CorruptStreamError as exc:
        raise CorruptStreamError(
            f"geometry section: inflated byte {exc.offset}: {exc}", offset=HEADER_BYTES
        ) from exc
    if n_points < codes.size:
        raise CorruptStreamError(
            f"point count {n_points} is below the {codes.size} occupied leaves", offset=58
        )
    try:
        ints = rlgr_decode(RlgrPayload(payload, codes.size), as_array=True)
        attrs = decode_attributes(ints, wire_schedule(codes, depth), qstep)
    except CorruptStreamError as exc:
        start = len(data) - len(payload)
        raise CorruptStreamError(f"attribute section (payload from byte {start}): {exc}",
                                 offset=exc.offset) from exc
    with np.errstate(over="ignore", invalid="ignore"):
        xyz = voxel_centers(cfg, codes)
    if not np.isfinite(xyz).all():
        raise CorruptStreamError(
            "header grid puts voxel centers outside the float64 range", offset=10
        )
    return DecodedCloud(
        cloud=PointCloud(xyz, attrs),
        config=cfg,
        codes=codes,
        leaf_attributes=attrs,
        qstep=qstep,
        n_points=int(n_points),
    )
