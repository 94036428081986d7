"""Occupancy octree over voxel codes and its breadth-first byte serialization.

Every occupied internal node contributes exactly one occupancy byte; bit
4*d2 + 2*d1 + d0 is set iff the child offset (d0, d1, d2) along
(axis0, axis1, axis2) is occupied. Nodes are emitted level by level from
the root, each level sorted by interleaved code, so the stream is a pure
function of the occupied-voxel set.

``Octree`` holds the leaves and each level's occupancy bytes; the codes of
the inner levels are loop state. ``octree_from_leaf_codes`` goes up from
the leaves: the step that dedupes a level's parents also ORs their
occupancy bytes, so ``serialize`` only joins the per-level byte arrays.
``deserialize`` goes down from the root. Deep levels of a sparse cloud are
single-child: such a level's bytes are ``1 << (child & 7)`` with no
reduction, and ``deserialize`` appends each byte's one set bit to its
parent's code when no byte of the level has two bits set.

Validation lives where data enters: ``octree_from_leaf_codes`` checks the
depth and the leaf codes, ``deserialize`` checks the depth and the bytes.
Every level is strictly increasing and closed under ``>> 3`` by
construction, so ``Octree`` itself is a plain holder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CorruptStreamError, InvalidInputError
from .morton import MAX_DEPTH

# child offset of each one-bit occupancy byte (entry 0 is never read)
_LOWEST_BIT = np.array([max((b & -b).bit_length() - 1, 0) for b in range(256)], dtype=np.uint8)


def _level(children: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct parents of strictly increasing ``children``, ascending, and
    the uint8 occupancy byte of each.

    Shifting a strictly increasing array keeps it non-decreasing, so
    equal parents are adjacent and one comparison with the neighbour
    dedupes them in linear time; a single-child level has none to drop,
    and each child's bit is its parent's byte.
    """
    shifted = children >> 3
    bits = np.left_shift(np.uint8(1), children.astype(np.uint8) & np.uint8(7))
    new = shifted[1:] != shifted[:-1]
    if new.all():
        return shifted, bits
    starts = np.flatnonzero(np.r_[True, new])
    return shifted[starts], np.bitwise_or.reduceat(bits, starts)


@dataclass(frozen=True)
class Octree:
    """The sorted leaf codes, at level ``depth``, and the uint8 occupancy
    bytes of levels 0 (the root) to depth - 1: geometry only."""

    depth: int
    leaves: np.ndarray
    occupancy: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class OccupancyStream:
    """Serialized occupancy bytes, one per occupied internal node."""

    data: bytes


def octree_from_leaf_codes(codes: np.ndarray, depth: int) -> Octree:
    """Build the tree whose leaf set is ``codes`` via successive right-shifts."""
    if not 1 <= depth <= MAX_DEPTH:
        raise InvalidInputError(f"depth {depth} outside [1, {MAX_DEPTH}]")
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    if codes.size == 0:
        raise InvalidInputError("octree needs at least one occupied voxel")
    if codes.min() < 0 or codes.max() >= (1 << (3 * depth)):
        raise InvalidInputError(f"leaf codes outside [0, 8^{depth})")
    if (np.diff(codes) <= 0).any():
        raise InvalidInputError("leaf codes must be strictly increasing")
    nodes, occupancy = codes, []
    for _ in range(depth):
        nodes, occ = _level(nodes)
        occupancy.append(occ)
    return Octree(depth, codes, tuple(reversed(occupancy)))


def serialize(ot: Octree) -> OccupancyStream:
    """Breadth-first occupancy bytes for every occupied internal node."""
    return OccupancyStream(b"".join(ot.occupancy))


def deserialize(stream: OccupancyStream | bytes, depth: int) -> Octree:
    """Rebuild the occupied-node hierarchy from an occupancy byte stream.

    Raises CorruptStreamError (with the offending byte offset) on
    truncation, zero occupancy bytes, or trailing data.
    """
    data = stream.data if isinstance(stream, OccupancyStream) else bytes(stream)
    if not 1 <= depth <= MAX_DEPTH:
        raise InvalidInputError(f"depth {depth} outside [1, {MAX_DEPTH}]")
    nodes, occupancies = np.zeros(1, dtype=np.int64), []
    pos = 0
    for _ in range(depth):
        if pos + nodes.size > len(data):
            raise CorruptStreamError(
                f"occupancy stream truncated at byte {len(data)}, "
                f"expected {pos + nodes.size} bytes",
                offset=len(data),
            )
        occupancy = np.frombuffer(data, dtype=np.uint8, count=nodes.size, offset=pos)
        zero = np.flatnonzero(occupancy == 0)
        if zero.size:
            raise CorruptStreamError(
                f"zero occupancy byte at offset {pos + int(zero[0])}",
                offset=pos + int(zero[0]),
            )
        pos += nodes.size
        occupancies.append(occupancy)
        if not (occupancy & (occupancy - 1)).any():
            nodes = (nodes << 3) | _LOWEST_BIT.take(occupancy)
            continue
        # bit 8*i + b is child b of node i: parents and bits come out ascending
        flat = np.flatnonzero(np.unpackbits(occupancy, bitorder="little").view(bool))
        nodes = (nodes[flat >> 3] << 3) | (flat & 7)
    if pos != len(data):
        raise CorruptStreamError(
            f"{len(data) - pos} trailing bytes after occupancy stream at offset {pos}",
            offset=pos,
        )
    return Octree(depth, nodes, tuple(occupancies))
