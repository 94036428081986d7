"""Interleaved (Morton) indices for 3-axis voxel addresses.

Bit layout: axis 0 occupies bit 3*b, axis 1 bit 3*b + 1 and axis 2 bit
3*b + 2 for each per-axis bit b. Axis 0 is x (Cartesian) or r
(cylindrical), so the least significant interleaved bit distinguishes
siblings along the first processing axis of the hierarchical transform.

Depths up to 21 fit in a signed 64-bit integer (3 * 21 = 63 bits).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

MAX_DEPTH = 21

# Magic-number interleave: step i moves the bits of a 21-bit value apart by
# _SHIFTS[i] and leaves them where _MASKS[i + 1] is set, so after the last
# step bit b sits at bit 3 * b. Compaction runs the steps backwards.
_SHIFTS = (32, 16, 8, 4, 2)
_MASKS = (
    0x1FFFFF,
    0x1F00000000FFFF,
    0x1F0000FF0000FF,
    0x100F00F00F00F00F,
    0x10C30C30C30C30C3,
    0x1249249249249249,
)


def _spread(v: np.ndarray) -> np.ndarray:
    for i, shift in enumerate(_SHIFTS):
        v = (v | (v << shift)) & _MASKS[i + 1]
    return v


def _compact(v: np.ndarray) -> np.ndarray:
    v = v & _MASKS[-1]
    for i in reversed(range(len(_SHIFTS))):
        v = (v | (v >> _SHIFTS[i])) & _MASKS[i]
    return v


def morton_encode(ijk: np.ndarray, depth: int) -> np.ndarray:
    """Interleave (N, 3) per-axis bin indices (any strides) into (N,) int64 codes."""
    if not 1 <= depth <= MAX_DEPTH:
        raise InvalidInputError(f"depth {depth} outside [1, {MAX_DEPTH}]")
    ijk = np.asarray(ijk, dtype=np.int64)
    if ijk.ndim != 2 or ijk.shape[1] != 3:
        raise InvalidInputError(f"expected (N, 3) indices, got shape {ijk.shape}")
    if ijk.size and (ijk.min() < 0 or ijk.max() >= (1 << depth)):
        raise InvalidInputError(f"indices outside [0, 2^{depth})")
    return _spread(ijk[:, 0]) | (_spread(ijk[:, 1]) << 1) | (_spread(ijk[:, 2]) << 2)


def morton_decode(codes: np.ndarray, depth: int) -> np.ndarray:
    """Inverse of morton_encode: (N,) codes -> (N, 3) per-axis indices,
    the transpose of a (3, N) array so that each axis is contiguous."""
    if not 1 <= depth <= MAX_DEPTH:
        raise InvalidInputError(f"depth {depth} outside [1, {MAX_DEPTH}]")
    codes = np.asarray(codes, dtype=np.int64)
    keep = (1 << depth) - 1  # bits above 3 * depth are not part of the code
    return np.stack([_compact(codes >> axis) & keep for axis in range(3)]).T
