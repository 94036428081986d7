"""Interleaved (Morton) indices for 3-axis voxel addresses.

Bit layout: axis 0 occupies bit 3*b, axis 1 bit 3*b + 1 and axis 2 bit
3*b + 2 for each per-axis bit b. Axis 0 is x (Cartesian) or r
(cylindrical), so the least significant interleaved bit distinguishes
siblings along the first processing axis of the hierarchical transform.

Depths up to 21 fit in a signed 64-bit integer (3 * 21 = 63 bits).

Both directions use lookup tables built at import, each holding its own
shift (Baert, "Morton encoding/decoding through bit interleaving:
implementations", 2013). ``_SPREAD[a, h]`` spreads the low (h = 0) or
high (h = 1) 11 bits of an axis-a index; ``_GATHER[s]`` moves the 4 bits
of each axis a in the s-th 12-bit slice of a code to bit 21 * a + 4 * s.
"""

from __future__ import annotations

import numpy as np

MAX_DEPTH = 21

_IDX = np.arange(4096, dtype=np.int64)
_SPREAD11 = sum(((_IDX[:2048] >> b) & 1) << 3 * b for b in range(11))
_GATHER12 = sum(((_IDX >> 3 * b + a) & 1) << 21 * a + b for b in range(4) for a in range(3))
_SPREAD = np.array([[_SPREAD11 << a, _SPREAD11 << 33 + a] for a in range(3)])
_GATHER = np.array([_GATHER12 << 4 * s for s in range(6)])


def morton_encode(ijk: np.ndarray) -> np.ndarray:
    """Interleave (N, 3) int64 per-axis bin indices (any strides) into (N,)
    int64 codes. The caller holds each index in [0, 2^MAX_DEPTH)."""
    out = 0
    for axis in range(3):
        v = ijk[:, axis]
        out |= _SPREAD[axis, 0].take(v & 2047)
        out |= _SPREAD[axis, 1].take(v >> 11)
    return out


def morton_decode(codes: np.ndarray, depth: int) -> np.ndarray:
    """Inverse of morton_encode: (N,) codes -> (N, 3) per-axis indices,
    the transpose of a (3, N) array so that each axis is contiguous."""
    # bits above 3 * depth, the sign bit among them, are not part of the code
    codes = codes & ((1 << 3 * depth) - 1)
    packed = _GATHER[0].take(codes & 4095)
    for s in range(1, -(-3 * depth // 12)):
        packed |= _GATHER[s].take((codes >> 12 * s) & 4095)
    ijk = np.empty((3, codes.size), dtype=np.int64)
    for axis in range(3):
        np.right_shift(packed, 21 * axis, out=ijk[axis])
        ijk[axis] &= (1 << depth) - 1
    return ijk.T
