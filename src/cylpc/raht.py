"""Weight-adaptive hierarchical transform over octree leaf attributes.

Leaves are given as aligned arrays: strictly increasing interleaved
codes, one attribute and one positive weight per leaf. The transform walks the tree from the leaves to the root. Each octree
level is processed as three pairing passes, one per axis in the fixed
order axis0, axis1, axis2 (x, y, z for Cartesian grids; r, theta, h
for cylindrical ones). Because interleaved codes place axis0 in the least
significant bit, one pass simply merges nodes whose codes agree after
dropping that bit:

    low  = ( sqrt(w1) * a1 + sqrt(w2) * a2) / sqrt(w1 + w2)
    high = (-sqrt(w2) * a1 + sqrt(w1) * a2) / sqrt(w1 + w2)

The 2x2 butterfly is orthonormal for any positive weights, so the
transform preserves energy exactly and the inverse is its transpose.
Unpaired nodes pass through unchanged. High-pass coefficients are
emitted deepest pass first, in ascending code order within a pass; the
surviving low-pass value at the root is the DC coefficient. The decoder
replays the identical schedule from the leaf codes and weights alone,
so only the coefficients need to be transmitted.

Everything here consumes only the interleaved codes: identical leaf
codes produce identical coefficients in either coordinate system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class CoefficientStream:
    """DC coefficient plus high-pass coefficients in emission order.

    ``raht_forward_arrays`` and ``dequantize`` build it with float64 highs.
    """

    dc: float
    highs: np.ndarray

    @property
    def count(self) -> int:
        return self.highs.size + 1


@dataclass(frozen=True)
class _Pass:
    """One pairing pass: node count on entry, pair positions, the mask of
    nodes that survive the pass and the butterfly gains."""

    size: int
    left: np.ndarray
    keep: np.ndarray
    sw1: np.ndarray
    sw2: np.ndarray


def _merge_plan(codes: np.ndarray, weights: np.ndarray, depth: int) -> list[_Pass]:
    """Schedule of the 3 * depth pairing passes for the given leaf set."""
    codes = np.asarray(codes, dtype=np.int64)
    weights = np.array(weights, dtype=np.float64)  # mutated below, keep a copy
    if codes.size == 0:
        raise InvalidInputError("transform needs at least one leaf")
    steps = np.diff(codes)
    if (steps < 0).any():
        raise InvalidInputError("leaves must be sorted by interleaved index")
    if (steps == 0).any():
        raise InvalidInputError("duplicate leaf indices")
    if weights.min() < 1:
        raise InvalidInputError("leaf weights must be >= 1")
    plan = []
    for _ in range(3 * depth):
        shifted = codes >> 1
        pair = np.r_[shifted[:-1] == shifted[1:], False]
        left = np.flatnonzero(pair)
        keep = np.ones(codes.size, dtype=bool)
        keep[left + 1] = False
        w1 = weights[left]
        w2 = weights[left + 1]
        scale = np.sqrt(w1 + w2)
        plan.append(
            _Pass(
                size=codes.size,
                left=left,
                keep=keep,
                sw1=np.sqrt(w1) / scale,
                sw2=np.sqrt(w2) / scale,
            )
        )
        weights[left] = w1 + w2
        codes = shifted[keep]
        weights = weights[keep]
    if codes.size != 1:
        raise InvalidInputError("leaf codes did not reduce to a single root")
    return plan


def raht_forward_arrays(
    codes: np.ndarray, attributes: np.ndarray, weights: np.ndarray, depth: int
) -> CoefficientStream:
    """Forward transform of per-leaf attributes into one DC and n-1 highs."""
    plan = _merge_plan(codes, weights, depth)
    values = np.asarray(attributes, dtype=np.float64).copy()
    highs = []
    for p in plan:
        a1 = values[p.left]
        a2 = values[p.left + 1]
        values[p.left] = p.sw1 * a1 + p.sw2 * a2
        highs.append(-p.sw2 * a1 + p.sw1 * a2)
        values = values[p.keep]
    return CoefficientStream(
        dc=float(values[0]),
        highs=np.concatenate(highs) if highs else np.empty(0),
    )


def raht_inverse_arrays(
    coeffs: CoefficientStream, codes: np.ndarray, weights: np.ndarray, depth: int
) -> np.ndarray:
    """Exact inverse: rebuild leaf attributes from coefficients and geometry."""
    plan = _merge_plan(codes, weights, depth)
    if coeffs.count != np.size(codes):
        raise InvalidInputError(
            f"{coeffs.count} coefficients for {np.size(codes)} leaves"
        )
    bounds = np.cumsum([0] + [p.left.size for p in plan])
    values = np.array([coeffs.dc])
    for d in range(len(plan) - 1, -1, -1):
        p = plan[d]
        old = np.empty(p.size)
        old[p.keep] = values
        low = old[p.left]
        high = coeffs.highs[bounds[d] : bounds[d + 1]]
        old[p.left] = p.sw1 * low - p.sw2 * high
        old[p.left + 1] = p.sw2 * low + p.sw1 * high
        values = old
    return values
