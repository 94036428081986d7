"""Weight-adaptive hierarchical transform over octree leaf attributes.

Leaves are given as aligned arrays: strictly increasing interleaved
codes, one attribute and one positive weight per leaf. The transform walks
the tree from the leaves to the root. Each octree level is processed as
three pairing passes, one per axis in the fixed order axis0, axis1, axis2
(x, y, z for Cartesian grids; r, theta, h for cylindrical ones). Because
interleaved codes place axis0 in the least significant bit, pass k
(counted from 1) merges the pairs of nodes whose leaf codes agree once
their k lowest bits are dropped:

    low  = ( sqrt(w1) * a1 + sqrt(w2) * a2) / sqrt(w1 + w2)
    high = (-sqrt(w2) * a1 + sqrt(w1) * a2) / sqrt(w1 + w2)

The 2x2 butterfly is orthonormal for any positive weights, so the
transform preserves energy exactly and the inverse is its transpose.
Unpaired nodes pass through unchanged.

A node is a run [l, r] of consecutive leaves. The boundary between leaves
i and i + 1 closes in exactly one pass, k = bit_length(c[i] ^ c[i + 1]),
where it joins the run ending at i with the run starting at i + 1; the
boundaries that close in one pass are disjoint. The schedule is the
boundaries stably sorted by pass. Both transforms keep a run's value
and weight at its left end only: a pass reads the two runs at their
left ends l and j = i + 1, writes only left ends, and never compacts an
array.
High-pass coefficients are emitted in schedule order: deepest pass
first, ascending code within a pass. The low-pass value of the root run
is the DC coefficient. The decoder replays the schedule backwards from
the leaf codes and weights alone, so only the coefficients need to be
transmitted. ``raht_schedule`` validates a leaf set and builds its
schedule once; the forward transform and every inverse over that leaf
set take the schedule.

Everything here consumes only the interleaved codes: identical leaf
codes produce identical coefficients in either coordinate system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .morton import MAX_DEPTH


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
class RahtSchedule:
    """The pass schedule of one leaf set: per pass, the right run's left
    end j, the left run's left end l and the gains sw1 and sw2, in pass order.

    It depends only on the leaf codes, weights and depth, so one schedule
    serves the forward transform and any number of inverses.
    """

    leaves: int
    passes: list[tuple[np.ndarray, ...]]


def _bit_length(v: np.ndarray) -> np.ndarray:
    """Exact bit length of each positive int64 or uint64, as int8."""
    # frexp of the nearest float64, less one where the float rounded up to
    # the next power of two (only from 2^53 on); the shift takes v's dtype,
    # so numpy 1.24's value-based casting and NEP 50 agree on uint64
    e = np.frexp(v.astype(np.float64))[1]
    return (e - (v >> (e - 1).astype(v.dtype) == 0)).astype(np.int8)


def raht_schedule(codes: np.ndarray, weights: np.ndarray, depth: int) -> RahtSchedule:
    """Validate a leaf set and build its schedule."""
    codes = np.asarray(codes, dtype=np.int64)
    weights = np.array(weights, dtype=np.float64)  # run weights at left ends
    if not 1 <= depth <= MAX_DEPTH:
        raise InvalidInputError(f"depth {depth} outside [1, {MAX_DEPTH}]")
    if codes.size == 0:
        raise InvalidInputError("transform needs at least one leaf")
    if weights.shape != (codes.size,):
        raise InvalidInputError(f"weights of shape {weights.shape} for {codes.size} leaves")
    if (codes[1:] < codes[:-1]).any():
        raise InvalidInputError("leaves must be sorted by interleaved index")
    if (codes[1:] == codes[:-1]).any():
        raise InvalidInputError("duplicate leaf indices")
    if not np.isfinite(weights).all():
        raise InvalidInputError("leaf weights must be finite")
    if weights.min() < 1:
        raise InvalidInputError("leaf weights must be >= 1")
    diff = codes[:-1] ^ codes[1:]
    if (diff >> 3 * depth).any():  # >> keeps the sign, so a sign change shows too
        raise InvalidInputError("leaf codes did not reduce to a single root")
    passes = _bit_length(diff)
    order = np.argsort(passes, kind="stable")
    ends = np.cumsum(np.bincount(passes)).tolist()  # where each pass's group ends in order
    head = np.arange(codes.size)  # at a run's right end: its left end
    tail = head.copy()  # at a run's left end: its right end
    plan = []
    for i in (order[a:b] for a, b in zip([0] + ends, ends) if a < b):  # nonempty passes
        j = i + 1
        l, r = head[i], tail[j]
        w1, w2 = weights[l], weights[j]
        weights[l] = w = w1 + w2
        scale = np.sqrt(w)
        plan.append((j, l, np.sqrt(w1) / scale, np.sqrt(w2) / scale))
        tail[l] = r
        head[r] = l
    return RahtSchedule(leaves=codes.size, passes=plan)


def raht_forward_arrays(
    schedule: RahtSchedule, attributes: np.ndarray
) -> CoefficientStream:
    """Forward transform of per-leaf attributes into one DC and n-1 highs."""
    values = np.array(attributes, dtype=np.float64)  # low-pass values at left ends
    if values.shape != (schedule.leaves,):
        raise InvalidInputError(
            f"attributes of shape {values.shape} for {schedule.leaves} leaves"
        )
    highs = [np.empty(0)]  # a single leaf has no pass
    for j, l, sw1, sw2 in schedule.passes:
        a1 = values.take(l)
        a2 = values[j]
        values[l] = sw1 * a1 + sw2 * a2
        highs.append(sw1 * a2 - sw2 * a1)
    return CoefficientStream(dc=float(values[0]), highs=np.concatenate(highs))


def raht_inverse_arrays(coeffs: CoefficientStream, schedule: RahtSchedule) -> np.ndarray:
    """Exact inverse: rebuild leaf attributes from coefficients and geometry."""
    if coeffs.count != schedule.leaves:
        raise InvalidInputError(
            f"{coeffs.count} coefficients for {schedule.leaves} leaves"
        )
    values = np.full(schedule.leaves, coeffs.dc, dtype=np.float64)
    end = coeffs.highs.size
    for j, l, sw1, sw2 in reversed(schedule.passes):
        low = values.take(l)
        high = coeffs.highs[end - j.size : end]
        end -= j.size
        values[l] = sw1 * low - sw2 * high
        values[j] = sw2 * low + sw1 * high
    return values
