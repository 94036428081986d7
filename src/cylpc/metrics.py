"""Rate and distortion measurement: PSNR, bits per point, Bjontegaard deltas.

Attribute PSNR uses the 8-bit peak: -10 log10(||I - I_hat||^2 / (255^2 N)).
A lossless comparison returns math.inf as a distinguished marker; such
points are excluded from curve fitting.

The Bjontegaard deltas follow the classic construction: cubic fit of
PSNR against log10(rate) (and of log10(rate) against PSNR for the rate
delta), integrated in closed form over the overlapping interval of the
two curves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

LOSSLESS = math.inf


@dataclass(frozen=True)
class RatePoint:
    """One operating point: bits per point and attribute PSNR in dB."""

    bpp: float
    psnr_db: float

    def __post_init__(self):
        if not 0.0 < self.bpp < math.inf:
            raise InvalidInputError(f"bpp must be positive and finite, got {self.bpp}")
        if not (math.isfinite(self.psnr_db) or self.psnr_db == LOSSLESS):
            raise InvalidInputError(
                f"psnr_db must be finite or the lossless marker, got {self.psnr_db}")


@dataclass(frozen=True)
class RdCurve:
    """At least four rate points, strictly increasing in bpp."""

    points: tuple[RatePoint, ...]

    def __post_init__(self):
        pts = tuple(sorted(self.points, key=lambda p: p.bpp))
        if len(pts) < 4:
            raise InvalidInputError(f"an RD curve needs >= 4 points, got {len(pts)}")
        bpp = [p.bpp for p in pts]
        if any(b2 <= b1 for b1, b2 in zip(bpp, bpp[1:])):
            raise InvalidInputError("rate points must be strictly increasing in bpp")
        psnr = [p.psnr_db for p in pts if math.isfinite(p.psnr_db)]
        if any(q2 < q1 for q1, q2 in zip(psnr, psnr[1:])):
            warnings.warn("RD curve PSNR decreases with rate", stacklevel=3)
        object.__setattr__(self, "points", pts)

    @property
    def bpp(self) -> np.ndarray:
        return np.array([p.bpp for p in self.points])

    @property
    def psnr_db(self) -> np.ndarray:
        return np.array([p.psnr_db for p in self.points])


def psnr_attribute(original, decoded) -> float:
    """Attribute PSNR in dB on the 0-255 scale; LOSSLESS for identical input."""
    orig = np.asarray(original, dtype=np.float64)
    dec = np.asarray(decoded, dtype=np.float64)
    if orig.shape != dec.shape or orig.ndim != 1 or orig.size == 0:
        raise InvalidInputError(
            f"attribute vectors must be equal-length and non-empty, "
            f"got {orig.shape} and {dec.shape}"
        )
    err = orig - dec
    # numpy's pairwise sum, not BLAS, whose threads split the sum by core count
    sse = float(np.square(err).sum())
    if sse == 0.0:
        return LOSSLESS
    return -10.0 * math.log10(sse / (255.0**2 * orig.size))


@dataclass(frozen=True)
class BdMetrics:
    """Average PSNR gap (dB) and average rate change (%) of curve B vs A."""

    delta_psnr_db: float
    delta_rate_percent: float


def _lossy_points(curve: RdCurve) -> tuple[np.ndarray, np.ndarray]:
    """log10(bpp) and PSNR of the curve's finite (lossy) points."""
    lossy = np.isfinite(curve.psnr_db)
    if lossy.sum() < 4:
        raise InvalidInputError("need >= 4 finite (lossy) points per curve")
    return np.log10(curve.bpp[lossy]), curve.psnr_db[lossy]


def _poly_average_gap(x_a, y_a, x_b, y_b) -> float:
    """Average (fit_b - fit_a) over the overlap of the two x ranges."""
    lo = max(x_a.min(), x_b.min())
    hi = min(x_a.max(), x_b.max())
    if not lo < hi:
        raise InvalidInputError("RD curves do not overlap")
    poly_a = np.polyint(np.polyfit(x_a, y_a, 3))
    poly_b = np.polyint(np.polyfit(x_b, y_b, 3))
    int_a = np.polyval(poly_a, hi) - np.polyval(poly_a, lo)
    int_b = np.polyval(poly_b, hi) - np.polyval(poly_b, lo)
    return (int_b - int_a) / (hi - lo)


def bd_metrics(curve_a: RdCurve, curve_b: RdCurve) -> BdMetrics:
    """Bjontegaard deltas of curve B relative to curve A.

    Positive delta_psnr_db means B is better at equal rate; negative
    delta_rate_percent means B spends less rate at equal quality. A delta
    that is not finite raises InvalidInputError.
    """
    log_a, psnr_a = _lossy_points(curve_a)
    log_b, psnr_b = _lossy_points(curve_b)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        delta_psnr = _poly_average_gap(log_a, psnr_a, log_b, psnr_b)
        avg_log_gap = _poly_average_gap(psnr_a, log_a, psnr_b, log_b)
        delta_rate = (10.0**avg_log_gap - 1.0) * 100.0
    for name, delta in (("delta_psnr_db", delta_psnr), ("delta_rate_percent", delta_rate)):
        if not np.isfinite(delta):
            raise InvalidInputError(f"Bjontegaard {name} is {delta}: the cubic fits diverge")
    return BdMetrics(delta_psnr_db=float(delta_psnr), delta_rate_percent=float(delta_rate))

