"""Uniform quantization and lossless RLGR coding of transform coefficients.

The entropy coder is a backward-adaptive run-length / Golomb-Rice coder.
Both sides track two scaled parameters, kp (run-length) and krp
(Golomb-Rice), in 1/8 steps (k = kp >> 3), updated only from already
coded symbols so no side information is needed:

  * k = 0: each value is zigzag-mapped (0, -1, 1, -2, ... -> 0, 1, 2, 3,
    ...) and Golomb-Rice coded with parameter kr. krp drops by 2 when
    the unary prefix is empty and grows by the prefix length when it
    exceeds 1; kp grows by 3 on a zero and drops by 3 otherwise.
  * k > 0: a zero run is split into complete runs of 2^k zeros (one "0"
    bit each, kp += 4 per run, k re-derived) followed by a "1" marker,
    the k-bit remainder of the run, and the terminating nonzero value as
    a sign bit plus the Golomb-Rice code of magnitude - 1 (kp -= 6). A
    run reaching the end of the input stops after the remainder bits;
    the decoder knows the total count and stops with it.

Golomb-Rice codes cap the unary prefix at 32 ones; longer prefixes
switch to an escape form (32 ones, 8-bit bit-length m, m raw bits).
Values are int64: the encoder rejects, and the decoder reports as
corrupt, any escaped magnitude that leaves that range. Bits are packed
MSB-first and the final byte is zero-padded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CorruptStreamError, InvalidConfigError, InvalidInputError
from .raht import CoefficientStream

_LSGR = 3  # kp -> k shift; adaptation works in 1/8 steps
_KPMAX = 80  # caps k and kr at 10
_UP_GR = 4  # kp increment per complete zero run
_DN_GR = 6  # kp decrement after a run-terminating literal
_UQ_GR = 3  # kp increment for a zero in Golomb-Rice mode
_DQ_GR = 3  # kp decrement for a nonzero in Golomb-Rice mode
_KRP_DOWN = 2  # krp decrement when the unary prefix is empty
_ESC = 32  # unary prefix cap; longer prefixes use the escape form
_K_INIT = 1 << _LSGR  # k = kr = 1 at stream start
# largest Golomb-Rice argument of an int64 value: a zigzag code in
# Golomb-Rice mode, |value| - 1 of a positive or negative run terminator
_ZIGZAG_MAX = (1 << 64) - 1
_POS_MAX = (1 << 63) - 2
_NEG_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class RlgrPayload:
    """Entropy-coded bytes plus the number of integers they decode to."""

    data: bytes
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise InvalidInputError(f"negative payload count {self.count}")


def quantize(coeffs: CoefficientStream, qstep: float) -> np.ndarray:
    """Uniform scalar quantization, rounding half away from zero.

    Returns the int64 coefficients in coding order: DC first, then the
    highs in emission order.
    """
    if not qstep > 0.0 or not np.isfinite(qstep):
        raise InvalidConfigError(f"qstep must be a positive finite number, got {qstep}")
    x = np.r_[coeffs.dc, coeffs.highs]
    with np.errstate(over="ignore"):  # an infinite quotient fails the check below
        q = np.sign(x) * np.floor(np.abs(x) / qstep + 0.5)
    # a cast of a magnitude >= 2^63 to int64 wraps silently
    if not (np.abs(q) < 2.0**63).all():
        raise InvalidConfigError(
            f"qstep {qstep} is too small: a quantized coefficient does not fit in int64"
        )
    return q.astype(np.int64)


def dequantize(ints: Sequence[int] | np.ndarray, qstep: float) -> CoefficientStream:
    """Reconstruct coefficients in coding order at the quantization lattice points."""
    values = np.asarray(ints, dtype=np.int64) * qstep
    return CoefficientStream(dc=values[0], highs=values[1:])


def _zigzag(x: int) -> int:
    return 2 * x if x >= 0 else -2 * x - 1


def _unzigzag(u: int) -> int:
    return u // 2 if u % 2 == 0 else -(u + 1) // 2


def _adapt(krp: int, vk: int) -> int:
    """Golomb-Rice parameter update from a unary prefix of length vk."""
    if vk == 0:
        return max(0, krp - _KRP_DOWN)
    if vk > 1:
        return min(_KPMAX, krp + vk)
    return krp


def _code_gr(out: list[str], val: int, krp: int, limit: int) -> int:
    """Append the Golomb-Rice code of ``limit`` >= ``val`` >= 0 with
    parameter krp >> 3 to ``out``; returns new krp."""
    kr = krp >> _LSGR
    vk = val >> kr
    if vk < _ESC:
        out.append("1" * vk + "0")
        if kr:
            out.append(format(val & ((1 << kr) - 1), f"0{kr}b"))
    else:
        if val > limit:
            raise InvalidInputError("value outside the int64 range")
        # escape: full prefix, no terminator, 8-bit length, raw bits
        out.append("1" * _ESC + format(val.bit_length(), "08b") + format(val, "b"))
    return _adapt(krp, vk)


def _exhausted(pos: int) -> CorruptStreamError:
    return CorruptStreamError(f"payload exhausted at bit offset {pos}", offset=pos)


def _decode_gr(bits: str, pos: int, krp: int, limit: int) -> tuple[int, int, int]:
    """Inverse of _code_gr at bit ``pos``; returns (value, new krp, new pos)."""
    end = len(bits)
    kr = krp >> _LSGR
    zero = bits.find("0", pos, pos + _ESC)
    if zero >= 0:
        vk = zero - pos
        pos = zero + 1 + kr
        if pos > end:
            raise _exhausted(end)
        val = ((vk << kr) | int(bits[zero + 1 : pos], 2)) if kr else vk
    else:
        pos += _ESC + 8
        if pos > end:  # the prefix or the length runs off the end
            raise _exhausted(end)
        m = int(bits[pos - 8 : pos], 2)
        if m == 0:
            raise CorruptStreamError(
                f"escape code with zero bit-length at bit offset {pos}", offset=pos
            )
        pos += m
        if pos > end:
            raise _exhausted(end)
        val = int(bits[pos - m : pos], 2)
        if val > limit:
            raise CorruptStreamError(
                f"escaped value beyond the int64 range at bit offset {pos}", offset=pos
            )
        vk = val >> kr
    return val, _adapt(krp, vk), pos


def rlgr_encode(values: Iterable[int] | Sequence[int] | np.ndarray) -> RlgrPayload:
    """Losslessly encode a signed integer sequence; total and deterministic."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    else:
        values = [int(v) for v in values]
    out: list[str] = []  # '0'/'1' pieces, packed once at the end
    kp = krp = _K_INIT
    i = 0
    n = len(values)
    while i < n:
        k = kp >> _LSGR
        if k == 0:
            u = _zigzag(values[i])
            krp = _code_gr(out, u, krp, _ZIGZAG_MAX)
            if u == 0:
                kp = min(_KPMAX, kp + _UQ_GR)
            else:
                kp = max(0, kp - _DQ_GR)
            i += 1
            continue
        # run mode: count zeros from here
        j = i
        while j < n and values[j] == 0:
            j += 1
        run = j - i
        while run >= (1 << k):
            out.append("0")
            run -= 1 << k
            kp = min(_KPMAX, kp + _UP_GR)
            k = kp >> _LSGR
        if j == n:
            if run:  # dangling zeros; the decoder stops once count is reached
                out.append("1" + format(run, f"0{k}b"))
            i = j
            continue
        val = values[j]
        out.append("1" + format(run, f"0{k}b") + ("1" if val < 0 else "0"))
        krp = _code_gr(out, abs(val) - 1, krp, _NEG_MAX if val < 0 else _POS_MAX)
        kp = max(0, kp - _DN_GR)
        i = j + 1
    bits = "".join(out)
    pad = -len(bits) % 8
    data = (int(bits or "0", 2) << pad).to_bytes((len(bits) + pad) // 8, "big")
    return RlgrPayload(data=data, count=n)


def rlgr_decode(payload: RlgrPayload) -> list[int]:
    """Exact inverse of rlgr_encode; raises CorruptStreamError on bad payloads."""
    end = 8 * len(payload.data)
    bits = format(int.from_bytes(payload.data, "big"), f"0{end}b") if end else ""
    pos = 0
    n = payload.count
    out: list[int] = []
    kp = krp = _K_INIT
    while len(out) < n:
        k = kp >> _LSGR
        if k == 0:
            u, krp, pos = _decode_gr(bits, pos, krp, _ZIGZAG_MAX)
            out.append(_unzigzag(u))
            if u == 0:
                kp = min(_KPMAX, kp + _UQ_GR)
            else:
                kp = max(0, kp - _DQ_GR)
            continue
        # run mode episode
        saw_marker = False
        while len(out) < n:
            if pos == end:
                raise _exhausted(pos)
            pos += 1
            if bits[pos - 1] == "1":
                saw_marker = True
                break
            full = 1 << k
            if full > n - len(out):
                raise CorruptStreamError(
                    f"zero run exceeds remaining count at bit offset {pos}", offset=pos
                )
            out.extend([0] * full)
            kp = min(_KPMAX, kp + _UP_GR)
            k = kp >> _LSGR
        if not saw_marker:
            break
        pos += k
        if pos > end:
            raise _exhausted(end)
        partial = int(bits[pos - k : pos], 2)
        if partial > n - len(out):
            raise CorruptStreamError(
                f"zero run exceeds remaining count at bit offset {pos}", offset=pos
            )
        out.extend([0] * partial)
        if len(out) == n:
            break
        if pos == end:
            raise _exhausted(pos)
        sign = bits[pos] == "1"
        mag, krp, pos = _decode_gr(bits, pos + 1, krp, _NEG_MAX if sign else _POS_MAX)
        mag += 1
        out.append(-mag if sign else mag)
        kp = max(0, kp - _DN_GR)
    if end - pos >= 8:
        raise CorruptStreamError(
            f"{end - pos} unread bits after decoding {n} values at bit offset {pos}",
            offset=pos,
        )
    one = bits.find("1", pos)
    if one >= 0:
        raise CorruptStreamError(f"nonzero padding bit at offset {one}", offset=one)
    return out
