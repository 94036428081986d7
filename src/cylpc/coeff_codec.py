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


class _BitWriter:
    """MSB-first bit packer."""

    def __init__(self):
        self._out = bytearray()
        self._acc = 0
        self._nbits = 0

    def write_bits(self, value: int, nbits: int):
        if nbits == 0:
            return
        self._acc = (self._acc << nbits) | (value & ((1 << nbits) - 1))
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            self._out.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def getvalue(self) -> bytes:
        if self._nbits:
            return bytes(self._out) + bytes([(self._acc << (8 - self._nbits)) & 0xFF])
        return bytes(self._out)


class _BitReader:
    """MSB-first bit unpacker; raises CorruptStreamError past the end."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0
        self._end = 8 * len(data)

    def read_bit(self) -> int:
        if self._pos >= self._end:
            raise CorruptStreamError(
                f"payload exhausted at bit offset {self._pos}", offset=self._pos
            )
        byte = self._data[self._pos >> 3]
        bit = (byte >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit

    def read_bits(self, nbits: int) -> int:
        value = 0
        for _ in range(nbits):
            value = (value << 1) | self.read_bit()
        return value

    @property
    def bits_remaining(self) -> int:
        return self._end - self._pos

    @property
    def position(self) -> int:
        return self._pos


@dataclass(frozen=True)
class QuantizedStream:
    """Quantized coefficients: integer DC plus integer highs, with the step."""

    qstep: float
    dc_q: int
    highs_q: np.ndarray

    def __post_init__(self):
        highs = np.ascontiguousarray(self.highs_q, dtype=np.int64)
        highs.setflags(write=False)
        object.__setattr__(self, "highs_q", highs)


@dataclass(frozen=True)
class RlgrPayload:
    """Entropy-coded bytes plus the number of integers they decode to."""

    data: bytes
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise InvalidInputError(f"negative payload count {self.count}")


def quantize(coeffs: CoefficientStream, qstep: float) -> QuantizedStream:
    """Uniform scalar quantization, rounding half away from zero."""
    if not qstep > 0.0 or not np.isfinite(qstep):
        raise InvalidConfigError(f"qstep must be a positive finite number, got {qstep}")

    def q(x):
        return np.sign(x) * np.floor(np.abs(x) / qstep + 0.5)

    with np.errstate(over="ignore"):  # an infinite quotient fails the check below
        dc, highs = q(coeffs.dc), q(coeffs.highs)
    # a cast of a magnitude >= 2^63 to int64 wraps silently
    if not (abs(dc) < 2.0**63 and (np.abs(highs) < 2.0**63).all()):
        raise InvalidConfigError(
            f"qstep {qstep} is too small: a quantized coefficient does not fit in int64"
        )
    return QuantizedStream(qstep=qstep, dc_q=int(dc), highs_q=highs.astype(np.int64))


def dequantize(qs: QuantizedStream) -> CoefficientStream:
    """Reconstruct coefficients at the quantization lattice points."""
    return CoefficientStream(dc=qs.dc_q * qs.qstep, highs=qs.highs_q * qs.qstep)


def _zigzag(x: int) -> int:
    return 2 * x if x >= 0 else -2 * x - 1


def _unzigzag(u: int) -> int:
    return u // 2 if u % 2 == 0 else -(u + 1) // 2


def _code_gr(w: _BitWriter, val: int, krp: int, limit: int) -> int:
    """Golomb-Rice code ``limit`` >= ``val`` >= 0 with parameter krp >> 3;
    returns new krp."""
    kr = krp >> _LSGR
    vk = val >> kr
    if vk < _ESC:
        w.write_bits((1 << vk) - 1, vk)  # vk ones
        w.write_bits(0, 1)
        if kr:
            w.write_bits(val & ((1 << kr) - 1), kr)
    else:
        w.write_bits((1 << _ESC) - 1, _ESC)  # escape: full prefix, no terminator
        if val > limit:
            raise InvalidInputError("value outside the int64 range")
        m = val.bit_length()
        w.write_bits(m, 8)
        w.write_bits(val, m)
    if vk == 0:
        krp = max(0, krp - _KRP_DOWN)
    elif vk > 1:
        krp = min(_KPMAX, krp + vk)
    return krp


def _decode_gr(r: _BitReader, krp: int, limit: int) -> tuple[int, int]:
    """Inverse of _code_gr; returns (value, new krp)."""
    kr = krp >> _LSGR
    vk = 0
    while vk < _ESC and r.read_bit() == 1:
        vk += 1
    if vk == _ESC:
        m = r.read_bits(8)
        if m == 0:
            raise CorruptStreamError(
                f"escape code with zero bit-length at bit offset {r.position}",
                offset=r.position,
            )
        val = r.read_bits(m)
        if val > limit:
            raise CorruptStreamError(
                f"escaped value beyond the int64 range at bit offset {r.position}",
                offset=r.position,
            )
        vk = val >> kr
    else:
        low = r.read_bits(kr) if kr else 0
        val = (vk << kr) | low
    if vk == 0:
        krp = max(0, krp - _KRP_DOWN)
    elif vk > 1:
        krp = min(_KPMAX, krp + vk)
    return val, krp


def rlgr_encode(values: Iterable[int] | Sequence[int] | np.ndarray) -> RlgrPayload:
    """Losslessly encode a signed integer sequence; total and deterministic."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    else:
        values = [int(v) for v in values]
    w = _BitWriter()
    kp = krp = _K_INIT
    i = 0
    n = len(values)
    while i < n:
        k = kp >> _LSGR
        if k == 0:
            u = _zigzag(values[i])
            krp = _code_gr(w, u, krp, _ZIGZAG_MAX)
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
            w.write_bits(0, 1)
            run -= 1 << k
            kp = min(_KPMAX, kp + _UP_GR)
            k = kp >> _LSGR
        if j == n:
            if run:  # dangling zeros; the decoder stops once count is reached
                w.write_bits(1, 1)
                w.write_bits(run, k)
            i = j
            continue
        w.write_bits(1, 1)
        w.write_bits(run, k)
        val = values[j]
        w.write_bits(1 if val < 0 else 0, 1)
        krp = _code_gr(w, abs(val) - 1, krp, _NEG_MAX if val < 0 else _POS_MAX)
        kp = max(0, kp - _DN_GR)
        i = j + 1
    return RlgrPayload(data=w.getvalue(), count=n)


def rlgr_decode(payload: RlgrPayload) -> list[int]:
    """Exact inverse of rlgr_encode; raises CorruptStreamError on bad payloads."""
    r = _BitReader(payload.data)
    n = payload.count
    out: list[int] = []
    kp = krp = _K_INIT
    while len(out) < n:
        k = kp >> _LSGR
        if k == 0:
            u, krp = _decode_gr(r, krp, _ZIGZAG_MAX)
            out.append(_unzigzag(u))
            if u == 0:
                kp = min(_KPMAX, kp + _UQ_GR)
            else:
                kp = max(0, kp - _DQ_GR)
            continue
        # run mode episode
        saw_marker = False
        while len(out) < n:
            if r.read_bit():
                saw_marker = True
                break
            full = 1 << k
            if full > n - len(out):
                raise CorruptStreamError(
                    f"zero run exceeds remaining count at bit offset {r.position}",
                    offset=r.position,
                )
            out.extend([0] * full)
            kp = min(_KPMAX, kp + _UP_GR)
            k = kp >> _LSGR
        if not saw_marker:
            break
        partial = r.read_bits(k)
        if partial > n - len(out):
            raise CorruptStreamError(
                f"zero run exceeds remaining count at bit offset {r.position}",
                offset=r.position,
            )
        out.extend([0] * partial)
        if len(out) == n:
            break
        sign = r.read_bit()
        mag, krp = _decode_gr(r, krp, _NEG_MAX if sign else _POS_MAX)
        mag += 1
        out.append(-mag if sign else mag)
        kp = max(0, kp - _DN_GR)
    if r.bits_remaining >= 8:
        raise CorruptStreamError(
            f"{r.bits_remaining} unread bits after decoding {n} values "
            f"at bit offset {r.position}",
            offset=r.position,
        )
    while r.bits_remaining:
        if r.read_bit():
            raise CorruptStreamError(
                f"nonzero padding bit at offset {r.position - 1}", offset=r.position - 1
            )
    return out
