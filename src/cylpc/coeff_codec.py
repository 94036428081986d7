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
Values are int64. The encoder takes any integer sequence or 1-D integer
array through one gate that rejects a value outside int64 before anything
is coded; the decoder reports as corrupt any escaped magnitude that
leaves that range. Bits are packed MSB-first and the final byte is
zero-padded.

Both directions run one inlined event loop; an event is either one k = 0
literal or one whole k > 0 episode (its complete runs, the marker and
remainder, and the terminating value). The encoder reads only the
positions and values of the nonzeros, so an episode jumps straight to
the next nonzero and no zero becomes a Python int. It writes each code
word with integer shifts into a small Python int and flushes whole bytes
about every 1 kbit. The decoder reads the bit string: one ``find``
locates the next "1" marker, zeros are counted, not stored, and only the
(position, value) pairs of the nonzeros are kept. Once the bits account
for every value, it writes the nonzeros into an int64 array of zeros
and returns that array, or its list; no bit stands for more than 2^10
values, so memory stays bounded by the payload size.
"""

from __future__ import annotations

import operator
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
# largest Golomb-Rice argument of an int64 value, which bounds a decoded
# escape: a zigzag code in Golomb-Rice mode, |value| - 1 of a positive or
# negative run terminator
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
    if values.size == 0:
        raise InvalidInputError("no coefficients to dequantize: the DC is missing")
    return CoefficientStream(dc=values[0], highs=values[1:])


def _exhausted(pos: int) -> CorruptStreamError:
    return CorruptStreamError(f"payload exhausted at bit offset {pos}", offset=pos)


def _run_overflow(pos: int) -> CorruptStreamError:
    return CorruptStreamError(
        f"zero run exceeds remaining count at bit offset {pos}", offset=pos
    )


def _nonzeros(values: Iterable[int] | np.ndarray) -> tuple[int, list[int], list[int]]:
    """The encoder's one gate: the count, and the positions and values of the
    nonzeros of one int64 array. Every value past it fits the escape form."""
    if not isinstance(values, np.ndarray):
        try:
            values = np.array([operator.index(v) for v in values], dtype=np.int64)
        except TypeError as exc:
            raise InvalidInputError(f"values must be integers: {exc}") from exc
        except OverflowError as exc:
            raise InvalidInputError("value outside the int64 range") from exc
    elif values.ndim != 1 or values.dtype.kind not in "biu":
        raise InvalidInputError(
            f"values must be a 1-D integer array, got {values.dtype} of shape {values.shape}"
        )
    elif values.dtype == np.uint64 and values.max(initial=0) >= 1 << 63:
        raise InvalidInputError("value outside the int64 range")
    values = values.astype(np.int64, copy=False)
    where = np.flatnonzero(values)
    return values.size, where.tolist(), values[where].tolist()


def rlgr_encode(values: Iterable[int] | np.ndarray) -> RlgrPayload:
    """Losslessly encode a signed integer sequence; total and deterministic.

    Raises InvalidInputError on a value that is not an integer or lies
    outside the int64 range.
    """
    n, where, nonzero = _nonzeros(values)
    where.append(n)  # a run that reaches the end stops here
    chunks: list[bytes] = []
    acc = nbits = 0  # pending bits, MSB-first, and how many
    kp = krp = _K_INIT
    i = t = 0  # next value to code; where[t] is the first nonzero from i on
    while i < n:
        if kp < _K_INIT:  # k = 0: a zigzag-mapped Golomb-Rice literal
            val = nonzero[t] if i == where[t] else 0
            i += 1
            if val:
                t += 1
                kp = kp - _DQ_GR if kp > _DQ_GR else 0
                val = 2 * val if val > 0 else -2 * val - 1
            else:
                kp += _UQ_GR  # below _KPMAX: k = 0 means kp < 8
        else:  # k > 0: the zero run up to the next nonzero, then that value
            j = where[t]
            run = j - i
            k = kp >> _LSGR
            full = 0
            while run >> k:  # each complete run of 2^k zeros is one "0" bit
                run -= 1 << k
                full += 1
                kp += _UP_GR
                if kp > _KPMAX:
                    kp = _KPMAX
                k = kp >> _LSGR
            if j == n:  # dangling zeros: no terminator, the decoder stops at n
                acc <<= full
                nbits += full
                if run:
                    acc = (acc << k + 1) | (1 << k) | run
                    nbits += k + 1
                break
            val = nonzero[t]
            i = j + 1
            t += 1
            kp = kp - _DN_GR if kp > _DN_GR else 0
            # the "0" bits, a "1" marker, the k-bit remainder and a sign bit
            acc = (acc << full + k + 2) | (1 << k + 1) | (run << 1)
            nbits += full + k + 2
            if val < 0:
                acc |= 1
                val = -val - 1
            else:
                val -= 1
        # Golomb-Rice code of val >= 0: unary prefix vk, a "0", kr low bits
        kr = krp >> _LSGR
        vk = val >> kr
        if vk < _ESC:
            nb = vk + 1 + kr
            acc = (acc << nb) | (((1 << vk) - 1) << kr + 1) | (val & ((1 << kr) - 1))
            nbits += nb
        else:  # escape: full prefix, no terminator, 8-bit length m, m raw bits
            m = val.bit_length()
            acc = (acc << _ESC + 8 + m) | (((1 << _ESC) - 1) << 8 + m) | (m << m) | val
            nbits += _ESC + 8 + m
        if vk == 0:
            krp = krp - _KRP_DOWN if krp > _KRP_DOWN else 0
        elif vk > 1:
            krp += vk
            if krp > _KPMAX:
                krp = _KPMAX
        if nbits > 1024:  # flush whole bytes; keeps acc a small int
            rest = nbits & 7
            chunks.append((acc >> rest).to_bytes(nbits >> 3, "big"))
            acc &= (1 << rest) - 1
            nbits = rest
    pad = -nbits % 8
    chunks.append((acc << pad).to_bytes((nbits + pad) // 8, "big"))
    return RlgrPayload(data=b"".join(chunks), count=n)


def rlgr_decode(payload: RlgrPayload, *, as_array: bool = False) -> list[int] | np.ndarray:
    """Exact inverse of rlgr_encode; raises CorruptStreamError on bad payloads.

    Returns the values as a list, or as an int64 array with ``as_array``.
    """
    end = 8 * len(payload.data)
    bits = format(int.from_bytes(payload.data, "big"), f"0{end}b") if end else ""
    n = payload.count
    where: list[int] = []  # positions and values of the nonzeros
    nonzero: list[int] = []
    pos = filled = 0  # next bit; values decoded so far
    kp = krp = _K_INIT
    while filled < n:
        literal = kp < _K_INIT  # k = 0: a zigzag-mapped Golomb-Rice literal
        if not literal:  # k > 0: complete runs, then a marker or the end of the count
            k = kp >> _LSGR
            one = bits.find("1", pos)
            stop = end if one < 0 else one
            while pos < stop and filled < n:  # "0": a complete run of 2^k zeros
                pos += 1
                if 1 << k > n - filled:
                    raise _run_overflow(pos)
                filled += 1 << k
                kp += _UP_GR
                if kp > _KPMAX:
                    kp = _KPMAX
                k = kp >> _LSGR
            if filled == n:
                break
            if one < 0:
                raise _exhausted(end)
            pos = one + 1 + k
            if pos > end:
                raise _exhausted(end)
            run = int(bits[one + 1 : pos], 2)
            if run > n - filled:
                raise _run_overflow(pos)
            filled += run
            if filled == n:
                break
            if pos == end:
                raise _exhausted(pos)
            negative = bits[pos] == "1"
            pos += 1
        # Golomb-Rice code: unary prefix vk < 32, a "0", kr low bits; or escape
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
            if val > (_ZIGZAG_MAX if literal else _NEG_MAX if negative else _POS_MAX):
                raise CorruptStreamError(
                    f"escaped value beyond the int64 range at bit offset {pos}", offset=pos
                )
            vk = val >> kr
        if vk == 0:
            krp = krp - _KRP_DOWN if krp > _KRP_DOWN else 0
        elif vk > 1:
            krp += vk
            if krp > _KPMAX:
                krp = _KPMAX
        if not literal:
            where.append(filled)
            nonzero.append(-val - 1 if negative else val + 1)
            kp = kp - _DN_GR if kp > _DN_GR else 0
        elif val:
            where.append(filled)
            nonzero.append((val >> 1) ^ -(val & 1))  # unzigzag
            kp = kp - _DQ_GR if kp > _DQ_GR else 0
        else:
            kp += _UQ_GR  # below _KPMAX: k = 0 means kp < 8
        filled += 1
    if end - pos >= 8:
        raise CorruptStreamError(
            f"{end - pos} unread bits after decoding {n} values at bit offset {pos}",
            offset=pos,
        )
    one = bits.find("1", pos)
    if one >= 0:
        raise CorruptStreamError(f"nonzero padding bit at offset {one}", offset=one)
    out = np.zeros(n, dtype=np.int64)  # the bits have accounted for all n values
    count = len(where)  # fromiter with a count converts the pairs fastest
    out[np.fromiter(where, np.intp, count)] = np.fromiter(nonzero, np.int64, count)
    return out if as_array else out.tolist()
