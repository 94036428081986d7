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

The encoder reads only the positions and values of the nonzeros and
splits the stream into episodes: the gap of zeros before a nonzero, then
that nonzero, and a last episode of the zeros after the last nonzero.
kp depends only on the gaps, and a zero literal always codes vk = 0, so
two small scalar passes carry all the state:

  * the kp pass steps once per nonzero through a table of the kp after
    each (kp, gap) episode, built on first use; a gap of 2047 zeros
    drives any kp to the cap, so longer gaps share that column;
  * from kp before each gap, numpy splits every episode into its 0-3
    zero literals, a literal or run-terminating nonzero, and the count,
    k and remainder of its complete runs;
  * the krp pass steps once per nonzero: down by 2 per zero literal,
    then the usual update from vk of the nonzero's code.

Numpy then computes the width and value of every code word, takes the
bit offsets from one cumulative sum and ORs the fields into big-endian
uint64 words. The decoder is one inlined event loop over the bit string,
an event being one k = 0 literal or one whole k > 0 episode: one ``find``
locates the next "1" marker, zeros are counted, not stored, and only the
(position, value) pairs of the nonzeros are kept. Once the bits account
for every value, it writes the nonzeros into an int64 array of zeros
and returns that array, or its list; no bit stands for more than 2^10
values, so memory stays bounded by the payload size.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CorruptStreamError, InvalidConfigError, InvalidInputError
from .raht import CoefficientStream, _bit_length

_LSGR = 3  # kp -> k shift; adaptation works in 1/8 steps
_KPMAX = 80  # caps k and kr at 10
_UP_GR = 4  # kp increment per complete zero run
_DN_GR = 6  # kp decrement after a run-terminating literal
_UQ_GR = 3  # kp increment for a zero in Golomb-Rice mode
_DQ_GR = 3  # kp decrement for a nonzero in Golomb-Rice mode
_KRP_DOWN = 2  # krp decrement when the unary prefix is empty
_ESC = 32  # unary prefix cap; longer prefixes use the escape form
_K_INIT = 1 << _LSGR  # k = kr = 1 at stream start
_KMAX = _KPMAX >> _LSGR
# from any kp, a gap of _GAP_CLIP zeros drives kp to _KPMAX, so every
# longer gap leaves the state its terminator leaves after _GAP_CLIP
_GAP_CLIP = 2047
_GAPS = _GAP_CLIP + 1
# a Golomb-Rice argument from here on has vk > _KPMAX for every kr
_KRP_CAP = (_KPMAX + 1) << _KMAX
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


def _nonzeros(values: Iterable[int] | np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """The encoder's one gate: the count, and the positions and values of the
    nonzeros of one int64 array, both int64. Every value past it fits the
    escape form."""
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
    where = np.flatnonzero(values).astype(np.int64, copy=False)
    return values.size, where, values[where]


@functools.cache
def _kp_table() -> tuple[bytes, ...]:
    """kp after a gap of zeros and the nonzero that ends it: row kp, the
    kp before the gap, holds it at min(gap, _GAP_CLIP)."""
    # a gap in run mode from kp = start: the kp after m complete runs, and
    # the zeros they take; 2 * _KMAX runs from k = 1 take more than _GAPS
    start = np.arange(_K_INIT, _KPMAX + 1)[:, None]
    kps = np.minimum(start + _UP_GR * np.arange(2 * _KMAX), _KPMAX)
    taken = np.minimum(np.cumsum(1 << (kps >> _LSGR), axis=1), _GAPS)
    # m complete runs leave a remainder below the m + 1st run's length
    lengths = np.diff(taken, axis=1, prepend=0)
    after = np.maximum(kps - _DN_GR, 0).astype(np.uint8)
    runs = np.repeat(after.ravel(), lengths.ravel()).tobytes()
    rows = []
    for kp in range(_KPMAX + 1):
        # below _K_INIT the first zeros are literals, and so is a nonzero
        # that comes before kp reaches _K_INIT
        z = max(-((kp - _K_INIT) // _UQ_GR), 0)
        literal = bytes(max(kp + _UQ_GR * gap - _DQ_GR, 0) for gap in range(z))
        row = (kp + _UQ_GR * z - _K_INIT) * _GAPS
        rows.append(literal + runs[row : row + _GAPS - z])
    return tuple(rows)


def _or_fields(words: np.ndarray, ends: np.ndarray, values: np.ndarray) -> None:
    """OR uint64 bit fields, each ending (exclusive) at bit offset ``ends``
    (sorted), into big-endian uint64 ``words[1:]``; words[0] is spare."""
    at = (ends + 63) >> 6  # 1 + the word that holds each field's last bit
    shift = (-ends & 63).astype(np.uint64)
    low = values << shift
    high = (values >> np.uint64(1)) >> (np.uint64(63) - shift)  # spill into at - 1
    first = np.flatnonzero(np.diff(at, prepend=-1))
    at = at[first]
    words[at] |= np.bitwise_or.reduceat(low, first)
    words[at - 1] |= np.bitwise_or.reduceat(high, first)


def rlgr_encode(values: Iterable[int] | np.ndarray) -> RlgrPayload:
    """Losslessly encode a signed integer sequence; total and deterministic.

    Raises InvalidInputError on a value that is not an integer or lies
    outside the int64 range.
    """
    # the per-episode arrays are narrow where their values allow and are
    # dropped once used, which keeps the transient to a few int64 arrays
    n, where, nonzero = _nonzeros(values)
    # one episode per nonzero, the zeros before it and then it, and a last
    # one of the zeros after the last nonzero
    gaps = np.diff(where, prepend=-1, append=n)
    gaps -= 1
    del where
    table = _kp_table()
    kp = _K_INIT
    kp_before = bytearray()
    record = kp_before.append
    for gap in np.minimum(gaps[:-1], _GAP_CLIP).tolist():
        record(kp)
        kp = table[kp][gap]
    record(kp)
    kp = np.frombuffer(kp_before, np.uint8)
    # k = 0 codes zeros as literals until kp reaches _K_INIT, 3 up per zero;
    # a nonzero that comes first is a literal too, any other ends a zero run
    literals = (_K_INIT + _UQ_GR - 1 - np.minimum(kp, _K_INIT)) // _UQ_GR
    short = gaps < literals
    literals[short] = gaps[short]
    kp += _UQ_GR * literals
    literal = kp < _K_INIT
    terminator = ~literal[:-1]
    # the Golomb-Rice argument: the zigzag code of a literal, and of a
    # terminator (zigzag - 1) >> 1 = |value| - 1
    mapped = nonzero << 1
    mapped ^= nonzero >> 63
    mapped = mapped.view(np.uint64)
    mapped -= terminator
    mapped >>= terminator
    negative = nonzero < 0
    del nonzero
    # krp: a zero literal codes vk = 0; from _KRP_CAP on any value sets krp
    # to _KPMAX, so small ints stand in for the larger ones
    drops = _KRP_DOWN * literals[:-1]
    krp = _K_INIT
    krp_before = bytearray()
    record = krp_before.append
    for drop, val in zip(
        drops.tolist(), np.minimum(mapped, np.uint64(_KRP_CAP)).astype(np.uint32).tolist()
    ):
        record(krp)
        if drop:
            krp = krp - drop if krp > drop else 0
        vk = val >> (krp >> _LSGR)
        if vk == 0:
            krp = krp - _KRP_DOWN if krp > _KRP_DOWN else 0
        elif vk > 1:
            krp += vk
            if krp > _KPMAX:
                krp = _KPMAX
    record(krp)
    krp = np.frombuffer(krp_before, np.uint8)
    # the all-zero bits ahead of each nonzero: kr + 1 per zero literal, then
    # one per complete run
    zero_bits = literals.astype(np.int64)
    for j in range(int(literals.max())):
        drop = _KRP_DOWN * j
        zero_bits += (literals > j) * ((np.maximum(krp, drop) - drop) >> _LSGR)
    kr = ((np.maximum(krp[:-1], drops) - drops) >> _LSGR).astype(np.uint64)
    # complete runs of 2^k zeros: one masked step each while k grows, then
    # all that are left at once when k reaches its cap
    runs = np.flatnonzero(~literal)
    kp = kp[runs].astype(np.int64)  # in uint8, 1 << k would wrap at k = 8
    rest = gaps[runs]
    rest -= literals[runs]
    del gaps, literals
    full = np.zeros(runs.size, np.int64)
    todo = np.flatnonzero(rest >> (kp >> _LSGR))
    while todo.size:
        step = kp[todo]
        top = step == _KPMAX
        if top.any():
            done, todo, step = todo[top], todo[~top], step[~top]
            full[done] += rest[done] >> _KMAX
            rest[done] &= (1 << _KMAX) - 1
        rest[todo] -= 1 << (step >> _LSGR)
        full[todo] += 1
        kp[todo] = step = np.minimum(step + _UP_GR, _KPMAX)
        todo = todo[(rest[todo] >> (step >> _LSGR)) > 0]
    zero_bits[runs] += full
    # after them a "1" marker and the k-bit remainder; the dangling run
    # writes them only if the remainder is not 0
    k = kp >> _LSGR
    head_bits = np.zeros(zero_bits.size, np.int64)
    head_bits[runs] = k + 1
    head = np.zeros(zero_bits.size, np.uint64)
    head[runs] = (1 << k) | rest
    if not literal[-1] and not rest[-1]:
        head_bits[-1] = head[-1] = 0
    del k, rest, runs, literal
    # Golomb-Rice code of each mapped value: unary prefix vk, a "0", kr low
    # bits; or the escape (full prefix, 8-bit length m), then m raw bits
    vk = mapped >> kr
    escape = np.flatnonzero(vk >= _ESC)
    vk[escape] = 0
    one = np.uint64(1)
    code = one << vk
    code -= one
    code <<= kr + one
    low = one << kr
    low -= one
    low &= mapped
    code |= low
    del low
    code_bits = vk
    code_bits += one
    code_bits += kr
    del vk, kr
    raw = mapped[escape]
    del mapped
    raw_bits = _bit_length(raw).astype(np.uint64)
    code[escape] = np.uint64(((1 << _ESC) - 1) << 8) | raw_bits
    code_bits[escape] = _ESC + 8
    # a terminator's code starts with its sign bit
    negative &= terminator
    code |= negative.astype(np.uint64) << code_bits
    code_bits += terminator
    # pack: each episode is its zero bits, one field of at most 54 bits
    # (head and code), then its escape's raw bits
    head[:-1] <<= code_bits
    head[:-1] |= code
    del code
    ends = zero_bits
    ends += head_bits
    del head_bits
    ends[:-1] += code_bits.view(np.int64)  # below 64
    del code_bits
    raw_bits = raw_bits.astype(np.int64)
    ends[escape] += raw_bits
    np.cumsum(ends, out=ends)
    nbits = int(ends[-1])
    words = np.zeros((nbits + 63 >> 6) + 1, np.uint64)
    if escape.size:
        _or_fields(words, ends[escape], raw)
        ends[escape] -= raw_bits
    _or_fields(words, ends, head)
    data = words[1:].astype(">u8").tobytes()[: nbits + 7 >> 3]
    return RlgrPayload(data=data, count=n)


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
