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

  * one table, built on first use, holds what an episode writes for each
    kp before its gap and each gap: its 0-3 zero literals, complete runs,
    k of the marker, k-bit remainder and the kp after its nonzero; 2047
    zeros drive any kp to the cap, so a longer gap reads that column and
    carries its extra zeros into the remainder and the runs;
  * the kp pass steps once per nonzero through the kp-after column, and
    one gather per other column splits every episode;
  * the krp pass steps once per nonzero: one lookup for its zero
    literals, then one in the krp table for its code.

Numpy then computes the width and value of every code word, takes the
bit offsets from one cumulative sum and ORs the fields into big-endian
uint64 words.

The decoder is one inlined event loop, an event being one k = 0 literal,
one complete run, or the marker, remainder and value that end a k > 0
run. It reads the payload only through a uint16 array of the _W = 12
bits that start at every payload bit, with _ESC + _W windows of zeros
past its end. A complete run or a marker is a window's top bit and the
k-bit remainder its top k bits. One table per kr serves every code word:
at each window, the length and Golomb-Rice argument of the word that
starts it, or 0 when that word is longer than _W bits. k = 0 literals
that fit run in a loop of their own, which unzigzags a nonzero's
argument. A run terminator reads its sign as its window's top bit and
looks up |value| - 1 at the next window. It and a longer literal then
take one code-word step: the lookup, or a longer unary prefix, an
escape's length and its raw bits joined from consecutive windows; then
one krp step in the encoder's krp table and one mapping from argument to
value. A field that runs past the payload reads zeros and leaves the bit
offset past its end, which the next turn of the loop, or the check after
it, reports as exhausted. Zeros are counted, not stored, and only the
(position, value) pairs of the nonzeros are kept. Once the bits account
for every value, it writes the nonzeros into an int64 array of zeros and
returns that array, or its list. No bit stands for more than 2^10
values, so memory stays bounded by the payload: the windows take 16
bytes per payload byte, and 8 more while they are built, and the peak
stays under 32 bytes per payload byte plus 112 per value.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CorruptStreamError, InvalidConfigError, InvalidInputError
from .raht import _bit_length

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
# from this Golomb-Rice argument on, vk = arg >> kr reaches both 2 and
# _KPMAX - krp at every krp (tightest at kr = 8 and 9), so every larger
# argument moves krp as this one does
_ARG_CLIP = 1 << 12
_W = 12  # payload bits one decoder table lookup reads
# largest Golomb-Rice argument of an int64 value, which bounds a decoded
# escape: a zigzag code in Golomb-Rice mode, |value| - 1 of a positive or
# negative run terminator
_ZIGZAG_MAX = (1 << 64) - 1
_POS_MAX = (1 << 63) - 2
_NEG_MAX = (1 << 63) - 1

# Finest qstep quantize accepts. float64 holds an attribute below
# 256 = 2^8 with a rounding error of up to 2^8 * 2^-53 = 2^-45, and the
# transform round trip adds about one such error per step: 3 butterfly
# passes per level each way plus quantize and dequantize, at most
# 6 * MAX_DEPTH + 2 = 128 = 2^7 steps, or 2^-38 in all. From 2^-35 on that
# is at most qstep/8; added to the qstep/sqrt(12) RMS of uniform
# quantization it keeps the RMS error under qstep/2, so MSE <= qstep^2/4.
# Measured: rounding alone leaves an RMS error near 1e-13, and at qstep
# 1e-13 the MSE reaches 5x the bound.
QSTEP_MIN = 2.0**-35


@dataclass(frozen=True)
class RlgrPayload:
    """Entropy-coded bytes plus the number of integers they decode to."""

    data: bytes
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise InvalidInputError(f"negative payload count {self.count}")


def quantize(x: np.ndarray, qstep: float) -> np.ndarray:
    """Uniform scalar quantization to int64, rounding half away from zero; the
    codec's one qstep gate (positive, finite, >= QSTEP_MIN, fits int64)."""
    if not qstep > 0.0 or not np.isfinite(qstep):
        raise InvalidConfigError(f"qstep must be a positive finite number, got {qstep}")
    if qstep < QSTEP_MIN:
        raise InvalidConfigError(f"qstep {qstep} is too small: below {QSTEP_MIN:g},"
                                 " float64 rounding breaks MSE <= qstep^2/4")
    with np.errstate(over="ignore"):  # an infinite quotient fails the check below
        q = np.sign(x) * np.floor(np.abs(x) / qstep + 0.5)
    # a cast of a magnitude >= 2^63 to int64 wraps silently
    if not (np.abs(q) < 2.0**63).all():
        raise InvalidConfigError(
            f"qstep {qstep} is too small: a quantized coefficient does not fit in int64"
        )
    return q.astype(np.int64)


def dequantize(ints: Sequence[int] | np.ndarray, qstep: float) -> np.ndarray:
    """The float64 lattice points of quantized values."""
    return np.asarray(ints, dtype=np.int64) * qstep


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
def _episode_table() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[bytes, ...]]:
    """What a gap of zeros and the nonzero that ends it write, at
    kp * _GAPS + min(gap, _GAP_CLIP) for kp before the gap: the zero
    literals, the complete runs, k of the marker (0 when the nonzero is a
    literal), the k-bit remainder, and the kp after the nonzero, which the
    scalar kp pass reads fastest as one bytes row per kp."""
    # from each kp, step j takes one zero literal while kp < _K_INIT and a
    # complete run of 2^k zeros after that; from kp = 0, 3 literals and
    # 2 * _KMAX - 1 runs take more than _GAPS zeros
    kp = np.arange(_KPMAX + 1, dtype=np.int64)[:, None]
    j = np.arange(2 * _KMAX + 2, dtype=np.int64)
    literals = np.minimum(j, (np.maximum(_K_INIT - kp, 0) + _UQ_GR - 1) // _UQ_GR)
    kps = np.minimum(kp + _UQ_GR * literals + _UP_GR * (j - literals), _KPMAX)
    literal = kps < _K_INIT
    taken = np.minimum(np.cumsum(np.where(literal, 1, 1 << (kps >> _LSGR)), axis=1), _GAPS)
    # a nonzero in step j is a literal, or it ends that step's run with the
    # zeros past the earlier steps as its remainder
    lengths = np.diff(taken, axis=1, prepend=0)
    after = np.maximum(kps - np.where(literal, _DQ_GR, _DN_GR), 0)
    literals, runs, k, after, before = (
        np.repeat(column.astype(dtype).ravel(), lengths.ravel())
        for column, dtype in ((literals, np.uint8), (j - literals, np.uint8),
                              (kps >> _LSGR, np.uint8), (after, np.uint8),
                              (taken - lengths, np.uint16))
    )
    rest = np.tile(np.arange(_GAPS, dtype=np.uint16), kp.size) - before
    return literals, runs, k, rest, tuple(row.tobytes() for row in after.reshape(-1, _GAPS))


@functools.cache
def _krp_next() -> tuple[bytes, ...]:
    """The krp adaptation rule: krp after a Golomb-Rice code of argument a
    at krp is ``_krp_next()[krp][min(a, _ARG_CLIP)]``. With vk = a >> kr,
    krp drops by 2 when vk = 0, holds at vk = 1 and grows by vk, up to
    _KPMAX, above that."""
    krp = np.arange(_KPMAX + 1, dtype=np.int16)[:, None]
    vk = np.arange(_ARG_CLIP + 1, dtype=np.int16) >> (krp >> _LSGR)
    after = np.where(vk > 1, np.minimum(krp + vk, _KPMAX),
                     np.where(vk == 1, krp, np.maximum(krp - _KRP_DOWN, 0)))
    return tuple(row.tobytes() for row in after.astype(np.uint8))


@functools.cache
def _code_tables() -> tuple[memoryview, ...]:
    """For each krp, the table of its kr: at each _W-bit window,
    ``length | arg << 4`` of the Golomb-Rice code word that starts it, or 0
    where that word is longer than _W bits. A word that fits has
    arg < 2^11, so uint16 holds the entry. krp of one kr share one table."""
    window = np.arange(1 << _W)
    bits = window[:, None] >> np.arange(_W - 1, -1, -1) & 1  # MSB first
    vk = np.cumprod(bits, axis=1).sum(axis=1)  # unary prefix
    tables = []
    for kr in range(_KMAX + 1):
        length = vk + 1 + kr
        arg = vk << kr | window >> np.maximum(_W - length, 0) & (1 << kr) - 1
        tables.append(memoryview(np.where(length <= _W, length | arg << 4, 0).astype(np.uint16)))
    return tuple(tables[krp >> _LSGR] for krp in range(_KPMAX + 1))


def _windows(data: bytes) -> memoryview:
    """The _W bits from every payload bit offset on, as uint16, then
    _ESC + _W windows past the payload, which read zeros past its end."""
    pairs = np.frombuffer(data + bytes(2), np.uint8).astype(np.uint16)
    pairs = pairs[:-1] << 8 | pairs[1:]  # the 16 bits from every byte on
    windows = np.zeros(8 * len(data) + _ESC + _W, np.uint16)
    for at in range(8):  # the _W bits from bit ``at`` of every byte
        windows[at : 8 * len(data) : 8] = (pairs[:-1] << at | pairs[1:] >> 8 - at) >> 16 - _W
    return memoryview(windows)


def _field(windows: memoryview, pos: int, width: int) -> int:
    """The ``width`` payload bits from bit ``pos`` on, read _W at a time."""
    value = 0
    for at in range(pos, pos + width, _W):
        value = value << _W | windows[at]
    return value >> -width % _W


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
    n, where, nonzero = _nonzeros(values)
    # one episode per nonzero, the zeros before it and then it, and a last
    # one of the zeros after the last nonzero
    gaps = np.diff(where, prepend=-1, append=n) - 1
    *columns, after = _episode_table()
    clipped = np.minimum(gaps, _GAP_CLIP)
    kp = _K_INIT
    kp_before = bytearray()
    record = kp_before.append
    for gap in clipped[:-1].tolist():
        record(kp)
        kp = after[kp][gap]
    record(kp)
    at = np.frombuffer(kp_before, np.uint8).astype(np.intp) * _GAPS + clipped
    literals, runs, k, rest = (column[at] for column in columns)
    # the all-zero bits ahead of each nonzero: one per complete run, then
    # kr + 1 per zero literal; a gap past the clip reaches its marker at
    # k = _KMAX, so its extra zeros lengthen the remainder and carry its
    # whole runs of 2^_KMAX
    zero_bits = literals + runs.astype(np.int64)
    long = np.flatnonzero(gaps > _GAP_CLIP)
    extra = gaps[long] - _GAP_CLIP + rest[long]
    zero_bits[long] += extra >> _KMAX
    rest[long] = extra & ((1 << _KMAX) - 1)
    terminator = k[:-1] > 0
    # the Golomb-Rice argument: the zigzag code of a literal, and of a
    # terminator (zigzag - 1) >> 1 = |value| - 1
    mapped = (((nonzero << 1) ^ (nonzero >> 63)).view(np.uint64) - terminator) >> terminator
    # krp: a zero literal codes argument 0, so zeros[j] is krp after j of
    # them; _krp_next then steps over the nonzero's code
    after = _krp_next()
    zeros = [bytes(range(_KPMAX + 1))]
    while len(zeros) <= int(literals.max()):
        zeros.append(bytes(after[krp][0] for krp in zeros[-1]))
    krp = _K_INIT
    krp_before = bytearray()
    record = krp_before.append
    for j, arg in zip(literals[:-1].tolist(),
                      np.minimum(mapped, np.uint64(_ARG_CLIP)).astype(np.uint16).tolist()):
        record(krp)
        krp = after[zeros[j][krp]][arg]
    record(krp)
    krp = np.frombuffer(krp_before, np.uint8)
    # zero literal j and the code after j zero literals take the kr of
    # zeros[j]; the zero literals ahead of each code write kr bits each
    kr = np.frombuffer(b"".join(zeros), np.uint8).reshape(-1, _KPMAX + 1) >> _LSGR
    at = literals * np.intp(_KPMAX + 1) + krp  # zeros[literals][krp], flat
    zero_bits += (np.cumsum(kr, axis=0, dtype=np.int64) - kr).take(at)
    kr = kr.take(at[:-1]).astype(np.uint64)
    # after them a "1" marker and the k-bit remainder; the dangling run
    # writes them only if the remainder is not 0
    marker = k > 0
    head_bits = k + marker
    head = marker.astype(np.uint64) << k | rest
    if not rest[-1]:
        head_bits[-1] = head[-1] = 0
    # Golomb-Rice code of each mapped value: unary prefix vk, a "0", kr low
    # bits; or the escape (full prefix, 8-bit length m), then m raw bits
    vk = mapped >> kr
    escape = np.flatnonzero(vk >= _ESC)
    vk[escape] = 0
    one = np.uint64(1)
    code = ((one << vk) - one) << (kr + one) | mapped & ((one << kr) - one)
    code_bits = vk + one + kr
    raw = mapped[escape]
    raw_bits = _bit_length(raw)
    code[escape] = np.uint64(((1 << _ESC) - 1) << 8) | raw_bits.astype(np.uint64)
    code_bits[escape] = _ESC + 8
    # a terminator's code starts with its sign bit
    code |= ((nonzero < 0) & terminator).astype(np.uint64) << code_bits
    code_bits += terminator
    # pack: each episode is its zero bits, one field of at most 54 bits
    # (head and code), then its escape's raw bits
    head[:-1] = head[:-1] << code_bits | code
    ends = zero_bits + head_bits
    ends[:-1] += code_bits.view(np.int64)  # below 64
    ends[escape] += raw_bits
    ends = np.cumsum(ends)
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
    windows = _windows(payload.data)
    codes = _code_tables()
    krp_next = _krp_next()
    n = payload.count
    where: list[int] = []  # positions and values of the nonzeros
    nonzero: list[int] = []
    pos = filled = 0  # next bit; values decoded so far
    kp = krp = _K_INIT
    # a field that runs past the payload reads zeros and leaves pos > end,
    # which the next turn or the end of the loop reports
    while filled < n:
        if pos >= end:
            raise _exhausted(end)
        literal = kp < _K_INIT  # k = 0: a zigzag-mapped Golomb-Rice literal
        if literal:
            # literals whose code word fits in one window
            while code := codes[krp][windows[pos]]:
                pos += code & 15
                krp = krp_next[krp][arg := code >> 4]
                if arg:
                    where.append(filled)
                    nonzero.append(arg >> 1 ^ -(arg & 1))  # unzigzag
                    kp = kp - _DQ_GR if kp > _DQ_GR else 0
                else:
                    kp += _UQ_GR
                filled += 1
                if kp >= _K_INIT or filled == n:
                    break
            if code:
                continue
        else:  # k > 0: a complete run, or a marker and the end of the run
            k = kp >> _LSGR
            if not windows[pos] >> _W - 1:  # "0": a complete run of 2^k zeros
                pos += 1
                if 1 << k > n - filled:
                    raise _run_overflow(pos)
                filled += 1 << k
                kp = kp + _UP_GR if kp < _KPMAX - _UP_GR else _KPMAX
                continue
            run = windows[pos + 1] >> _W - k  # the k-bit remainder
            pos += 1 + k
            if run > n - filled:
                raise _exhausted(end) if pos > end else _run_overflow(pos)
            filled += run
            if filled == n:
                break
            kp = kp - _DN_GR if kp > _DN_GR else 0
            negative = windows[pos] >> _W - 1  # the sign, then |value| - 1
            pos += 1
            code = codes[krp][windows[pos]]
        # Golomb-Rice code: unary prefix vk < 32, a "0", kr low bits; or escape
        if code:  # a word of at most _W bits
            pos += code & 15
            arg = code >> 4
        elif (vk := _ESC - (_field(windows, pos, _ESC) ^ (1 << _ESC) - 1).bit_length()) < _ESC:
            kr = krp >> _LSGR  # vk is the count of leading 1s
            pos += vk + 1 + kr
            arg = vk << kr | windows[pos - kr] >> _W - kr
        else:
            m = windows[pos + _ESC] >> _W - 8
            pos += _ESC + 8 + m
            if pos > end:  # the escape runs off the end
                raise _exhausted(end)
            if m == 0:
                raise CorruptStreamError(
                    f"escape code with zero bit-length at bit offset {pos}", offset=pos
                )
            arg = _field(windows, pos - m, m)
            if arg > (_ZIGZAG_MAX if literal else _NEG_MAX if negative else _POS_MAX):
                raise CorruptStreamError(
                    f"escaped value beyond the int64 range at bit offset {pos}", offset=pos
                )
        krp = krp_next[krp][arg if arg < _ARG_CLIP else _ARG_CLIP]
        if not literal:
            where.append(filled)
            nonzero.append(-arg - 1 if negative else arg + 1)
        elif arg:
            where.append(filled)
            nonzero.append(arg >> 1 ^ -(arg & 1))  # unzigzag
            kp = kp - _DQ_GR if kp > _DQ_GR else 0
        else:
            kp += _UQ_GR  # below _KPMAX: k = 0 means kp < 8
        filled += 1
    if pos > end:
        raise _exhausted(end)
    if end - pos >= 8:
        raise CorruptStreamError(
            f"{end - pos} unread bits after decoding {n} values at bit offset {pos}",
            offset=pos,
        )
    if padding := windows[pos] >> _W - (end - pos):
        one = end - padding.bit_length()
        raise CorruptStreamError(f"nonzero padding bit at offset {one}", offset=one)
    out = np.zeros(n, dtype=np.int64)  # the bits have accounted for all n values
    count = len(where)  # fromiter with a count converts the pairs fastest
    out[np.fromiter(where, np.intp, count)] = np.fromiter(nonzero, np.int64, count)
    return out if as_array else out.tolist()
