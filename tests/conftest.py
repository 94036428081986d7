"""Fixtures shared by several test modules."""

import numpy as np
import pytest

from cylpc.coeff_codec import (
    _DN_GR,
    _DQ_GR,
    _ESC,
    _K_INIT,
    _KPMAX,
    _KRP_DOWN,
    _LSGR,
    _UP_GR,
    _UQ_GR,
    RlgrPayload,
)


def _reference_rlgr_stream(values) -> tuple[RlgrPayload, int]:
    """The one-loop RLGR encoder that the vectorized ``rlgr_encode``
    replaced, behind a pure-Python gate with no int64 bound: it writes the
    same bytes for int64 input, and also the escaped magnitudes beyond
    int64 that only a corrupt or hostile stream holds. Returns the payload
    and the number of bits written ahead of its zero padding."""
    values = list(values)
    n = len(values)
    where = [i for i, v in enumerate(values) if v]
    nonzero = [values[i] for i in where]
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
    data = b"".join(chunks)
    return RlgrPayload(data=data, count=n), 8 * len(data) - pad


@pytest.fixture(scope="session")
def reference_rlgr_encode():
    """The scalar RLGR encoder with no int64 gate (see _reference_rlgr_stream)."""
    return lambda values: _reference_rlgr_stream(values)[0]


@pytest.fixture(scope="session")
def reference_rlgr_stream():
    """The scalar RLGR encoder's payload and its bit count before the padding."""
    return _reference_rlgr_stream


def _ply_with_leading_elements(xyz, intensity, binary: bool) -> bytes:
    """A PLY whose float x, y, z and uchar intensity vertices follow two
    other elements: ``marker``, two rows of no property, and ``note``,
    three rows of a uchar and a short."""
    notes = [(7, -300), (0, 12), (255, 0)]
    header = (
        f"ply\nformat {'binary_little_endian' if binary else 'ascii'} 1.0\n"
        "element marker 2\nelement note 3\nproperty uchar a\nproperty short b\n"
        f"element vertex {len(xyz)}\nproperty float x\nproperty float y\n"
        "property float z\nproperty uchar intensity\nend_header\n"
    )
    vertices = np.empty(len(xyz), [("x", "<f4"), ("y", "<f4"), ("z", "<f4"), ("i", "u1")])
    vertices["x"], vertices["y"], vertices["z"] = np.asarray(xyz, np.float32).T
    vertices["i"] = intensity
    if binary:
        body = np.array(notes, [("a", "u1"), ("b", "<i2")]).tobytes() + vertices.tobytes()
    else:
        body = "\n\n" + "".join(f"{a} {b}\n" for a, b in notes) + "".join(
            f"{float(x)!r} {float(y)!r} {float(z)!r} {i}\n" for x, y, z, i in vertices.tolist())
        body = body.encode()
    return header.encode() + body


@pytest.fixture(scope="session")
def ply_with_leading_elements():
    """Builds a PLY with an element of no property and a scalar element
    ahead of its vertices (see _ply_with_leading_elements)."""
    return _ply_with_leading_elements
