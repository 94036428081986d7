"""Interleaved index codes."""

import numpy as np
import pytest

from cylpc.morton import MAX_DEPTH, morton_decode, morton_encode


def bit_loop_encode(ijk, depth):
    """Reference interleave, one bit of each axis per step."""
    codes = np.zeros(ijk.shape[0], dtype=np.int64)
    for b in range(depth):
        codes |= ((ijk[:, 0] >> b) & 1) << (3 * b)
        codes |= ((ijk[:, 1] >> b) & 1) << (3 * b + 1)
        codes |= ((ijk[:, 2] >> b) & 1) << (3 * b + 2)
    return codes


def bit_loop_decode(codes, depth):
    """Reference de-interleave, one bit of each axis per step."""
    ijk = np.zeros((codes.shape[0], 3), dtype=np.int64)
    for b in range(depth):
        ijk[:, 0] |= ((codes >> (3 * b)) & 1) << b
        ijk[:, 1] |= ((codes >> (3 * b + 1)) & 1) << b
        ijk[:, 2] |= ((codes >> (3 * b + 2)) & 1) << b
    return ijk


@pytest.mark.parametrize("depth", range(1, MAX_DEPTH + 1))
def test_matches_bit_loop_at_every_depth(depth):
    rng = np.random.default_rng(depth)
    top = (1 << depth) - 1
    ijk = rng.integers(0, top + 1, (1000, 3))
    ijk[:4] = [[top, top, top], [top, 0, 0], [0, top, 0], [0, 0, top]]
    codes = morton_encode(ijk)
    assert codes.dtype == np.int64
    np.testing.assert_array_equal(codes, bit_loop_encode(ijk, depth))
    back = morton_decode(codes, depth)
    assert back.dtype == np.int64 and back.shape == (1000, 3)
    np.testing.assert_array_equal(back, bit_loop_decode(codes, depth))
    # bits above 3 * depth, and the sign bit, are ignored as before
    wild = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 1000)
    np.testing.assert_array_equal(
        morton_decode(wild, depth), bit_loop_decode(wild, depth)
    )


def test_empty_input():
    assert morton_encode(np.empty((0, 3), dtype=np.int64)).shape == (0,)
    assert morton_decode(np.empty(0, dtype=np.int64), 5).shape == (0, 3)


def test_axis0_occupies_lsb():
    assert morton_encode(np.array([[1, 0, 0]]))[0] == 1
    assert morton_encode(np.array([[0, 1, 0]]))[0] == 2
    assert morton_encode(np.array([[0, 0, 1]]))[0] == 4
    assert morton_encode(np.array([[1, 1, 1]]))[0] == 7


def test_known_interleave():
    # i=0b10, j=0b01, k=0b11 -> bits (k1 j1 i1 k0 j0 i0) = 1 0 1 1 1 0
    assert morton_encode(np.array([[0b10, 0b01, 0b11]]))[0] == 0b101110


def test_round_trip_random():
    rng = np.random.default_rng(0)
    for depth in (1, 4, 9, MAX_DEPTH):
        ijk = rng.integers(0, 1 << depth, (500, 3))
        codes = morton_encode(ijk)
        np.testing.assert_array_equal(morton_decode(codes, depth), ijk)


def test_max_depth_uses_full_63_bits():
    top = (1 << MAX_DEPTH) - 1
    code = morton_encode(np.array([[top, top, top]]))[0]
    assert code == (1 << 63) - 1


def test_lexicographic_order_of_axis2_dominates():
    # increasing the highest axis bit always increases the code
    a = morton_encode(np.array([[3, 3, 0]]))[0]
    b = morton_encode(np.array([[0, 0, 2]]))[0]
    assert b > a

