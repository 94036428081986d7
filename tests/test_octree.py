"""Occupancy octree construction and byte-stream serialization."""

import tracemalloc
import zlib

import numpy as np
import pytest

from cylpc import (
    CoordinateSystem,
    CorruptStreamError,
    InvalidInputError,
    PointCloud,
    decode_cloud,
    deserialize,
    encode_cloud,
    make_config,
    octree_from_leaf_codes,
    serialize,
    voxelize,
)
from cylpc.bitstream import HEADER_BYTES
from cylpc.octree import Octree


def random_leaf_codes(rng, depth, max_n):
    return np.unique(rng.integers(0, 8**depth, rng.integers(1, max_n + 1)))


def test_single_voxel_one_node_per_level():
    ot = octree_from_leaf_codes(np.array([0b101011]), 2)
    assert [occ.size for occ in ot.occupancy] == [1, 1]
    np.testing.assert_array_equal(ot.leaves, [0b101011])
    # the one level-1 node is 0b101: the root byte has that bit set
    assert ot.occupancy[0][0] == 1 << 0b101
    assert len(serialize(ot).data) == 2


def test_full_depth_one_root_byte():
    ot = octree_from_leaf_codes(np.arange(8), 1)
    stream = serialize(ot)
    assert stream.data == b"\xff"


def test_single_voxel_depth2_two_one_bit_bytes():
    ot = octree_from_leaf_codes(np.array([0b010001]), 2)
    stream = serialize(ot)
    assert len(stream.data) == 2
    assert bin(stream.data[0]).count("1") == 1
    assert bin(stream.data[1]).count("1") == 1
    # root byte has bit 0b010 set, leaf byte bit 0b001
    assert stream.data[0] == 1 << 0b010
    assert stream.data[1] == 1 << 0b001


def test_leaves_equal_voxel_set():
    rng = np.random.default_rng(0)
    for _ in range(50):
        depth = int(rng.integers(1, 11))
        codes = random_leaf_codes(rng, depth, 300)
        ot = octree_from_leaf_codes(codes, depth)
        np.testing.assert_array_equal(ot.leaves, codes)
        # one byte per node of a level, one set bit per node of the next
        for lvl in range(depth):
            assert ot.occupancy[lvl].size == np.unique(codes >> 3 * (depth - lvl)).size
            children = np.unique(codes >> 3 * (depth - lvl - 1)).size
            assert np.unpackbits(ot.occupancy[lvl]).sum() == children


def test_octree_leaves_are_the_voxel_codes():
    rng = np.random.default_rng(1)
    pc = PointCloud(rng.normal(0, 5, (100, 3)), rng.uniform(0, 255, 100))
    vc = voxelize(pc, make_config(pc, CoordinateSystem.CARTESIAN, 4))
    ot = octree_from_leaf_codes(vc.codes, vc.config.depth)
    np.testing.assert_array_equal(ot.leaves, vc.codes)


def _assert_same_tree(decoded, built):
    assert decoded.depth == built.depth
    assert decoded.leaves.dtype == np.int64
    np.testing.assert_array_equal(decoded.leaves, built.leaves)
    assert len(decoded.occupancy) == len(built.occupancy) == built.depth
    for got, want in zip(decoded.occupancy, built.occupancy):
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, want)


def test_round_trip_500_random_sets():
    rng = np.random.default_rng(2)
    for _ in range(500):
        depth = int(rng.integers(1, 8))
        codes = random_leaf_codes(rng, depth, 120)
        ot = octree_from_leaf_codes(codes, depth)
        back = deserialize(serialize(ot), depth)
        np.testing.assert_array_equal(back.leaves, codes)
        _assert_same_tree(back, ot)


def test_round_trip_restores_every_level():
    rng = np.random.default_rng(5)
    for _ in range(300):
        depth = int(rng.integers(1, 12))
        codes = random_leaf_codes(rng, depth, 400)
        ot = octree_from_leaf_codes(codes, depth)
        _assert_same_tree(deserialize(serialize(ot), depth), ot)


def test_stream_length_equals_internal_node_count_and_is_monotone():
    rng = np.random.default_rng(3)
    depth = 6
    codes = random_leaf_codes(rng, depth, 200)
    ot = octree_from_leaf_codes(codes, depth)
    stream = serialize(ot)
    assert len(stream.data) == sum(np.unique(codes >> 3 * (depth - lvl)).size
                                   for lvl in range(depth))
    extra = rng.integers(0, 8**depth)
    grown = np.unique(np.append(codes, extra))
    grown_stream = serialize(octree_from_leaf_codes(grown, depth))
    assert len(grown_stream.data) >= len(stream.data)


def test_empty_stream_is_corrupt():
    with pytest.raises(CorruptStreamError):
        deserialize(b"", 1)


def test_deserialize_rejects_depth_outside_range():
    with pytest.raises(InvalidInputError, match=r"depth 0 outside \[1, 21\]"):
        deserialize(b"", 0)


def test_zero_byte_is_corrupt_with_offset():
    with pytest.raises(CorruptStreamError) as exc:
        deserialize(b"\x01\x00", 2)
    assert exc.value.offset == 1


def test_truncated_and_trailing_streams_are_corrupt():
    codes = np.array([0, 9, 63])
    stream = serialize(octree_from_leaf_codes(codes, 2))
    with pytest.raises(CorruptStreamError):
        deserialize(stream.data[:-1], 2)
    with pytest.raises(CorruptStreamError):
        deserialize(stream.data + b"\x01", 2)


def test_bit_flip_fuzz_never_crashes():
    rng = np.random.default_rng(4)
    hits = {"ok": 0, "corrupt": 0}
    for _ in range(300):
        depth = int(rng.integers(1, 22))
        codes = random_leaf_codes(rng, depth, 60)
        data = bytearray(serialize(octree_from_leaf_codes(codes, depth)).data)
        pos = rng.integers(0, len(data))
        data[pos] ^= 1 << rng.integers(0, 8)
        try:
            back = deserialize(bytes(data), depth)
        except CorruptStreamError:
            hits["corrupt"] += 1
        else:
            # an accepted stream is the one canonical stream of the leaves it decodes to
            assert serialize(octree_from_leaf_codes(back.leaves, depth)).data == bytes(data)
            hits["ok"] += 1
    assert hits["ok"] > 0 and hits["corrupt"] > 0


# ------------------------------------------------ single-child levels


def reference_bytes(leaves, depth):
    """Occupancy bytes built parent by parent, without any level shortcut."""
    out = bytearray()
    for level in range(depth):
        children = np.unique(leaves >> 3 * (depth - level - 1))
        nodes, parent = np.unique(children >> 3, return_inverse=True)
        occupancy = np.zeros(nodes.size, dtype=np.uint8)
        np.bitwise_or.at(occupancy, parent, np.uint8(1) << (children & 7).astype(np.uint8))
        out += occupancy.tobytes()
    return bytes(out)


def single_child_levels(ot):
    """The levels whose nodes all have one child: no byte has two bits set."""
    return [lvl for lvl, occ in enumerate(ot.occupancy) if not (occ & (occ - 1)).any()]


def test_depth_21_sparse_sets_round_trip_every_level():
    rng = np.random.default_rng(21)
    for _ in range(40):
        codes = random_leaf_codes(rng, 21, 300)
        ot = octree_from_leaf_codes(codes, 21)
        # a few hundred leaves split by level 10 at the latest: the rest is single-child
        assert set(range(10, 21)) <= set(single_child_levels(ot))
        for level in (9, 10, 20):
            assert ot.occupancy[level].size == np.unique(codes >> 3 * (21 - level)).size
        stream = serialize(ot)
        assert stream.data == reference_bytes(codes, 21)
        _assert_same_tree(deserialize(stream, 21), ot)


def test_tree_memory_is_the_leaves_and_the_bytes():
    # 2,000 leaves at depth 21 are split by level 7, and every level below is
    # single-child: the codes of all 22 levels would take 18 times the leaves
    codes = np.unique(np.random.default_rng(21).integers(0, 8**21, 2000))
    data = serialize(octree_from_leaf_codes(codes, 21)).data
    deserialize(data, 21)  # untraced first call
    calls = {"octree_from_leaf_codes": lambda: octree_from_leaf_codes(codes, 21),
             "deserialize": lambda: deserialize(data, 21)}
    for name, call in calls.items():
        tracemalloc.start()
        try:
            ot = call()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ot.leaves.size == codes.size
        assert held < 64 * 1024, f"the tree from {name} holds {held} bytes"
        assert peak < 160 * 1024, f"{name} peaks at {peak} bytes"


@pytest.mark.parametrize("twin", [0, 37, 99])
def test_level_single_child_but_for_one_byte_round_trips(twin):
    # 100 parents at level 4 with one child each, except parent ``twin`` with two
    rng = np.random.default_rng(twin)
    parents = np.sort(rng.choice(8**4, 100, replace=False))
    offsets = rng.integers(0, 7, 100)
    leaves = np.sort(np.r_[(parents << 3) | offsets, (parents[twin] << 3) | 7])
    ot = octree_from_leaf_codes(leaves, 5)
    # the leaves' parents dedupe one pair of neighbours, the first or the
    # last one at twin 0 or 99
    np.testing.assert_array_equal(ot.leaves, leaves)
    for level, occupancy in enumerate(ot.occupancy):
        assert occupancy.size == np.unique(leaves >> 3 * (5 - level)).size
    stream = serialize(ot)
    assert stream.data == reference_bytes(leaves, 5)
    last = np.frombuffer(stream.data[-100:], dtype=np.uint8)
    assert np.flatnonzero(last & (last - 1)).tolist() == [twin]
    _assert_same_tree(deserialize(stream, 5), ot)


def test_zero_byte_in_single_child_level_names_its_offset():
    rng = np.random.default_rng(8)
    codes = random_leaf_codes(rng, 12, 200)
    ot = octree_from_leaf_codes(codes, 12)
    assert 11 in single_child_levels(ot)
    data = bytearray(serialize(ot).data)
    at = len(data) - ot.occupancy[11].size // 2  # inside the last, single-child level
    data[at] = 0
    with pytest.raises(CorruptStreamError, match=f"zero occupancy byte at offset {at}") as exc:
        deserialize(bytes(data), 12)
    assert exc.value.offset == at


def test_zero_byte_in_single_child_level_of_a_stream_names_its_offset():
    rng = np.random.default_rng(9)
    pc = PointCloud(rng.normal(0, 5, (300, 3)), rng.uniform(0, 255, 300))
    data, summary = encode_cloud(pc, CoordinateSystem.CARTESIAN, 14, qstep=8.0)
    vc = voxelize(pc, make_config(pc, CoordinateSystem.CARTESIAN, 14))
    ot = octree_from_leaf_codes(vc.codes, 14)
    assert 13 in single_child_levels(ot)
    raw = bytearray(serialize(ot).data)
    at = len(raw) - 5  # 5th-last occupancy byte
    raw[at] = 0
    # any raw deflate of the patched bytes: the decoder only inflates
    section = zlib.compress(bytes(raw), wbits=-15)
    end = HEADER_BYTES + summary.geometry_bytes
    patched = data[:HEADER_BYTES] + section + data[end:]
    with pytest.raises(
        CorruptStreamError, match=f"^geometry section: inflated byte {at}: zero occupancy"
    ) as exc:
        decode_cloud(patched)
    # zlib gives no bit offset: the error points at the first deflate byte
    assert exc.value.offset == HEADER_BYTES


def test_geometry_bpp():
    # the raw geometry rate is the occupancy bits per source point before deflate
    rng = np.random.default_rng(6)
    pc = PointCloud(rng.normal(0, 5, (100, 3)), rng.uniform(0, 255, 100))
    vc = voxelize(pc, make_config(pc, CoordinateSystem.CARTESIAN, 5))
    occupancy = serialize(octree_from_leaf_codes(vc.codes, 5)).data
    _, summary = encode_cloud(pc, CoordinateSystem.CARTESIAN, 5, qstep=8.0)
    assert summary.geometry_raw_bytes == len(occupancy)
    assert summary.geometry_raw_bpp == 8.0 * len(occupancy) / 100


def test_invalid_leaf_codes_rejected():
    with pytest.raises(InvalidInputError):
        octree_from_leaf_codes(np.array([8]), 1)
    with pytest.raises(InvalidInputError):
        octree_from_leaf_codes(np.array([3, 3]), 1)
    with pytest.raises(InvalidInputError):
        octree_from_leaf_codes(np.array([], dtype=np.int64), 1)


def test_octree_accepts_a_closed_tree():
    # root: children 1 and 2; node 1: children 8 and 15; node 2: child 17
    occupancy = (np.array([0b110], np.uint8), np.array([0b10000001, 0b10], np.uint8))
    ot = Octree(depth=2, leaves=np.array([8, 15, 17], np.int64), occupancy=occupancy)
    assert ot.leaves.size == 3
    assert serialize(ot).data == bytes([0b110, 0b10000001, 0b10])


@pytest.mark.parametrize("level", [[2, 1], [1, 1]])
def test_octree_rejects_non_increasing_level(level):
    # octree_from_leaf_codes is the boundary for codes: it checks the leaf
    # level, and every level above it is strictly increasing by construction
    with pytest.raises(InvalidInputError, match="leaf codes must be strictly increasing"):
        octree_from_leaf_codes(np.array(level), 1)
    with pytest.raises(InvalidInputError, match="leaf codes must be strictly increasing"):
        octree_from_leaf_codes(np.array([i + 8 for i in level]), 2)


def test_octree_from_leaf_codes_rejects_negative_codes():
    with pytest.raises(InvalidInputError, match=r"leaf codes outside \[0, 8\^2\)"):
        octree_from_leaf_codes(np.array([-1, 5]), 2)


@pytest.mark.parametrize("depth", [0, 22])
def test_octree_from_leaf_codes_rejects_depth_outside_range(depth):
    with pytest.raises(InvalidInputError) as exc:
        octree_from_leaf_codes(np.array([0]), depth)
    assert str(exc.value) == f"depth {depth} outside [1, 21]"
