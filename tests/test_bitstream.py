"""Container round-trips, rate accounting and corruption handling."""

import hashlib
import math
import re
import struct
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from cylpc import (
    CoordinateSystem,
    CorruptStreamError,
    InvalidConfigError,
    PointCloud,
    SweepSpec,
    decode_cloud,
    encode_cloud,
    make_config,
    synth_sweep,
    voxel_centers,
    voxelize,
)
from cylpc import bitstream, octree_from_leaf_codes, serialize
from cylpc.cli import main
from cylpc.bitstream import HEADER_BYTES, MAGIC, Encoder, attribute_ints, decode_attributes
from cylpc.coeff_codec import QSTEP_MIN, RlgrPayload, rlgr_decode, rlgr_encode


@pytest.fixture(scope="module")
def cloud():
    return synth_sweep(
        SweepSpec(beam_count=12, azimuth_step=2.0 * math.pi / 160.0), seed=5
    )


ALL_MODES = [
    (CoordinateSystem.CARTESIAN, 8, False),
    (CoordinateSystem.CYLINDRICAL, 7, False),
    (CoordinateSystem.CYLINDRICAL, 7, True),
]


# sha256 of encode_cloud(cloud, ..., qstep=4) per mode; any change to the
# stream layout, the octree, the transform, the quantizer or RLGR shows here.
# The geometry section's deflate bytes are zlib's, pinned here for zlib
# 1.2.13; another zlib build that writes other bytes is a finding to
# record, not a golden to update (the decoder is pinned independently by
# V5_STREAM below)
GOLDEN_SHA256 = {
    (CoordinateSystem.CARTESIAN, 8, False):
        "a4ba15fdc1f98ab7cbfd593e7fa3f90d6736e20410105ae6950da2dcc22ee1c6",
    (CoordinateSystem.CYLINDRICAL, 7, False):
        "e7d4193f92e3e9d97b07c3cf83faadecd6120dcaa7ea50a510328242e6b0e75b",
    (CoordinateSystem.CYLINDRICAL, 7, True):
        "c37b402dcdec11dccaee3da1d7d2ef3fb152f8730beb2e7075baed169d05a2c1",
}
# the same streams in container v4, which stored the geometry section's
# length G, 8 bytes, between the header and the section
V4_GOLDEN_SHA256 = {
    (CoordinateSystem.CARTESIAN, 8, False):
        "1f85f63dfc60f3010ea9631043e7c806b96bc03878439049b7934f9c97b707e0",
    (CoordinateSystem.CYLINDRICAL, 7, False):
        "2a561b12a6cc150e64085b9859ae15921b0f6f0048c852e3f0f8acf2d652b935",
    (CoordinateSystem.CYLINDRICAL, 7, True):
        "c20f5104f155a0b0ed3c0e7b5bc4303b3b6601bb0476733e6e5ba819db885b16",
}


@pytest.mark.parametrize("system,depth,log_radial", ALL_MODES)
def test_encode_matches_golden_bytes(cloud, system, depth, log_radial):
    data, _ = encode_cloud(cloud, system, depth, qstep=4.0, log_radial=log_radial)
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256[system, depth, log_radial]


@pytest.mark.parametrize("system,depth,log_radial", ALL_MODES)
def test_golden_streams_are_the_v4_streams_without_g(cloud, system, depth, log_radial):
    # only the version byte and G changed: putting G back gives the v4 bytes
    data, summary = encode_cloud(cloud, system, depth, qstep=4.0, log_radial=log_radial)
    v4 = (data[:6] + b"\x04" + data[7:HEADER_BYTES]
          + struct.pack("<Q", summary.geometry_bytes) + data[HEADER_BYTES:])
    assert hashlib.sha256(v4).hexdigest() == V4_GOLDEN_SHA256[system, depth, log_radial]


# sha256 of the codes, xyz and leaf_attributes bytes of
# decode_cloud(encode_cloud(cloud, ..., qstep=4)); Cartesian d21 and
# log-radial d13 reach the deepest code slices of the Morton decoder
DECODED_SHA256 = {
    (CoordinateSystem.CARTESIAN, 8, False):
        "c8b63e6a917ad9c29a019a6261e37484a750fc61411de02a68d2c23f88481124",
    (CoordinateSystem.CYLINDRICAL, 7, False):
        "70c191ae4f878535dcb897693e18ec9a2d7a0bbf6d3eaead1aad653f7600a1a1",
    (CoordinateSystem.CYLINDRICAL, 7, True):
        "2b3b93225ad9b4056dfe6c096dd78bdc4b90da74b85fa4d6ff43186a117802d1",
    (CoordinateSystem.CARTESIAN, 21, False):
        "61aa6595eb60c4648bb6fa780823f77bf2e43657d0ad3a2e5e509bb8882e051d",
    (CoordinateSystem.CYLINDRICAL, 13, True):
        "cbbfff7e2bd829d048399f1ac75e215bcba266c86da47a05003c25912b838743",
}


@pytest.mark.parametrize("system,depth,log_radial", list(DECODED_SHA256))
def test_decode_matches_golden_arrays(cloud, system, depth, log_radial):
    data, _ = encode_cloud(cloud, system, depth, qstep=4.0, log_radial=log_radial)
    decoded = decode_cloud(data)
    digest = hashlib.sha256()
    for array in (decoded.codes, decoded.cloud.xyz, decoded.leaf_attributes):
        digest.update(array.tobytes())
    assert digest.hexdigest() == DECODED_SHA256[system, depth, log_radial]


def test_decoder_memory_stays_bounded_by_the_leaves(cloud):
    # a few thousand leaves on a depth-21 grid: 2^21-entry exp, cos and sin
    # tables would take 16 MB each, so the centers must be computed per leaf
    data, _ = encode_cloud(cloud, CoordinateSystem.CYLINDRICAL, 21, qstep=4.0, log_radial=True)
    tracemalloc.start()
    try:
        decode_cloud(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, f"peak {peak} bytes"


@pytest.mark.parametrize("system,depth,log_radial", ALL_MODES)
def test_decoder_hands_dequantize_an_int64_array(cloud, monkeypatch, system, depth, log_radial):
    # rlgr_decode returns an int64 array: no list of every coefficient is
    # built and converted back on the way to the inverse transform
    data, _, ints = Encoder(cloud, system, depth, log_radial).encode(4.0)
    seen, original = [], bitstream.dequantize

    def dequantize(values, qstep):
        seen.append(values)
        return original(values, qstep)

    monkeypatch.setattr(bitstream, "dequantize", dequantize)
    decode_cloud(data)
    assert len(seen) == 1
    assert type(seen[0]) is np.ndarray and seen[0].dtype == np.int64
    np.testing.assert_array_equal(seen[0], ints)


@pytest.mark.parametrize("system,depth,log_radial", ALL_MODES)
def test_decode_matches_devoxelized_pipeline(cloud, system, depth, log_radial):
    data, summary = encode_cloud(cloud, system, depth, qstep=4.0, log_radial=log_radial)
    decoded = decode_cloud(data)
    cfg = make_config(cloud, system, depth, log_radial=log_radial)
    vc = voxelize(cloud, cfg)
    assert decoded.config == cfg
    np.testing.assert_array_equal(decoded.cloud.xyz, voxel_centers(cfg, vc.codes))
    np.testing.assert_array_equal(decoded.codes, vc.codes)
    assert decoded.n_points == len(cloud)
    assert summary.n_voxels == len(vc)
    # attribute distortion bounded by the quantizer step
    mse = float(np.mean((decoded.leaf_attributes - vc.attributes) ** 2))
    assert mse <= 4.0**2 / 4.0


# (max point radius, r_min) of sub-metre log-radial clouds on which the
# header once stored exp(ln r_min + (ln R - ln r_min)) for R: the decoded
# radial extent came out 1 ulp off the encoder's, and so did the centers
SUB_METRE = [(0.6676573693985973, 0.37), (0.9708998517624436, 0.5),
             (0.6683711931873194, 0.1)]


def sub_metre_cloud(rmax, r_min):
    xyz = np.array([[rmax, 0.0, 0.0], [0.0, -r_min, 0.5], [-0.3, 0.2, 0.25]])
    return PointCloud(xyz, np.array([10.0, 200.0, 90.0]))


@pytest.mark.parametrize("system,depth,log_radial", ALL_MODES)
def test_coded_ints_reconstruct_what_the_decoder_decodes(cloud, system, depth, log_radial):
    # rd-sweep and compare take their PSNR from these ints, not from the stream
    enc = Encoder(cloud, system, depth, log_radial)
    for qstep in (64.0, 8.0, 1.0, 0.25):
        data, _, ints = enc.encode(qstep)
        assert ints.dtype == np.int64
        assert np.array_equal(
            decode_attributes(ints, enc.schedule, qstep), decode_cloud(data).leaf_attributes
        )


@pytest.mark.parametrize("rmax,r_min", SUB_METRE)
def test_decoder_rebuilds_the_encoder_grid_on_sub_metre_clouds(rmax, r_min):
    pc = sub_metre_cloud(rmax, r_min)
    data, _ = encode_cloud(pc, CoordinateSystem.CYLINDRICAL, 13, qstep=4.0,
                           log_radial=True, r_min=r_min)
    decoded = decode_cloud(data)
    cfg = make_config(pc, CoordinateSystem.CYLINDRICAL, 13, log_radial=True, r_min=r_min)
    assert decoded.config == cfg
    np.testing.assert_array_equal(decoded.cloud.xyz, voxel_centers(cfg, decoded.codes))


@pytest.mark.parametrize("qstep", [64.0, 8.0, 1.0, 0.25])
def test_attribute_mse_bound_over_qsteps(cloud, qstep):
    data, _ = encode_cloud(cloud, CoordinateSystem.CYLINDRICAL, 7, qstep=qstep,
                           log_radial=True)
    decoded = decode_cloud(data)
    vc = voxelize(cloud, make_config(cloud, CoordinateSystem.CYLINDRICAL, 7,
                                     log_radial=True))
    mse = float(np.mean((decoded.leaf_attributes - vc.attributes) ** 2))
    assert mse <= qstep * qstep / 4.0


def test_qstep_too_fine_for_int64_rejected(cloud):
    # at 1e-20 the quantized coefficients wrapped on the int64 cast and
    # decoded voxel means came back off by tens of intensity levels; the
    # qstep floor rejects such a step before the quantizer sees it
    with pytest.raises(InvalidConfigError, match="qstep 1e-20 is too small: below"):
        encode_cloud(cloud, CoordinateSystem.CYLINDRICAL, 7, qstep=1e-20)


def _voxel_mse(cloud, system, depth, log_radial, qstep):
    data, _ = encode_cloud(cloud, system, depth, qstep=qstep, log_radial=log_radial)
    vc = voxelize(cloud, make_config(cloud, system, depth, log_radial=log_radial))
    return float(np.mean((decode_cloud(data).leaf_attributes - vc.attributes) ** 2))


@pytest.mark.parametrize("system,depth,log_radial", ALL_MODES)
def test_attribute_mse_bound_holds_at_qstep_floor(cloud, system, depth, log_radial):
    # float64 rounding broke the bound at qstep 1e-13 (MSE 1.5-5x of it)
    assert _voxel_mse(cloud, system, depth, log_radial, QSTEP_MIN) <= QSTEP_MIN**2 / 4.0


@pytest.mark.parametrize(
    "intensity,system,depth,log_radial",
    [
        ("range-decay", CoordinateSystem.CYLINDRICAL, 13, True),
        ("range-decay", CoordinateSystem.CARTESIAN, 16, False),
        ("range-decay", CoordinateSystem.CARTESIAN, 21, False),
        ("checker", CoordinateSystem.CYLINDRICAL, 21, False),
    ],
)
def test_attribute_mse_bound_holds_at_qstep_floor_on_full_frames(
    intensity, system, depth, log_radial
):
    frame = synth_sweep(SweepSpec(intensity_model=intensity), seed=7)
    assert _voxel_mse(frame, system, depth, log_radial, QSTEP_MIN) <= QSTEP_MIN**2 / 4.0


def test_qstep_just_below_floor_rejected(cloud):
    below = float(np.nextafter(QSTEP_MIN, 0.0))
    with pytest.raises(InvalidConfigError, match=f"qstep {below} is too small"):
        encode_cloud(cloud, CoordinateSystem.CYLINDRICAL, 7, qstep=below)


def test_attribute_ints_rejects_a_qstep_below_the_floor(cloud):
    # attribute_ints once quantized at any positive qstep: on the seed-7
    # 105k-point cyl-log d13 frame, 1e-13 decoded to 5.1x the MSE bound
    below = float(np.nextafter(QSTEP_MIN, 0.0))
    vc = voxelize(cloud, make_config(cloud, CoordinateSystem.CYLINDRICAL, 7))
    for qstep in (below, 1e-13):
        message = (f"^qstep {qstep} is too small: below {QSTEP_MIN:g}, float64 rounding"
                   r" breaks MSE <= qstep\^2/4$")
        with pytest.raises(InvalidConfigError, match=message):
            attribute_ints(vc, qstep)
        with pytest.raises(InvalidConfigError, match=message):
            encode_cloud(cloud, CoordinateSystem.CYLINDRICAL, 7, qstep=qstep)
    _, _, ints = Encoder(cloud, CoordinateSystem.CYLINDRICAL, 7).encode(QSTEP_MIN)
    np.testing.assert_array_equal(attribute_ints(vc, QSTEP_MIN), ints)


def test_encode_is_deterministic(cloud):
    a, _ = encode_cloud(cloud, CoordinateSystem.CYLINDRICAL, 7, qstep=2.0)
    b, _ = encode_cloud(cloud, CoordinateSystem.CYLINDRICAL, 7, qstep=2.0)
    assert a == b


def test_rate_accounting_sums_to_file_size(cloud):
    data, summary = encode_cloud(cloud, CoordinateSystem.CARTESIAN, 8, qstep=4.0)
    assert summary.total_bytes == len(data)
    assert summary.header_bytes == HEADER_BYTES
    assert (
        summary.header_bytes + summary.geometry_bytes + summary.attribute_bytes
        == len(data)
    )
    assert summary.total_bpp == pytest.approx(8.0 * len(data) / len(cloud))
    assert summary.geometry_bpp == pytest.approx(
        8.0 * summary.geometry_bytes / len(cloud)
    )


def test_decoder_needs_only_the_bytes(cloud):
    # decode from a plain bytes object reconstructed via a copy
    data, _ = encode_cloud(cloud, CoordinateSystem.CYLINDRICAL, 6, qstep=8.0,
                           log_radial=True, r_min=2.0)
    decoded = decode_cloud(bytes(bytearray(data)))
    assert decoded.config.log_radial
    assert decoded.config.origin[0] == math.log(2.0)
    assert decoded.qstep == 8.0


def test_plain_cylindrical_streams_ignore_r_min(cloud):
    # r_min shapes log-radial grids only, so it must not reach other headers
    streams = set()
    for r_min in (0.5, float("nan"), -3.0):
        cfg = make_config(cloud, CoordinateSystem.CYLINDRICAL, 7, r_min=r_min)
        assert cfg.origin[0] == 0.0
        data, _ = encode_cloud(cloud, CoordinateSystem.CYLINDRICAL, 7, qstep=4.0, r_min=r_min)
        streams.add(data)
    assert len(streams) == 1


def test_header_magic_and_version_checked(cloud):
    data, _ = encode_cloud(cloud, CoordinateSystem.CARTESIAN, 6, qstep=8.0)
    assert data[:6] == MAGIC
    bad_magic = b"NOPE!!" + data[6:]
    with pytest.raises(CorruptStreamError, match="magic"):
        decode_cloud(bad_magic)
    bad_version = data[:6] + b"\x09" + data[7:]
    with pytest.raises(CorruptStreamError, match="version"):
        decode_cloud(bad_version)


def test_header_field_validation(cloud):
    data, _ = encode_cloud(cloud, CoordinateSystem.CARTESIAN, 6, qstep=8.0)

    def patch(offset, payload):
        return data[:offset] + payload + data[offset + len(payload):]

    with pytest.raises(CorruptStreamError, match="coordinate"):
        decode_cloud(patch(7, b"\x05"))
    with pytest.raises(CorruptStreamError, match="depth"):
        decode_cloud(patch(8, b"\x40"))
    with pytest.raises(CorruptStreamError, match="flags"):
        decode_cloud(patch(9, b"\x80"))
    # a log-radial flag on this Cartesian stream was once ignored
    with pytest.raises(CorruptStreamError, match="log-radial flag on a Cartesian") as exc:
        decode_cloud(patch(9, b"\x01"))
    assert exc.value.offset == 9
    with pytest.raises(CorruptStreamError, match="qstep") as exc:
        decode_cloud(patch(66, struct.pack("<d", -1.0)))
    assert exc.value.offset == 66
    with pytest.raises(CorruptStreamError, match="grid") as exc:
        decode_cloud(patch(10, struct.pack("<6d", 0, 0, 0, -5.0, 1, 1)))
    assert exc.value.offset == 10


def test_point_count_below_leaf_count_is_corrupt(cloud):
    data, summary = encode_cloud(cloud, CoordinateSystem.CYLINDRICAL, 6, qstep=8.0)
    for n_points in (summary.n_voxels, len(cloud)):
        patched = data[:58] + struct.pack("<Q", n_points) + data[66:]
        assert decode_cloud(patched).n_points == n_points
    for n_points in (0, 1, summary.n_voxels - 1):
        patched = data[:58] + struct.pack("<Q", n_points) + data[66:]
        with pytest.raises(CorruptStreamError, match="point count") as exc:
            decode_cloud(patched)
        assert exc.value.offset == 58


def _patch_grid(data, field, value):
    """``data`` with grid double ``field`` (origin 0-2, extents 3-5) set to ``value``."""
    offset = 10 + 8 * field
    return data[:offset] + struct.pack("<d", value) + data[offset + 8:]


@pytest.mark.parametrize("mode", ALL_MODES)
@pytest.mark.parametrize("field", range(6))
def test_non_finite_or_non_positive_grid_fields_are_corrupt(cloud, mode, field):
    # a non-finite field once decoded to non-finite points and exited 2, not 4
    system, depth, log_radial = mode
    data, _ = encode_cloud(cloud, system, depth, qstep=8.0, log_radial=log_radial)
    values = (math.inf, -math.inf, math.nan) + ((0.0, -0.0, -2.0) if field >= 3 else ())
    for value in values:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CorruptStreamError, match="^invalid grid in header: ") as exc:
                decode_cloud(_patch_grid(data, field, value))
        assert exc.value.offset == 10


@pytest.mark.parametrize(
    "mode,patches",
    [
        # origin x + side > 1.8e308, with the cube kept
        (ALL_MODES[0], [(0, 1.79e308), (3, 1e308), (4, 1e308), (5, 1e308)]),
        # h_min + height > 1.8e308
        (ALL_MODES[1], [(2, 1.79e308), (5, 1e308)]),
        # exp(ln r_min + ln-radial extent) > 1.8e308
        (ALL_MODES[2], [(0, 700.0), (3, 100.0)]),
    ],
)
def test_finite_grid_that_breaks_voxel_centers_is_corrupt(cloud, mode, patches):
    system, depth, log_radial = mode
    data, _ = encode_cloud(cloud, system, depth, qstep=8.0, log_radial=log_radial)
    for field, value in patches:
        data = _patch_grid(data, field, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CorruptStreamError) as exc:
            decode_cloud(data)
    assert str(exc.value) == "header grid puts voxel centers outside the float64 range"
    assert exc.value.offset == 10


def test_decoder_takes_the_grid_as_written(cloud):
    # what make_config leaves free decodes to finite centers as written
    free = {  # mode -> grid fields set together
        ALL_MODES[0]: [(0, 1.5), (1, -7.5), (3, 0.25), (4, 0.25), (5, 0.25)],
        ALL_MODES[1]: [(2, -7.5), (3, 0.25), (5, 1e-300)],
        ALL_MODES[2]: [(0, 1.5), (3, 0.25), (5, 1e-300)],
    }
    for (system, depth, log_radial), patches in free.items():
        data, _ = encode_cloud(cloud, system, depth, qstep=8.0, log_radial=log_radial)
        for field, value in patches:
            data = _patch_grid(data, field, value)
        decoded = decode_cloud(data)
        grid = decoded.config.origin + decoded.config.extents
        assert all(grid[field] == value for field, value in patches)
        assert np.isfinite(decoded.cloud.xyz).all()


@pytest.mark.parametrize(
    "mode,field,value",
    [
        # a Cartesian grid is a cube
        (ALL_MODES[0], 4, 0.25),
        (ALL_MODES[0], 5, 1e300),
        # theta spans exactly [-pi, pi)
        (ALL_MODES[1], 1, 0.0),
        (ALL_MODES[1], 4, math.pi),
        (ALL_MODES[2], 1, -3.0),
        (ALL_MODES[2], 4, 7.0),
        # a plain radial axis starts at 0
        (ALL_MODES[1], 0, 1.5),
    ],
)
def test_grid_values_that_nothing_varies_are_corrupt(cloud, mode, field, value):
    system, depth, log_radial = mode
    data, _ = encode_cloud(cloud, system, depth, qstep=8.0, log_radial=log_radial)
    with pytest.raises(CorruptStreamError, match=f"^invalid grid in header: not a {system.value} grid: ") as exc:
        decode_cloud(_patch_grid(data, field, value))
    assert exc.value.offset == 10


def _sections(data):
    """(header, geometry section, RLGR payload) of a stream; the section
    ends where its deflate data's last block does."""
    inflater = zlib.decompressobj(-15)
    inflater.decompress(data[HEADER_BYTES:])
    assert inflater.eof
    end = len(data) - len(inflater.unused_data)
    return data[:HEADER_BYTES], data[HEADER_BYTES:end], data[end:]


def _pack(header, geometry, payload):
    """The stream of these parts: no length separates them."""
    return header + geometry + payload


def test_truncations_are_corrupt(cloud):
    # the payload runs to the end of the stream: a cut inside it is an
    # attribute section error, not a framing one
    data, _ = encode_cloud(cloud, CoordinateSystem.CYLINDRICAL, 6, qstep=8.0)
    _, geometry, _ = _sections(data)
    for cut in range(len(data)):
        with pytest.raises(CorruptStreamError) as exc:
            decode_cloud(data[:cut])
        start = HEADER_BYTES + len(geometry)
        if cut >= start:
            assert str(exc.value).startswith(f"attribute section (payload from byte {start}): ")


def test_every_truncation_names_its_part(cloud):
    data, _ = encode_cloud(cloud, CoordinateSystem.CYLINDRICAL, 6, qstep=8.0)
    _, geometry, payload = _sections(data)
    g = len(geometry)
    assert g > 5 and len(payload) > 2
    for cut in (0, 10, 73):
        _rejects(data[:cut], f"stream ends at byte {cut} inside the 74-byte header at byte 0",
                 cut)
    # the deflate data runs on until its last block, wherever the stream ends
    for cut in (74, 79, 74 + g - 1):
        out = len(zlib.decompressobj(-15).decompress(data[74:cut]))
        _rejects(data[:cut], f"geometry section: the deflate data from byte 74 ends after"
                 f" {out} bytes, before its last block", 74)
    # no payload at all: RLGR runs out before the first coefficient
    _rejects(data[: 74 + g], f"attribute section (payload from byte {74 + g}): payload"
             " exhausted at bit offset 0", 0)


def _layout_rows(lines):
    """(offset, size) of each row of a layout table: offsets like 74 or 74+G,
    sizes a byte count, the section length G, or the rest of the stream."""
    rows = []
    for line in lines:
        m = re.match(r"\s*\|?\s*(\d+(?:\+G)?)\s*\|?\s+(\d+|G|rest)\s+\|?\s*\S", line)
        if m:
            rows.append(m.groups())
    return rows


def _struct_fields(st):
    """Byte size of each field of a little-endian struct, in order."""
    sizes = []
    for count, code in re.findall(r"(\d*)([a-zA-Z])", st.format.lstrip("<")):
        n = int(count or 1)
        sizes += [n] if code == "s" else [struct.calcsize("<" + code)] * n
    return sizes


def _after(pos, size):
    """Position, as (bytes, multiple of G), just past a field of ``size``."""
    return (pos[0], pos[1] + 1) if size == "G" else (pos[0] + int(size), pos[1])


@pytest.mark.parametrize("source", ["README.md", "bitstream.py"])
def test_layout_tables_match_the_structs(source):
    if source == "README.md":
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("## Bitstream layout", 1)[1].split("\n## ", 1)[0]
        lines = [line for line in section.splitlines() if line.startswith("|")]
    else:
        table = bitstream.__doc__.split("offset  size  field", 1)[1].split("\n\n", 1)[0]
        lines = table.splitlines()
    rows = _layout_rows(lines)
    fields = _struct_fields(bitstream._HEADER) + ["G"]
    ends, pos = set(), (0, 0)
    for size in fields:
        pos = _after(pos, size)
        ends.add(pos)
    assert pos == (HEADER_BYTES, 1)
    at = (0, 0)
    for offset, size in rows[:-1]:
        const, _, g = offset.partition("+")
        assert (int(const), 1 if g else 0) == at, f"{source}: row at {offset}"
        at = _after(at, size)
        assert at in ends, f"{source}: row at {offset} ends inside a field"
    assert at == pos
    assert rows[-1] == (f"{HEADER_BYTES}+G", "rest")


def test_trailing_bytes_are_corrupt(cloud):
    # RLGR must end inside the payload's last byte, so any byte after it
    # leaves at least 8 unread bits
    data, _ = encode_cloud(cloud, CoordinateSystem.CYLINDRICAL, 6, qstep=8.0)
    start = len(data) - len(_sections(data)[2])
    for byte in range(256):
        with pytest.raises(CorruptStreamError, match=rf"^attribute section \(payload from"
                           rf" byte {start}\): \d+ unread bits after decoding"):
            decode_cloud(data + bytes([byte]))


def test_bit_flip_fuzz_never_crashes(cloud):
    rng = np.random.default_rng(0)
    data, _ = encode_cloud(cloud, CoordinateSystem.CYLINDRICAL, 6, qstep=8.0)
    outcomes = {"ok": 0, "corrupt": 0}
    for _ in range(400):
        flipped = bytearray(data)
        pos = rng.integers(0, len(flipped))
        flipped[pos] ^= 1 << rng.integers(0, 8)
        try:
            decoded = decode_cloud(bytes(flipped))
            assert len(decoded.cloud) >= 1
            assert (decoded.leaf_attributes >= 0.0).all()
            assert (decoded.leaf_attributes <= 255.0).all()
            outcomes["ok"] += 1
        except CorruptStreamError:
            outcomes["corrupt"] += 1
    assert outcomes["ok"] + outcomes["corrupt"] == 400
    assert outcomes["corrupt"] > 0


def test_fine_qstep_is_near_lossless_per_point():
    # constant intensity leaves at most the root coefficient to round
    from cylpc import psnr_attribute
    from cylpc.voxelizer import assign_codes

    pc = synth_sweep(
        SweepSpec(beam_count=16, azimuth_step=2 * math.pi / 256,
                  intensity_model="constant"),
        seed=1,
    )
    for system, depth, log_radial in [
        (CoordinateSystem.CYLINDRICAL, 13, True),
        (CoordinateSystem.CARTESIAN, 16, False),
    ]:
        data, _ = encode_cloud(pc, system, depth, qstep=1.0, log_radial=log_radial)
        decoded = decode_cloud(data)
        cfg = make_config(pc, system, depth, log_radial=log_radial)
        vc = voxelize(pc, cfg)
        slot = np.searchsorted(vc.codes, assign_codes(pc, cfg))
        psnr = psnr_attribute(pc.attributes, decoded.leaf_attributes[slot])
        assert psnr > 50.0


def test_decoded_attributes_clamped_to_8bit_range():
    # extreme attributes plus coarse quantization can overshoot; the
    # decoder clamps into [0, 255]
    xyz = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    pc = PointCloud(xyz, np.array([255.0, 0.0, 255.0, 0.0]))
    data, _ = encode_cloud(pc, CoordinateSystem.CARTESIAN, 1, qstep=64.0)
    decoded = decode_cloud(data)
    assert (decoded.leaf_attributes >= 0.0).all()
    assert (decoded.leaf_attributes <= 255.0).all()


# ------------------------------------------------ version 5 container

# a 40-point cylindrical log-radial d6 stream at qstep 8 in container v3:
# the 82-byte header (r_min 1.0 at byte 10, then R, H, h_min and three
# reserved zero doubles), G, zlib's raw deflate of the occupancy bytes
# (four multi-child levels, then two single-child ones) and the RLGR
# payload
V3_STREAM = bytes.fromhex(
    "43594c50433103010601000000000000f03f0b2b31df635d28407b7d93a8a7be2e404d02"
    "f2d51eda21c0000000000000000000000000000000000000000000000000280000000000"
    "000000000000000020409800000000000000fa0f505384874ddff5deb300313528080828"
    "38080a382c30626162e15610e060e11060f3506064926061021004c74400c0300cc4ceb9"
    "0c1e0de1a1184aa1047a25bb829c8e613385a96075c9ca3df2dc4f101cdb0000032110d3"
    "4514948cc0288cf6a3c716921d77762e252bd7f1cae388c32a3e41704c03000083002c90"
    "1d9c48400ad290bef690ca542672011c2f3d808d9b8d80ee7e009fffffffe0f5c4913544"
    "dc69b2cca91aaeeec66889ee73d0741338656ecdf91de1b0"
)
# sha256 of its decoded codes, xyz and leaf attributes; any correct
# inflate meets them, whichever zlib build wrote the deflate bytes
V3_DECODED_SHA256 = (
    "e5d10c04ff545aa6217d7886dd5a085466c0dd6210b9a36da60edb5269a113c4",
    "11ff51578c328f09a4fe14c93894dc2cbc708c9f38cb31fa0b20c41f8d80f883",
    "d556c49b73ca40b221d5a162f9d62949539a172c01931a6ab171553e623c3fea",
)
# the same stream in container v4: a 74-byte header whose grid is origin
# (ln 1.0, -pi, h_min) and extents (ln R - ln 1.0, 2 pi, H), then v3's
# G, geometry section and payload unchanged
V4_STREAM = bytes.fromhex(
    "43594c504331040106010000000000000000182d4454fb2109c04d02f2d51eda21c05b0d"
    "4e11fcff0340182d4454fb2119407b7d93a8a7be2e402800000000000000000000000000"
    "2040"
) + V3_STREAM[82:]
# the same stream in container v5: v4's header with version 5, then v3's
# geometry section and payload with no G before them
V5_STREAM = bytes.fromhex(
    "43594c504331050106010000000000000000182d4454fb2109c04d02f2d51eda21c05b0d"
    "4e11fcff0340182d4454fb2119407b7d93a8a7be2e402800000000000000000000000000"
    "2040"
) + V3_STREAM[90:]
DEFLATE_AT = HEADER_BYTES  # the geometry section, all deflate data


def test_v4_stream_rewrites_only_the_v3_header():
    (r_min, radius, height, h_min, *reserved,
     n_points, qstep) = struct.unpack_from("<7dQd", V3_STREAM, 10)
    assert r_min == 1.0 and reserved == [0.0, 0.0, 0.0]
    grid = (math.log(r_min), -math.pi, h_min,
            math.log(radius) - math.log(r_min), 2.0 * math.pi, height)
    assert struct.unpack_from("<6dQd", V4_STREAM, 10) == (*grid, n_points, qstep)
    assert V4_STREAM[:10] == V3_STREAM[:6] + b"\x04" + V3_STREAM[7:10]
    assert V4_STREAM[HEADER_BYTES:] == V3_STREAM[82:]


def _assert_v3_golden(data):
    decoded = decode_cloud(data)
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                    for a in (decoded.codes, decoded.cloud.xyz, decoded.leaf_attributes))
    assert digests == V3_DECODED_SHA256
    assert decoded.config.depth == 6 and decoded.config.log_radial
    assert (decoded.qstep, decoded.n_points) == (8.0, 40)


def test_v5_stream_is_the_v4_stream_without_g():
    assert V5_STREAM == V4_STREAM[:6] + b"\x05" + V4_STREAM[7:74] + V4_STREAM[82:]
    # G held exactly the deflate data's length
    (g,) = struct.unpack_from("<Q", V4_STREAM, 74)
    assert len(_sections(V5_STREAM)[1]) == g


def test_pinned_v5_stream_decodes_to_the_v3_golden_arrays():
    assert len(V5_STREAM) < 1024 and V5_STREAM[6] == 5
    _assert_v3_golden(V5_STREAM)


@pytest.mark.parametrize("level,strategy", [(0, zlib.Z_DEFAULT_STRATEGY),
                                            (1, zlib.Z_DEFAULT_STRATEGY),
                                            (9, zlib.Z_FIXED)])
def test_any_raw_deflate_of_the_occupancy_decodes_alike(level, strategy):
    # stored blocks, LZ77 matches or fixed codes: the decoder only inflates
    header, deflated, payload = _sections(V5_STREAM)
    z = zlib.compressobj(level, zlib.DEFLATED, -15, 9, strategy)
    other = z.compress(zlib.decompress(deflated, -15)) + z.flush()
    assert other != deflated
    _assert_v3_golden(_pack(header, other, payload))


def _rejects(data, message, offset):
    with pytest.raises(CorruptStreamError) as exc:
        decode_cloud(data)
    assert str(exc.value) == message
    assert exc.value.offset == offset


def test_version_1_streams_are_rejected():
    _rejects(V3_STREAM[:6] + b"\x01" + V3_STREAM[7:], "unsupported version 1", 6)


def test_version_2_streams_are_rejected():
    # v2 also stored the raw occupancy length, the payload length and the
    # coefficient count, which a v3 decoder would read as deflate data
    _rejects(V3_STREAM[:6] + b"\x02" + V3_STREAM[7:], "unsupported version 2", 6)


def test_version_3_streams_are_rejected():
    # v3 stored r_min and system-dependent bounds in an 82-byte header,
    # which a v5 decoder would read as a grid followed by deflate data
    _rejects(V3_STREAM, "unsupported version 3", 6)


def test_version_4_streams_are_rejected():
    # v4 stored the geometry section's length G, which a v5 decoder would
    # read as deflate data
    _rejects(V4_STREAM, "unsupported version 4", 6)


def test_empty_geometry_section_has_no_last_block():
    # zlib reads a max_length of 0 as no limit; a stream that ends with its
    # header inflates nothing and fails the end-of-stream check
    _rejects(V5_STREAM[:HEADER_BYTES],
             "geometry section: the deflate data from byte 74 ends after 0 bytes,"
             " before its last block", 74)


def test_invalid_deflate_data_names_its_first_byte():
    header, deflated, payload = _sections(V5_STREAM)
    # a final block of the reserved type 3
    _rejects(_pack(header, b"\x07" + deflated[1:], payload),
             "geometry section: Error -3 while decompressing data: invalid block type"
             " (in the deflate data from byte 74)", 74)


def test_deflate_data_that_ends_before_its_last_block():
    header, deflated, _ = _sections(V5_STREAM)
    cut = deflated[: len(deflated) // 2]
    out = len(zlib.decompressobj(-15).decompress(cut))
    _rejects(header + cut,
             f"geometry section: the deflate data from byte 74 ends after {out} bytes,"
             " before its last block", 74)


def test_occupancy_errors_name_the_inflated_byte():
    header, deflated, payload = _sections(V5_STREAM)
    raw = zlib.decompress(deflated, -15)
    _rejects(_pack(header, zlib.compress(raw + b"\x01", wbits=-15), payload),
             f"geometry section: inflated byte {len(raw)}: 1 trailing bytes after"
             f" occupancy stream at offset {len(raw)}", 74)


def test_occupancy_one_byte_short_names_the_inflated_byte():
    header, deflated, payload = _sections(V5_STREAM)
    raw = zlib.decompress(deflated, -15)
    short = len(raw) - 1
    _rejects(_pack(header, zlib.compress(raw[:short], wbits=-15), payload),
             f"geometry section: inflated byte {short}: occupancy stream truncated at"
             f" byte {short}, expected {len(raw)} bytes", 74)


def _deflated_zeros():
    """A MiB of zeros and its raw deflate, zlib's best ratio."""
    zeros = bytes(1 << 20)
    z = zlib.compressobj(9, zlib.DEFLATED, -15, 9)
    return zeros, z.compress(zeros) + z.flush()


def test_best_deflate_ratio_inflates_under_the_cap():
    zeros, deflated = _deflated_zeros()
    assert 1000 * len(deflated) < len(zeros) < bitstream._INFLATE_MAX * len(deflated)
    header = V5_STREAM[:HEADER_BYTES]
    assert bitstream._inflate_geometry(header + deflated, DEFLATE_AT) == (zeros, b"")
    assert bitstream._inflate_geometry(header + deflated + b"\x07", DEFLATE_AT) == (zeros, b"\x07")


def test_inflate_stops_at_the_cap_per_byte_after_the_header(monkeypatch):
    # with the cap at 1 byte per byte after the header the same data stops
    # short and never reaches its last block; payload bytes count too
    _, deflated = _deflated_zeros()
    monkeypatch.setattr(bitstream, "_INFLATE_MAX", 1)
    for payload in (0, 1, 5):
        with pytest.raises(CorruptStreamError) as exc:
            bitstream._inflate_geometry(
                V5_STREAM[:HEADER_BYTES] + deflated + bytes(payload), DEFLATE_AT)
        assert str(exc.value) == (
            f"geometry section: the deflate data from byte 74 ends after"
            f" {len(deflated) + payload} bytes, before its last block")


def _payload_for(ints):
    """V5_STREAM with its RLGR payload replaced by the coding of ``ints``."""
    header, deflated, _ = _sections(V5_STREAM)
    return _pack(header, deflated, rlgr_encode(ints).data)


def _v3_ints():
    _, _, payload = _sections(V5_STREAM)
    return rlgr_decode(RlgrPayload(payload, 40), as_array=True)


def test_coefficient_count_cross_checked():
    # the 40 occupied leaves give the count: a payload coded for one more
    # coefficient leaves its bits unread, whatever that coefficient is
    ints = _v3_ints()
    _assert_v3_golden(_payload_for(ints))
    for extra in (0, 5, -3):
        _rejects(_payload_for(np.append(ints, extra)),
                 "attribute section (payload from byte 226): 11 unread bits after decoding"
                 " 40 values at bit offset 269", 269)


def test_payload_one_coefficient_short_is_exhausted():
    _rejects(_payload_for(_v3_ints()[:-1]),
             "attribute section (payload from byte 226): payload exhausted at bit offset 264",
             264)


@pytest.mark.parametrize("depth", range(1, 22))
@pytest.mark.parametrize("system,log_radial", [(CoordinateSystem.CARTESIAN, False),
                                               (CoordinateSystem.CYLINDRICAL, True)])
def test_container_round_trips_at_every_depth(cloud, system, depth, log_radial):
    data, summary = encode_cloud(cloud, system, depth, qstep=4.0, log_radial=log_radial)
    decoded = decode_cloud(data)
    cfg = make_config(cloud, system, depth, log_radial=log_radial)
    vc = voxelize(cloud, cfg)
    np.testing.assert_array_equal(decoded.codes, vc.codes)
    np.testing.assert_array_equal(decoded.cloud.xyz, voxel_centers(cfg, vc.codes))
    raw = serialize(octree_from_leaf_codes(vc.codes, depth)).data
    _, deflated, _ = _sections(data)
    assert zlib.decompress(deflated, -15) == raw
    assert (summary.geometry_raw_bytes, summary.geometry_bytes) == (len(raw), len(deflated))


def test_bit_flips_in_the_deflate_data_never_crash(cloud, tmp_path):
    rng = np.random.default_rng(18)
    data, _ = encode_cloud(cloud, CoordinateSystem.CYLINDRICAL, 6, qstep=8.0)
    _, deflated, _ = _sections(data)
    start = DEFLATE_AT
    stream, out = tmp_path / "flipped.cyl", tmp_path / "out.ply"
    outcomes = {0: 0, 4: 0}
    for _ in range(150):
        flipped = bytearray(data)
        flipped[start + rng.integers(0, len(deflated))] ^= 1 << rng.integers(0, 8)
        try:
            decode_cloud(bytes(flipped))
            expected = 0
        except CorruptStreamError:
            expected = 4
        stream.write_bytes(flipped)
        assert main(["decode", str(stream), "--out", str(out)]) == expected
        outcomes[expected] += 1
    assert outcomes[4] > 0
