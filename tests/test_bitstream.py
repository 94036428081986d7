"""Container round-trips, rate accounting and corruption handling."""

import hashlib
import math
import struct
import warnings

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
from cylpc import bitstream
from cylpc.bitstream import HEADER_BYTES, MAGIC, QSTEP_MIN, Encoder, decode_attributes


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
# stream layout, the octree, the transform, the quantizer or RLGR shows here
GOLDEN_SHA256 = {
    (CoordinateSystem.CARTESIAN, 8, False):
        "337fc76d2dca7381e61f376c2c8812981a0126bde0f1e4e6be237abef1f42c5e",
    (CoordinateSystem.CYLINDRICAL, 7, False):
        "fd1304c518947eb251644971672bbddf7dc12f5f73f13dc400c097ea8392968f",
    (CoordinateSystem.CYLINDRICAL, 7, True):
        "d2c9c9f5c1c50d3b6e8bf5e4a7299ae1c97c93a8d7c3b449f516d0e730e63853",
}


@pytest.mark.parametrize("system,depth,log_radial", ALL_MODES)
def test_encode_matches_golden_bytes(cloud, system, depth, log_radial):
    data, _ = encode_cloud(cloud, system, depth, qstep=4.0, log_radial=log_radial)
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256[system, depth, log_radial]


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


@pytest.mark.parametrize("rmax,r_min", SUB_METRE)
def test_streams_with_the_derived_radius_still_decode(rmax, r_min):
    # earlier encoders wrote the radius of a log-radial grid as
    # exp(ln r_min + (ln R - ln r_min)), which may differ from R by an ulp
    data, _ = encode_cloud(sub_metre_cloud(rmax, r_min), CoordinateSystem.CYLINDRICAL,
                           13, qstep=4.0, log_radial=True, r_min=r_min)
    (radius,) = struct.unpack_from("<d", data, 18)
    derived = math.exp(math.log(r_min) + (math.log(radius) - math.log(r_min)))
    assert derived != radius
    old = decode_cloud(data[:18] + struct.pack("<d", derived) + data[26:])
    new = decode_cloud(data)
    np.testing.assert_array_equal(old.codes, new.codes)
    np.testing.assert_array_equal(old.leaf_attributes, new.leaf_attributes)
    # the radial extent moves by at most 1 ulp, so each point by at most 1 ulp
    # of its radius
    np.testing.assert_array_max_ulp(old.config.extents[0], new.config.extents[0], 1)
    r = np.hypot(new.cloud.xyz[:, 0], new.cloud.xyz[:, 1])
    assert (np.abs(old.cloud.xyz - new.cloud.xyz) <= np.spacing(r)[:, None]).all()


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


def test_encode_is_deterministic(cloud):
    a, _ = encode_cloud(cloud, CoordinateSystem.CYLINDRICAL, 7, qstep=2.0)
    b, _ = encode_cloud(cloud, CoordinateSystem.CYLINDRICAL, 7, qstep=2.0)
    assert a == b


def test_rate_accounting_sums_to_file_size(cloud):
    data, summary = encode_cloud(cloud, CoordinateSystem.CARTESIAN, 8, qstep=4.0)
    assert summary.total_bytes == len(data)
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
    assert decoded.config.r_min == 2.0
    assert decoded.qstep == 8.0


def test_plain_cylindrical_header_keeps_the_default_r_min(cloud):
    # r_min shapes log-radial grids only, so it must not reach other headers
    streams = set()
    for r_min in (0.5, float("nan"), -3.0):
        cfg = make_config(cloud, CoordinateSystem.CYLINDRICAL, 7, r_min=r_min)
        assert cfg.r_min == 1.0
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
    with pytest.raises(CorruptStreamError, match="qstep"):
        decode_cloud(patch(74, struct.pack("<d", -1.0)))
    with pytest.raises(CorruptStreamError, match="bounds"):
        decode_cloud(patch(18, struct.pack("<6d", 0, 0, 0, -5.0, 0, 0)))
    # reserved bounds doubles must be eight zero bytes; 7.5 there once
    # decoded into config.bounds
    cyl, _ = encode_cloud(cloud, CoordinateSystem.CYLINDRICAL, 7, qstep=8.0,
                          log_radial=True)
    for stream, offsets in ((data, (50, 58)), (cyl, (42, 50, 58))):
        for offset in offsets:
            for value in (7.5, -0.0, math.nan):
                bad = stream[:offset] + struct.pack("<d", value) + stream[offset + 8:]
                with pytest.raises(CorruptStreamError, match="reserved bounds") as exc:
                    decode_cloud(bad)
                assert exc.value.offset == offset


def test_point_count_below_leaf_count_is_corrupt(cloud):
    data, summary = encode_cloud(cloud, CoordinateSystem.CYLINDRICAL, 6, qstep=8.0)
    for n_points in (summary.n_voxels, len(cloud)):
        patched = data[:66] + struct.pack("<Q", n_points) + data[74:]
        assert decode_cloud(patched).n_points == n_points
    for n_points in (0, 1, summary.n_voxels - 1):
        patched = data[:66] + struct.pack("<Q", n_points) + data[74:]
        with pytest.raises(CorruptStreamError, match="point count") as exc:
            decode_cloud(patched)
        assert exc.value.offset == 66


@pytest.mark.parametrize(
    "system,patches",
    [
        (CoordinateSystem.CARTESIAN, [(18, math.inf)]),  # origin x
        (CoordinateSystem.CARTESIAN, [(34, math.nan)]),  # origin z
        # finite fields whose voxel centers overflow: origin x + side > 1.8e308
        (CoordinateSystem.CARTESIAN, [(18, 1.79e308), (42, 1e308)]),
        (CoordinateSystem.CYLINDRICAL, [(18, math.inf)]),  # radius
        (CoordinateSystem.CYLINDRICAL, [(34, math.nan)]),  # h_min
    ],
)
def test_bounds_that_break_voxel_centers_are_corrupt(cloud, system, patches):
    # these once decoded to non-finite points and exited 2, not 4
    data, _ = encode_cloud(cloud, system, 6, qstep=8.0)
    for offset, value in patches:
        data = data[:offset] + struct.pack("<d", value) + data[offset + 8:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CorruptStreamError, match="header bounds") as exc:
            decode_cloud(data)
    assert exc.value.offset == 18


@pytest.mark.parametrize("log_radial", [False, True])
@pytest.mark.parametrize(
    "offset,value",
    [(18, 0.0), (18, -1.0), (18, math.nan), (26, 0.0), (26, -2.0), (26, math.nan)],
)  # cylinder radius at 18, height at 26
def test_non_positive_cylinder_bounds_are_corrupt(cloud, log_radial, offset, value):
    data, _ = encode_cloud(
        cloud, CoordinateSystem.CYLINDRICAL, 6, qstep=8.0, log_radial=log_radial
    )
    data = data[:offset] + struct.pack("<d", value) + data[offset + 8:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CorruptStreamError, match="invalid bounds in header") as exc:
            decode_cloud(data)
    assert exc.value.offset == 10


def test_truncations_are_corrupt(cloud):
    data, _ = encode_cloud(cloud, CoordinateSystem.CYLINDRICAL, 6, qstep=8.0)
    for cut in (0, 10, HEADER_BYTES - 1, HEADER_BYTES + 3, len(data) // 2, len(data) - 1):
        with pytest.raises(CorruptStreamError):
            decode_cloud(data[:cut])


def test_trailing_bytes_are_corrupt(cloud):
    data, _ = encode_cloud(cloud, CoordinateSystem.CYLINDRICAL, 6, qstep=8.0)
    with pytest.raises(CorruptStreamError, match="trailing"):
        decode_cloud(data + b"\x00")


def test_coefficient_count_cross_checked(cloud):
    data, summary = encode_cloud(cloud, CoordinateSystem.CARTESIAN, 6, qstep=8.0)
    count_offset = HEADER_BYTES + 8 + summary.geometry_bytes + 8
    (count,) = struct.unpack_from("<Q", data, count_offset)
    patched = (
        data[:count_offset] + struct.pack("<Q", count + 1) + data[count_offset + 8:]
    )
    with pytest.raises(CorruptStreamError, match="count"):
        decode_cloud(patched)


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
