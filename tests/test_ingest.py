"""Frame loaders, the PLY writer and the synthetic sweep generator."""

import hashlib
import io
import math
import struct
import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

from cylpc import (
    InvalidInputError,
    MalformedFileError,
    PointCloud,
    SweepSpec,
    knn_mean_distance,
    load_kitti_bin,
    load_ply,
    synth_sweep,
    write_ply,
)
from cylpc.ingest import MAX_SWEEP_TESTS


# ------------------------------------------------------------------ kitti


def test_kitti_two_known_records(tmp_path):
    path = tmp_path / "frame.bin"
    records = [(1.0, 2.0, 3.0, 0.5), (-4.0, 5.0, -6.0, 1.0)]
    path.write_bytes(b"".join(struct.pack("<4f", *r) for r in records))
    pc = load_kitti_bin(path)
    assert len(pc) == 2
    np.testing.assert_allclose(pc.xyz, [[1, 2, 3], [-4, 5, -6]], rtol=1e-6)
    assert pc.attributes[0] == pytest.approx(128.0)  # round(0.5 * 255)
    assert pc.attributes[1] == 255.0


def test_kitti_reflectance_endpoints(tmp_path):
    path = tmp_path / "frame.bin"
    path.write_bytes(struct.pack("<4f", 0, 0, 1, 0.0) + struct.pack("<4f", 1, 1, 1, 1.0))
    pc = load_kitti_bin(path)
    assert pc.attributes.tolist() == [0.0, 255.0]


def test_kitti_bad_size(tmp_path):
    path = tmp_path / "frame.bin"
    path.write_bytes(b"\x00" * 23)
    with pytest.raises(MalformedFileError):
        load_kitti_bin(path)


def test_kitti_missing_file():
    with pytest.raises(OSError):
        load_kitti_bin("/nonexistent/frame.bin")


def test_kitti_drops_non_finite_with_warning(tmp_path):
    path = tmp_path / "frame.bin"
    good = struct.pack("<4f", 1, 2, 3, 0.2)
    bad = struct.pack("<4f", float("nan"), 0, 0, 0.5)
    path.write_bytes(good + bad + good)
    with pytest.warns(UserWarning, match="dropped 1"):
        pc = load_kitti_bin(path)
    assert len(pc) == 2


def test_kitti_signalling_nan_dropped_without_a_cast_warning(tmp_path):
    path = tmp_path / "frame.bin"
    snan = struct.pack("<I", 0x7F800001) + struct.pack("<3f", 0, 0, 0.5)
    path.write_bytes(struct.pack("<4f", 1, 2, 3, 0.2) + snan)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pc = load_kitti_bin(path)
    assert len(pc) == 1
    assert [type(w.message) for w in caught] == [UserWarning]


def test_kitti_random_fixture_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    n = 64
    rows = np.column_stack(
        [rng.uniform(-50, 50, (n, 3)), rng.uniform(0.0, 1.0, (n, 1))]
    ).astype("<f4")
    path = tmp_path / "frame.bin"
    path.write_bytes(rows.tobytes())
    pc = load_kitti_bin(path)
    assert len(pc) == n
    np.testing.assert_allclose(pc.xyz, rows[:, :3].astype(np.float64), rtol=1e-6)
    np.testing.assert_array_equal(
        pc.attributes, np.rint(rows[:, 3].astype(np.float64) * 255.0)
    )


# -------------------------------------------------------------------- ply


ASCII_PLY = """ply
format ascii 1.0
element vertex 3
property float x
property float y
property float z
property float intensity
end_header
1 2 3 10
4 5 6 20
7.5 -8 9 30
"""


def test_minimal_ascii_fixture(tmp_path):
    path = tmp_path / "cloud.ply"
    path.write_text(ASCII_PLY)
    pc = load_ply(path)
    np.testing.assert_allclose(pc.xyz, [[1, 2, 3], [4, 5, 6], [7.5, -8, 9]])
    np.testing.assert_allclose(pc.attributes, [10.0, 20.0, 30.0])  # already 8-bit scale


def test_binary_and_ascii_encodings_load_identically(tmp_path):
    xyz = np.array([[1.25, -2.5, 3.0], [0.0, 0.125, -7.75], [9.0, 9.0, 9.0]])
    attrs = np.array([0.0, 127.5, 255.0])
    pc = PointCloud(xyz, attrs)
    a_path = tmp_path / "a.ply"
    b_path = tmp_path / "b.ply"
    write_ply(a_path, pc, binary=False)
    write_ply(b_path, pc, binary=True)
    pa = load_ply(a_path)
    pb = load_ply(b_path)
    np.testing.assert_array_equal(pa.xyz, pb.xyz)
    np.testing.assert_array_equal(pa.attributes, pb.attributes)
    np.testing.assert_array_equal(pa.xyz, xyz)


def test_ply_without_intensity_names_property(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n1 2 3\n"
    )
    with pytest.raises(MalformedFileError, match="intensity"):
        load_ply(path)


def test_ply_big_endian_rejected(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_text("ply\nformat binary_big_endian 1.0\nend_header\n")
    with pytest.raises(MalformedFileError):
        load_ply(path)


def test_ply_header_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_text("ply\nformat ascii 1.0\nproperty float x\n")
    with pytest.raises(MalformedFileError, match=":3:"):
        load_ply(path)


@pytest.mark.parametrize("binary", [False, True])
def test_ply_duplicate_property_rejected(tmp_path, binary):
    path = tmp_path / "dup.ply"
    write_ply(path, PointCloud(np.zeros((2, 3)), np.zeros(2)), binary=binary)
    data = path.read_bytes()
    end = data.index(b"end_header\n")
    path.write_bytes(data[:end] + b"property double x\n" + data[end:])
    with pytest.raises(MalformedFileError, match=":8: duplicate property 'x'"):
        load_ply(path)


def test_ply_ascii_non_numeric_value_rejected(tmp_path):
    path = tmp_path / "bad.ply"
    write_ply(path, PointCloud(np.ones((3, 3)), np.ones(3)))
    path.write_bytes(path.read_bytes()[:-2] + b"x\n")  # last value "x"
    with pytest.raises(MalformedFileError, match="vertex row 2 holds a value that is not a"):
        load_ply(path)


def test_ascii_vertex_count_checked_against_file_size(tmp_path):
    header = (
        "ply\nformat ascii 1.0\nelement vertex {}\nproperty float x\n"
        "property float y\nproperty float z\nproperty uchar intensity\nend_header\n"
    )
    path = tmp_path / "tight.ply"
    # the fewest bytes two rows can take: one-digit values, no final newline
    path.write_text(header.format(2) + "1 2 3 4\n5 6 7 8")
    assert len(load_ply(path)) == 2
    path.write_text(header.format(3) + "1 2 3 4\n5 6 7 8")
    with pytest.raises(MalformedFileError,
                       match="element 'vertex' declares 3 rows but only 15 bytes follow"):
        load_ply(path)


def test_ascii_vertices_that_end_early_are_named_like_any_element(tmp_path):
    # the bytes hold three rows of one-digit values, the lines only two
    path = tmp_path / "short.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\n"
        "property float z\nproperty float intensity\nend_header\n"
        "1.000000 2 3 4\n5 6 7 8.0000000\n"
    )
    with pytest.raises(MalformedFileError, match="element 'vertex' ends after 2 of 3 rows"):
        load_ply(path)


def _ply_with_face(fmt: str, faces: int) -> bytes:
    """A header with a one-property ``face`` element stored ahead of the vertices."""
    return (
        f"ply\nformat {fmt} 1.0\nelement face {faces}\nproperty uchar a\n"
        "element vertex 1\nproperty float x\nproperty float y\n"
        "property float z\nproperty float intensity\nend_header\n"
    ).encode()


def test_skipped_ascii_element_count_checked_against_file_size(tmp_path):
    path = tmp_path / "face.ply"
    body = b"7\n8\n1 2 3 4\n"  # 12 bytes: two face rows, one vertex row
    path.write_bytes(_ply_with_face("ascii", 2) + body)
    assert load_ply(path).xyz.tolist() == [[1.0, 2.0, 3.0]]
    # six one-value rows fit in 11 bytes, but the file holds three lines
    path.write_bytes(_ply_with_face("ascii", 6) + body)
    with pytest.raises(MalformedFileError, match="element 'face' ends after 3 of 6 rows"):
        load_ply(path)
    for count in (7, 3000000):
        path.write_bytes(_ply_with_face("ascii", count) + body)
        with pytest.raises(
            MalformedFileError,
            match=f"element 'face' declares {count} rows but only 12 bytes follow",
        ):
            load_ply(path)


def test_skipped_binary_element_count_checked_against_file_size(tmp_path):
    path = tmp_path / "face.ply"
    body = b"\x07\x08" + struct.pack("<4f", 1, 2, 3, 4)  # 18 bytes
    path.write_bytes(_ply_with_face("binary_little_endian", 2) + body)
    assert load_ply(path).xyz.tolist() == [[1.0, 2.0, 3.0]]
    path.write_bytes(_ply_with_face("binary_little_endian", 18) + body)
    with pytest.raises(MalformedFileError,
                       match="element 'vertex' declares 1 rows but only 0 bytes follow"):
        load_ply(path)
    for count in (19, 99999999999999999999):
        path.write_bytes(_ply_with_face("binary_little_endian", count) + body)
        with pytest.raises(
            MalformedFileError,
            match=f"element 'face' declares {count} rows but only 18 bytes follow",
        ):
            load_ply(path)


def test_ply_truncated_binary_rejected(tmp_path):
    path = tmp_path / "short.ply"
    header = (
        "ply\nformat binary_little_endian 1.0\nelement vertex {}\n"
        "property double x\nproperty double y\nproperty double z\n"
        "property double intensity\nend_header\n"
    )
    # a count whose size no file offset can hold is rejected the same way
    for count in (4, 99999999999999999999):
        path.write_bytes(header.format(count).encode() + b"\x00" * 40)
        with pytest.raises(
            MalformedFileError,
            match=f"element 'vertex' declares {count} rows but only 40 bytes follow",
        ):
            load_ply(path)


def test_elements_ahead_of_the_vertices_load_alike_in_ascii_and_binary(
        tmp_path, ply_with_leading_elements):
    # an element of no property is zero bytes wide in binary, however many
    # rows it declares, and numpy cannot count those rows from the bytes
    rng = np.random.default_rng(4)
    xyz = rng.integers(-4000, 4000, (20, 3)) / 64.0
    intensity = rng.integers(0, 256, 20)
    binary = ply_with_leading_elements(xyz, intensity, binary=True)
    clouds = []
    for data in (ply_with_leading_elements(xyz, intensity, binary=False), binary,
                 binary.replace(b"marker 2\n", b"marker 99999999999999999999\n")):
        path = tmp_path / "elements.ply"
        path.write_bytes(data)
        clouds.append(load_ply(path))
    for pc in clouds:
        np.testing.assert_array_equal(pc.xyz, xyz)
        np.testing.assert_array_equal(pc.attributes, intensity)


def test_binary_ply_signalling_nan_dropped_without_a_cast_warning(tmp_path):
    # the float32-to-float64 cast of its columns once warned as well
    path = tmp_path / "snan.ply"
    header = (
        "ply\nformat binary_little_endian 1.0\nelement vertex 2\nproperty float x\n"
        "property float y\nproperty float z\nproperty float intensity\nend_header\n"
    )
    snan = struct.pack("<I", 0x7F800001) + struct.pack("<3f", 0, 0, 5)
    path.write_bytes(header.encode() + struct.pack("<4f", 1, 2, 3, 4) + snan)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pc = load_ply(path)
    assert pc.xyz.tolist() == [[1.0, 2.0, 3.0]]
    assert [type(w.message) for w in caught] == [UserWarning]


def test_ply_normalized_intensity_scales_to_255(tmp_path):
    path = tmp_path / "norm.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property float intensity\nend_header\n0 0 0 0.2\n1 1 1 1.0\n"
    )
    pc = load_ply(path)
    np.testing.assert_allclose(pc.attributes, [51.0, 255.0])


def test_ply_wide_intensity_rescales_to_255(tmp_path):
    path = tmp_path / "wide.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property float intensity\nend_header\n0 0 0 -100\n1 1 1 400\n2 2 2 150\n"
    )
    pc = load_ply(path)
    assert pc.attributes[0] == 0.0
    assert pc.attributes[1] == 255.0
    assert pc.attributes[2] == pytest.approx(255.0 * 250.0 / 500.0)


def test_ply_uchar_intensity_kept_verbatim(tmp_path):
    path = tmp_path / "uchar.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar intensity\nend_header\n0 0 0 0\n1 1 1 1\n"
    )
    pc = load_ply(path)
    np.testing.assert_array_equal(pc.attributes, [0.0, 1.0])


def test_write_ply_is_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    pc = PointCloud(rng.normal(0, 10, (50, 3)), rng.uniform(0, 255, 50))
    p1, p2 = tmp_path / "one.ply", tmp_path / "two.ply"
    write_ply(p1, pc)
    write_ply(p2, pc)
    assert p1.read_bytes() == p2.read_bytes()


def test_ascii_ply_round_trips_float64_exactly(tmp_path):
    rng = np.random.default_rng(2)
    pc = PointCloud(rng.normal(0, 10, (100, 3)), rng.uniform(0, 255, 100))
    path = tmp_path / "exact.ply"
    write_ply(path, pc)
    back = load_ply(path)
    np.testing.assert_array_equal(back.xyz, pc.xyz)
    np.testing.assert_array_equal(back.attributes, pc.attributes)


def test_ascii_ply_body_is_savetxts_bytes(tmp_path):
    # more rows than one formatting block, with the values whose %.17g
    # spelling is easiest to get wrong on both sides of the block edge
    rng = np.random.default_rng(3)
    n = (1 << 16) + 5
    xyz = rng.normal(0, 10, (n, 3))
    attrs = rng.uniform(0, 255, n)
    special = [-0.0, 5e-324, 1.7976931348623157e308, 1e16, 0.1]
    for row in (0, (1 << 16) - 1, 1 << 16, n - 1):
        xyz[row] = special[:3] if row % 2 else special[2:]
        attrs[row] = special[row % 2]
    pc = PointCloud(xyz, attrs)
    path = tmp_path / "big.ply"
    write_ply(path, pc)
    expected = io.BytesIO()
    np.savetxt(expected, np.column_stack([pc.xyz, pc.attributes]), fmt="%.17g")
    body = path.read_bytes().split(b"end_header\n", 1)[1]
    assert body == expected.getvalue()
    assert b"\n-0 4.9406564584124654e-324 1.7976931348623157e+308 4.94" in body


# ------------------------------------------------------------ synth sweep


def test_horizontal_beam_at_ground_level_yields_no_returns():
    spec = SweepSpec(
        beam_count=1,
        elevation_range=(0.0, 0.0),
        sensor_height=0.0,
        box_count=0,
        noise_sigma=0.0,
    )
    assert len(synth_sweep(spec, seed=0)) == 0


def test_ring_radius_closed_form():
    elevation = -0.1
    spec = SweepSpec(
        beam_count=1,
        elevation_range=(elevation, elevation),
        azimuth_step=2.0 * math.pi / 64.0,
        max_range=200.0,
        sensor_height=1.8,
        noise_sigma=0.0,
        box_count=0,
    )
    pc = synth_sweep(spec, seed=0)
    assert len(pc) == 64
    r = np.hypot(pc.xyz[:, 0], pc.xyz[:, 1])
    expected = 1.8 / math.tan(abs(elevation))
    np.testing.assert_allclose(r, expected, rtol=1e-9)
    np.testing.assert_allclose(pc.xyz[:, 2], 0.0, atol=1e-9)


def test_same_seed_byte_identical_different_seed_differs():
    a = synth_sweep(SweepSpec(), seed=11)
    b = synth_sweep(SweepSpec(), seed=11)
    c = synth_sweep(SweepSpec(), seed=12)
    assert a.xyz.tobytes() == b.xyz.tobytes()
    assert a.attributes.tobytes() == b.attributes.tobytes()
    assert a.xyz.tobytes() != c.xyz.tobytes()


# sha256 of xyz.tobytes() + attributes.tobytes(): one case per branch of
# synth_sweep (two pillars and a car, a checker, no scene and no noise, a
# pillar alone, a single beam, pillars and cars by turns). They pin what
# numpy's Generator and the platform's libm produce, as the golden streams
# pin zlib.
SYNTH_SHA256 = [
    ({}, 7, "c2f2854a3dea91d6f17ab93709be2e3ecf65c0504f989feb1185e676dc9753e3"),
    ({"intensity_model": "checker"}, 3,
     "06f7ef2ff84c427e4e45a1fbac31fee05e637425cbb40537db5e6e580aaabca2"),
    ({"intensity_model": "constant", "box_count": 0, "noise_sigma": 0.0}, 5,
     "3bc116107ed439b516d1e83694c59ed12c7d50ddd543fed52866bc21ab2c7953"),
    ({"box_count": 1}, 2, "088a5602c1bc072ab055cdb327e12ec43f6e4a93b2a6f33bfb28432896c317d4"),
    ({"beam_count": 1}, 4, "13ba033a854a478cc57ad1167a17faaf2a65c509405fbfcd574e73aadb601aec"),
    ({"box_count": 7}, 9, "d2a736629d51bbb08a04a757740ffe7d82f4ce446027b0c39611ffe63beabe7c"),
]


@pytest.mark.parametrize(
    "fields,seed,digest",
    SYNTH_SHA256,
    ids=["default", "checker", "bare-constant", "one-pillar", "one-beam", "seven-boxes"],
)
def test_synth_frames_are_pinned(fields, seed, digest):
    pc = synth_sweep(SweepSpec(**fields), seed=seed)
    assert hashlib.sha256(pc.xyz.tobytes() + pc.attributes.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("field", ["noise_sigma", "max_range", "sensor_height"])
def test_extreme_finite_spec_warns_nothing(field):
    # inf - inf and overflowing quotients stay inside the ray block; the
    # suite's filter turns any RuntimeWarning into a failure
    pc = synth_sweep(SweepSpec(**{field: 1e308}), seed=0)
    assert np.isfinite(pc.xyz).all()


def test_default_spec_density_decays_with_radius():
    pc = synth_sweep(SweepSpec(), seed=0)
    knn = knn_mean_distance(pc, 5)
    rho = spearmanr(knn[:, 0], knn[:, 1]).statistic
    assert rho > 0.9


def test_intensity_models():
    for model in ("constant", "range-decay", "checker"):
        pc = synth_sweep(SweepSpec(intensity_model=model, beam_count=8,
                                   azimuth_step=2 * math.pi / 64), seed=3)
        assert (pc.attributes >= 0.0).all() and (pc.attributes <= 255.0).all()
        if model == "constant":
            assert np.unique(pc.attributes).size == 1
        elif model == "checker":
            assert set(np.unique(pc.attributes)) <= {0.0, 255.0}
        else:
            assert np.unique(pc.attributes).size > 10


def test_range_decay_follows_distance():
    spec = SweepSpec(noise_sigma=0.0, box_count=0)
    pc = synth_sweep(spec, seed=0)
    t = np.linalg.norm(pc.xyz - np.array([0.0, 0.0, spec.sensor_height]), axis=1)
    np.testing.assert_allclose(pc.attributes, 255.0 * np.exp(-t / 50.0), rtol=1e-12)


def test_spec_validation():
    with pytest.raises(InvalidInputError):
        SweepSpec(beam_count=0)
    with pytest.raises(InvalidInputError):
        SweepSpec(azimuth_step=0.0)
    with pytest.raises(InvalidInputError):
        SweepSpec(intensity_model="plasma")
    with pytest.raises(InvalidInputError):
        SweepSpec(box_count=-1)
    for sigma in (float("nan"), float("inf"), -0.1):
        with pytest.raises(InvalidInputError, match="noise_sigma must be a finite number >= 0"):
            SweepSpec(noise_sigma=sigma)


@pytest.mark.parametrize(
    "field,value",
    [
        ("max_range", math.inf),
        ("max_range", math.nan),
        ("sensor_height", math.nan),
        ("sensor_height", -math.inf),
        ("azimuth_step", math.inf),
        ("azimuth_step", math.nan),
        ("elevation_range", (math.nan, 0.0)),
        ("elevation_range", (-0.1, math.inf)),
    ],
)
def test_spec_rejects_non_finite_fields(field, value):
    with pytest.raises(InvalidInputError, match=f"{field} must be finite"):
        SweepSpec(**{field: value})


@pytest.mark.parametrize(
    "field,value",
    [
        ("elevation_range", (-0.1,)),
        ("elevation_range", (-0.1, 0.0, 0.1)),
        ("elevation_range", -0.1),
        ("beam_count", 2.5),
        ("beam_count", 2.0),
        ("box_count", 2.0),
        ("box_count", "3"),
    ],
)
def test_spec_rejects_misshapen_fields(field, value):
    with pytest.raises(InvalidInputError, match=field):
        SweepSpec(**{field: value})


def test_spec_size_bound_edge():
    # pi/512 steps give exactly 1024 azimuths; 3 boxes plus the ground are
    # 4 surfaces, so 4096 beams make exactly MAX_SWEEP_TESTS ray tests
    assert MAX_SWEEP_TESTS == 4096 * 1024 * 4
    SweepSpec(beam_count=4096, azimuth_step=math.pi / 512)
    with pytest.raises(InvalidInputError, match="exceeds 16777216 ray tests"):
        SweepSpec(beam_count=4097, azimuth_step=math.pi / 512)
    with pytest.raises(InvalidInputError, match="x 5 surfaces exceeds"):
        SweepSpec(beam_count=4096, azimuth_step=math.pi / 512, box_count=4)
    with pytest.raises(InvalidInputError, match="x inf azimuths"):
        SweepSpec(azimuth_step=5e-324)
