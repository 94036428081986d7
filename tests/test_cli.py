"""End-to-end CLI behavior: commands, formats, exit codes, determinism."""

import argparse
import hashlib
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cylpc
from cylpc import (
    CoordinateSystem,
    PointCloud,
    decode_cloud,
    encode_cloud,
    load_ply,
    make_config,
    psnr_attribute,
    write_ply,
)
from cylpc.bitstream import HEADER_BYTES, Encoder, pack_stream
from cylpc.coeff_codec import QSTEP_MIN
from cylpc.cli import DEFAULT_DEPTH, build_parser, main
from cylpc.ingest import INTENSITY_MODELS
from cylpc.voxelizer import assign_codes, voxelize


def run(*argv):
    return main([str(a) for a in argv])


def parse_kv(capsys):
    out = capsys.readouterr().out
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


@pytest.fixture(scope="module")
def small_ply(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sweep.ply"
    assert main(["synth", "--seed", "9", "--beams", "8", "--out", str(path)]) == 0
    return path


def test_synth_writes_loadable_ply(small_ply, capsys):
    pc = load_ply(small_ply)
    assert len(pc) > 1000


def test_exit_code_2_on_oversized_synth_without_allocating(tmp_path, capsys):
    # 5.1e11 ray tests: the spec must refuse them before numpy is asked
    # for terabytes of arrays
    tracemalloc.start()
    try:
        code = run("synth", "--beams", "100000000", "--out", tmp_path / "x.ply")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20, f"peak {peak} bytes"
    assert capsys.readouterr().err.startswith("error: sweep of 100000000 beams x 1280")
    assert not (tmp_path / "x.ply").exists()


def test_exit_code_2_on_nan_noise_sigma(tmp_path, capsys):
    # NaN noise would drop every return and blame the sweep for having none
    assert run("synth", "--noise-sigma", "nan", "--out", tmp_path / "x.ply") == 2
    assert capsys.readouterr().err == "error: noise_sigma must be a finite number >= 0, got nan\n"
    assert not (tmp_path / "x.ply").exists()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exit_code_2_on_synth_without_returns(tmp_path, capsys, seed):
    # range noise of sigma 1e9 m puts every return of the one beam out of range
    code = run("synth", "--seed", seed, "--beams", "1", "--boxes", "0",
               "--noise-sigma", "1e9", "--out", tmp_path / "x.ply")
    assert code == 2
    assert capsys.readouterr().err == "error: synthetic sweep produced no returns\n"
    assert not (tmp_path / "x.ply").exists()


def test_synth_with_extreme_noise_prints_no_warning(tmp_path, capsys):
    # noise of sigma 1e308 overflows every range to +-inf
    assert run("synth", "--noise-sigma", "1e308", "--out", tmp_path / "x.ply") == 2
    err = capsys.readouterr().err
    assert "Warning" not in err
    assert err == "error: synthetic sweep produced no returns\n"


def test_synth_intensity_choices_are_the_sweep_models():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    (intensity,) = [a for a in sub.choices["synth"]._actions if a.dest == "intensity"]
    assert tuple(intensity.choices) == INTENSITY_MODELS


def test_encode_decode_chain(tmp_path, small_ply, capsys):
    stream = tmp_path / "out.cyl"
    code = run("encode", small_ply, "--coords", "cylindrical", "--depth", "9",
               "--qstep", "4", "--log-radial", "--out", stream)
    assert code == 0
    kv = parse_kv(capsys)
    assert kv["coords"] == "cylindrical"
    assert kv["depth"] == "9"
    assert float(kv["geometry_bpp"]) > 0
    assert float(kv["attribute_bpp"]) > 0
    # sections plus header add up to the file
    total = float(kv["total_bpp"]) * int(kv["points"]) / 8.0
    assert round(total) == stream.stat().st_size

    out_ply = tmp_path / "decoded.ply"
    assert run("decode", stream, "--out", out_ply) == 0
    kv = parse_kv(capsys)
    assert kv["coords"] == "cylindrical"
    decoded_file = load_ply(out_ply)
    decoded_mem = decode_cloud(stream.read_bytes())
    np.testing.assert_array_equal(decoded_file.xyz, decoded_mem.cloud.xyz)
    np.testing.assert_array_equal(decoded_file.attributes, decoded_mem.cloud.attributes)


def test_encode_depth_defaults_per_system(tmp_path, small_ply, capsys):
    out = tmp_path / "s.cyl"
    run("encode", small_ply, "--coords", "cylindrical", "--out", out)
    assert parse_kv(capsys)["depth"] == "13"
    run("encode", small_ply, "--coords", "cartesian", "--out", out)
    assert parse_kv(capsys)["depth"] == "16"


def test_encode_is_byte_deterministic(tmp_path, small_ply, capsys):
    a = tmp_path / "a.cyl"
    b = tmp_path / "b.cyl"
    run("encode", small_ply, "--depth", "8", "--out", a)
    run("encode", small_ply, "--depth", "8", "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_rd_sweep_csv(tmp_path, small_ply, capsys):
    csv_path = tmp_path / "curve.csv"
    code = run("rd-sweep", small_ply, "--depth", "9", "--qsteps", "64,16,4,1",
               "--csv", csv_path)
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# geometry_bpp=")
    assert lines[1] == "bpp,psnr_db"
    bpp, psnr = np.loadtxt(csv_path, delimiter=",", skiprows=2, unpack=True)
    assert len(bpp) == 4
    assert (np.diff(bpp) > 0).all()
    assert (np.diff(psnr) >= 0).all()
    # identical invocation gives identical bytes
    csv2 = tmp_path / "curve2.csv"
    run("rd-sweep", small_ply, "--depth", "9", "--qsteps", "64,16,4,1", "--csv", csv2)
    assert csv2.read_bytes() == csv_path.read_bytes()


def _rd_sweep_csv(tmp_path, small_ply, capsys):
    """The CSV lines and the printed key=value pairs of one rd-sweep."""
    csv_path = tmp_path / "curve.csv"
    assert run("rd-sweep", small_ply, "--depth", "9", "--qsteps", "64,16,4,1",
               "--csv", csv_path) == 0
    return csv_path.read_text().splitlines(), parse_kv(capsys)


def test_rd_sweep_csv_comment_is_the_printed_geometry_bpp(tmp_path, small_ply, capsys):
    lines, kv = _rd_sweep_csv(tmp_path, small_ply, capsys)
    assert lines[0] == f"# geometry_bpp={kv['geometry_bpp']}"
    assert lines[1] == "bpp,psnr_db"


def test_rd_sweep_csv_rows_are_the_printed_rates(tmp_path, small_ply, capsys):
    # each row holds the rate point rd-sweep prints, to 6 significant digits
    lines, kv = _rd_sweep_csv(tmp_path, small_ply, capsys)
    assert lines[2:] == [f"{kv[f'qstep_{q}_bpp']},{kv[f'qstep_{q}_psnr_db']}"
                         for q in (64, 16, 4, 1)]
    assert all(f"{float(value):.6g}" == value for line in lines[2:] for value in line.split(","))


@pytest.mark.parametrize(
    "system,depth,log_radial",
    [
        (CoordinateSystem.CARTESIAN, 10, False),
        (CoordinateSystem.CYLINDRICAL, 9, False),
        (CoordinateSystem.CYLINDRICAL, 9, True),
    ],
    ids=["cart-d10", "cyl-d9", "cyl-log-d9"],
)
def test_rd_sweep_reports_what_encode_writes(tmp_path, small_ply, capsys, system, depth,
                                             log_radial):
    # rd-sweep and encode share one encoder: same rates, and the sweep's
    # PSNR is that of the decoded container mapped back to the points
    qsteps = (64, 16, 4, 1)
    grid = ("--coords", system.value, "--depth", depth) + (
        ("--log-radial",) if log_radial else ()
    )
    assert run("rd-sweep", small_ply, *grid, "--qsteps", ",".join(map(str, qsteps)),
               "--csv", tmp_path / "curve.csv") == 0
    sweep = parse_kv(capsys)
    pc = load_ply(small_ply)
    cfg = make_config(pc, system, depth, log_radial=log_radial)
    points = assign_codes(pc, cfg)
    for qstep in qsteps:
        stream = tmp_path / f"q{qstep}.cyl"
        assert run("encode", small_ply, *grid, "--qstep", qstep, "--out", stream) == 0
        encoded = parse_kv(capsys)
        assert sweep["geometry_bpp"] == encoded["geometry_bpp"]
        assert sweep[f"qstep_{qstep}_bpp"] == encoded["attribute_bpp"]
        decoded = decode_cloud(stream.read_bytes())
        slot = np.searchsorted(decoded.codes, points)
        psnr = psnr_attribute(pc.attributes, decoded.leaf_attributes[slot])
        assert sweep[f"qstep_{qstep}_psnr_db"] == f"{psnr:.6g}"


def test_rd_sweep_needs_four_qsteps(tmp_path, small_ply, capsys):
    assert run("rd-sweep", small_ply, "--qsteps", "8,4", "--csv", tmp_path / "x.csv") == 2
    capsys.readouterr()
    # a repeated qstep adds no point to the curve
    assert run("rd-sweep", small_ply, "--qsteps", "4,4,4,4", "--csv", tmp_path / "x.csv") == 2
    assert capsys.readouterr().err.startswith("error: qstep 4 appears more than once")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["rd-sweep", "compare"])
def test_qsteps_that_print_alike_are_rejected(tmp_path, small_ply, capsys, command):
    # 4 and 4.0000001 both print as qstep_4_* keys and CSV rows "4"
    args = ["--depth-cart", "8", "--depth-cyl", "7"] if command == "compare" else []
    code = run(command, small_ply, *args, "--qsteps", "4,4.0000001,2,1",
               "--csv", tmp_path / "x.csv")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: qstep 4 appears more than once")
    assert not (tmp_path / "x.csv").exists()


_GRID_COMMANDS = {
    "encode": ["--out", "x.cyl"],
    "rd-sweep": ["--qsteps", "16,8,4,2", "--csv", "x.csv"],
    "compare": ["--depth-cart", "10", "--depth-cyl", "9", "--qsteps", "64,16,4,1",
                "--csv", "x.csv", "--report", "x.txt"],
    "analyze": ["--depth", "6", "--out-prefix", "x"],
}


@pytest.mark.parametrize("command", sorted(_GRID_COMMANDS))
def test_r_min_needs_log_radial(tmp_path, small_ply, capsys, monkeypatch, command):
    # --r-min on any other grid was once ignored without a word
    monkeypatch.chdir(tmp_path)
    args = _GRID_COMMANDS[command]
    assert run(command, small_ply, "--r-min", "5", *args) == 2
    assert capsys.readouterr().err == (
        "error: --r-min shapes only log-radial grids; add --log-radial\n"
    )
    assert not any(tmp_path.iterdir())
    assert run(command, small_ply, "--log-radial", "--r-min", "0.5", *args) == 0
    assert any(tmp_path.iterdir())


def test_compare_report(tmp_path, small_ply, capsys):
    report = tmp_path / "report.txt"
    csv_path = tmp_path / "curves.csv"
    code = run("compare", small_ply, "--depth-cart", "10", "--depth-cyl", "9",
               "--log-radial", "--qsteps", "64,16,4,1",
               "--report", report, "--csv", csv_path)
    assert code == 0
    kv = parse_kv(capsys)
    assert "bd_delta_psnr_db" in kv and "bd_delta_rate_percent" in kv
    assert float(kv["cartesian_geometry_bpp"]) > 0
    assert float(kv["cylindrical_geometry_bpp"]) > 0
    text = report.read_text()
    assert "bd_delta_rate_percent=" in text
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "system,qstep,bpp,psnr_db"
    assert sum(r.startswith("cartesian,") for r in rows) == 4
    assert sum(r.startswith("cylindrical,") for r in rows) == 4


def test_compare_writes_its_files_before_it_prints(tmp_path, small_ply, capsys):
    # an unwritable --csv once exited 3 after the report was printed and written
    report = tmp_path / "report.txt"
    assert run("compare", small_ply, "--depth-cart", "10", "--depth-cyl", "9",
               "--qsteps", "64,16,4,1", "--report", report,
               "--csv", tmp_path / "missing" / "curves.csv") == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not report.exists()


def test_encode_prints_the_raw_and_the_coded_geometry_rate(tmp_path, small_ply, capsys):
    stream = tmp_path / "out.cyl"
    assert run("encode", small_ply, "--coords", "cylindrical", "--depth", "9",
               "--log-radial", "--out", stream) == 0
    kv = parse_kv(capsys)
    pc = load_ply(small_ply)
    _, summary = encode_cloud(pc, CoordinateSystem.CYLINDRICAL, 9, qstep=4.0, log_radial=True)
    assert kv["geometry_raw_bpp"] == f"{summary.geometry_raw_bpp:.6g}"
    assert kv["geometry_bpp"] == f"{summary.geometry_bpp:.6g}"
    # the deflated section is below the raw occupancy bytes
    assert summary.geometry_bytes < summary.geometry_raw_bytes


def test_compare_matches_golden_bytes(tmp_path, small_ply, capsys):
    csv_path = tmp_path / "curves.csv"
    code = run("compare", small_ply, "--depth-cart", "10", "--depth-cyl", "9",
               "--log-radial", "--qsteps", "64,16,4,1", "--csv", csv_path)
    assert code == 0
    out = capsys.readouterr().out.splitlines(keepends=True)
    report = "".join(line for line in out if not line.startswith("input="))
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "94de441d7378770c69fe2cdefd4e09bd00f3a53c8089c145522662b5f0c7755b"
    )
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
        "1fd7e38f7e8354c6dd0ec98efc5db6d7fe67ce702204cf3d3fabfadb35fc8224"
    )


def test_compare_attribute_bd_does_not_depend_on_a_cartesian_depth_of_one_point_per_voxel(
        small_ply, capsys):
    # once every voxel holds one point, a deeper Cartesian grid only adds
    # one-child octree levels, which code no coefficient: the attribute
    # curve and its Bjontegaard deltas stay the same. At depth 10 voxels
    # still merge points, and the deltas differ
    pc = load_ply(small_ply)
    bd = {}
    for depth in (10, 11, 16):
        voxels = voxelize(pc, make_config(pc, CoordinateSystem.CARTESIAN, depth))
        assert (len(voxels) == len(pc)) == (depth > 10)
        assert run("compare", small_ply, "--depth-cart", depth, "--depth-cyl", "9",
                   "--log-radial", "--qsteps", "64,16,4,1") == 0
        kv = parse_kv(capsys)
        bd[depth] = kv["bd_delta_rate_percent"], kv["bd_delta_psnr_db"]
    assert bd[11] == bd[16] != bd[10]


def test_compare_rejects_diverging_bjontegaard_fits(tmp_path, capsys):
    # at depth 1 on an 8-beam sweep the cubic fits diverge: compare printed
    # bd_delta_rate_percent=inf and exited 0 after a numpy overflow warning
    ply = tmp_path / "t.ply"
    assert run("synth", "--seed", "1", "--beams", "8", "--binary", "--out", ply) == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        code = run("compare", ply, "--depth-cart", "1", "--depth-cyl", "1")
    assert code == 2
    out, err = capsys.readouterr()
    assert "bd_delta" not in out
    assert err == ("error: Bjontegaard delta_rate_percent is inf: the cubic fits"
                   " diverge\n")
    assert [w.category for w in record] == [UserWarning]
    assert "PSNR decreases" in str(record[0].message)
    assert record[0].filename == cylpc.cli.__file__  # the caller, not "<string>"


def test_compare_depths_default_to_the_encoder_defaults():
    args = build_parser().parse_args(["compare", "x.ply"])
    assert args.depth_cart == DEFAULT_DEPTH[CoordinateSystem.CARTESIAN] == 16
    assert args.depth_cyl == DEFAULT_DEPTH[CoordinateSystem.CYLINDRICAL] == 13


def test_compare_names_the_qsteps_that_collapse_to_one_rate(tmp_path, small_ply, capsys):
    # qsteps 4 and 4.001 code to one attribute bpp on both grids; the error
    # once read "an RD curve needs >= 4 points, got 3" and named neither
    args = ["--depth-cart", "10", "--depth-cyl", "9", "--log-radial"]
    assert run("compare", small_ply, *args, "--qsteps", "64,4,4.001,1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cartesian RD curve: qsteps 4.001 and 4 share ")
    assert err.endswith(" bpp; 3 distinct rates remain, and a Bjontegaard fit needs >= 4\n")
    # with four rates left the fit runs on the point of better PSNR, 4.001's
    assert run("compare", small_ply, *args, "--qsteps", "64,16,4.001,4,1") == 0
    collapsed = parse_kv(capsys)
    assert run("compare", small_ply, *args, "--qsteps", "64,16,4.001,1") == 0
    assert parse_kv(capsys) == collapsed


def test_analyze_csv_formats(tmp_path, small_ply, capsys):
    prefix = tmp_path / "analysis"
    code = run("analyze", small_ply, "--depth", "6", "--out-prefix", prefix)
    assert code == 0
    knn_lines = (tmp_path / "analysis_knn.csv").read_text().splitlines()
    assert knn_lines[0] == "r,mean_knn_distance"
    assert len(knn_lines) > 1000
    occ_lines = (tmp_path / "analysis_occupancy.csv").read_text().splitlines()
    assert occ_lines[0] == "system,depth,voxels,mean_points"
    assert occ_lines[1].startswith("cartesian,6,")
    assert occ_lines[2].startswith("cylindrical,6,")


def test_analyze_counts_one_voxel_of_two_points(tmp_path, capsys):
    ply = tmp_path / "twin.ply"
    write_ply(ply, PointCloud(np.array([[1.0, 1.0, 1.0]] * 2), np.zeros(2)))
    assert run("analyze", ply, "--depth", "1", "--k", "1", "--out-prefix", tmp_path / "a") == 0
    out = parse_kv(capsys)
    for name in ("cartesian", "cylindrical"):
        assert (out[f"{name}_voxels"], out[f"{name}_mean_points"]) == ("1", "2")


@pytest.mark.parametrize("log_radial", [False, True])
def test_analyze_mean_points_is_points_per_occupied_voxel(tmp_path, capsys, log_radial):
    rng = np.random.default_rng(16)
    pc = PointCloud(rng.normal(0.0, 20.0, (400, 3)), rng.uniform(0.0, 255.0, 400))
    ply = tmp_path / "cloud.ply"
    write_ply(ply, pc, binary=True)
    flags = ["--log-radial"] if log_radial else []
    assert run("analyze", ply, "--depth", "3", *flags, "--out-prefix", tmp_path / "a") == 0
    out = parse_kv(capsys)
    for name, system, log in (
        ("cartesian", CoordinateSystem.CARTESIAN, False),
        ("cylindrical-log" if log_radial else "cylindrical", CoordinateSystem.CYLINDRICAL,
         log_radial),
    ):
        cfg = make_config(pc, system, 3, log_radial=log)
        count = len(np.unique(assign_codes(pc, cfg)))
        assert 1 < count < 400
        assert out[f"{name}_voxels"] == str(count)
        assert out[f"{name}_mean_points"] == f"{400 / count:.6g}"


@pytest.mark.parametrize("grid", [["--depth", "22"], ["--log-radial", "--r-min", "1e6"]])
def test_analyze_leaves_no_partial_output(tmp_path, small_ply, capsys, grid):
    # a grid analyze cannot build once exited 2 after the k-nearest-neighbour
    # query had written its CSV
    assert run("analyze", small_ply, *grid, "--out-prefix", tmp_path / "p") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("p*"))


def test_only_analyze_needs_scipy(tmp_path, capsys, monkeypatch):
    # the codec installs with numpy alone: with scipy.spatial unimportable,
    # every other command writes and prints the bytes it does with scipy,
    # and analyze exits 2 naming the package, with no CSV written
    commands = [
        ["synth", "--seed", "3", "--beams", "8", "--out", "s.ply"],
        ["encode", "s.ply", "--depth", "9", "--out", "s.cyl"],
        ["decode", "s.cyl", "--out", "d.ply"],
        ["rd-sweep", "s.ply", "--depth", "9", "--qsteps", "64,16,4,1", "--csv", "rd.csv"],
        ["compare", "s.ply", "--depth-cart", "10", "--depth-cyl", "9",
         "--qsteps", "64,16,4,1", "--csv", "cmp.csv", "--report", "cmp.txt"],
    ]
    outputs = []
    for blocked in (False, True):
        cwd = tmp_path / f"blocked-{blocked}"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        if blocked:
            monkeypatch.setitem(sys.modules, "scipy.spatial", None)
        for argv in commands:
            assert run(*argv) == 0, argv
        files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
        outputs.append((capsys.readouterr(), files))
    assert outputs[1] == outputs[0]
    assert run("analyze", "s.ply", "--depth", "6", "--out-prefix", "a") == 2
    assert capsys.readouterr().err == (
        "error: k-nearest-neighbour distances need scipy: pip install scipy\n")
    assert not list(cwd.glob("a_*"))


def test_exit_code_3_on_missing_or_malformed_input(tmp_path, capsys):
    assert run("encode", tmp_path / "missing.ply", "--out", tmp_path / "x.cyl") == 3
    bad = tmp_path / "bad.ply"
    bad.write_text("not a ply\n")
    assert run("encode", bad, "--out", tmp_path / "x.cyl") == 3
    weird = tmp_path / "frame.xyz"
    weird.write_text("1 2 3\n")
    assert run("encode", weird, "--out", tmp_path / "x.cyl") == 3


def test_exit_code_4_on_corrupt_bitstream(tmp_path, small_ply, capsys):
    stream = tmp_path / "ok.cyl"
    run("encode", small_ply, "--depth", "8", "--out", stream)
    data = bytearray(stream.read_bytes())
    data[0] ^= 0xFF
    bad = tmp_path / "bad.cyl"
    bad.write_bytes(bytes(data))
    assert run("decode", bad, "--out", tmp_path / "out.ply") == 4
    truncated = tmp_path / "short.cyl"
    truncated.write_bytes(stream.read_bytes()[:40])
    assert run("decode", truncated, "--out", tmp_path / "out.ply") == 4


@pytest.mark.parametrize(
    "offset,field,message",
    [
        (9, b"\x01", "log-radial flag on a Cartesian stream"),  # flags
        (58, struct.pack("<Q", 1), "point count 1 is below the"),  # point count
        (10, struct.pack("<d", float("nan")), "invalid grid in header"),  # origin x
        (50, struct.pack("<d", 0.0), "invalid grid in header"),  # extent on z
    ],
)
def test_exit_code_4_on_inconsistent_header(tmp_path, small_ply, capsys, offset, field,
                                            message):
    # the first two once decoded: as plain Cartesian, and with
    # source_points=1
    stream = tmp_path / "ok.cyl"
    run("encode", small_ply, "--coords", "cartesian", "--depth", "8", "--out", stream)
    data = stream.read_bytes()
    bad = tmp_path / "bad.cyl"
    bad.write_bytes(data[:offset] + field + data[offset + len(field):])
    capsys.readouterr()
    assert run("decode", bad, "--out", tmp_path / "out.ply") == 4
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.ply").exists()


@pytest.mark.parametrize(
    "values,qstep,message",
    [
        # such values once decoded into object arrays: at qstep 4 the stream
        # "decoded", at 1e300 it exited 2 after numpy overflow warnings
        ([2**250, -(2**200)], 4.0, "escaped value beyond the int64 range"),
        ([2**250, -(2**200)], 1e300, "escaped value beyond the int64 range"),
        # int64 coefficients times a finite qstep can still overflow float64
        ([2**62, -(2**62)], 1e300, "non-finite attributes"),
    ],
)
def test_exit_code_4_on_corrupt_attribute_section(
    tmp_path, small_ply, capsys, reference_rlgr_encode, values, qstep, message
):
    pc = load_ply(small_ply)
    encoder = Encoder(pc, make_config(pc, CoordinateSystem.CYLINDRICAL, 8))
    payload = reference_rlgr_encode(values + [0] * (len(encoder.voxels) - 2))
    bad = tmp_path / "bad.cyl"
    bad.write_bytes(pack_stream(
        encoder.voxels.config, encoder.voxels.n_points, qstep, encoder.geometry, payload
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("decode", bad, "--out", tmp_path / "out.ply")
    assert code == 4
    err = capsys.readouterr().err
    start = HEADER_BYTES + len(encoder.geometry)
    assert err.startswith(
        f"error: corrupt bitstream: attribute section (payload from byte {start}): ")
    assert message in err
    assert not (tmp_path / "out.ply").exists()


def test_exit_code_2_on_bad_parameters(tmp_path, small_ply, capsys):
    assert run("encode", small_ply, "--qstep", "-3", "--out", tmp_path / "x.cyl") == 2
    assert run("encode", small_ply, "--coords", "cylindrical", "--log-radial",
               "--r-min", "1e9", "--out", tmp_path / "x.cyl") == 2
    assert run("rd-sweep", small_ply, "--qsteps", "a,b,c,d",
               "--csv", tmp_path / "x.csv") == 2
    assert run("synth", "--seed", "-1", "--out", tmp_path / "x.ply") == 2
    assert not (tmp_path / "x.ply").exists()


@pytest.mark.parametrize(
    "xyz, coords",
    [
        ([[1e308, 0.0, 0.0], [-1e308, 0.0, 0.0]], ["cartesian"]),
        ([[0.0, 0.0, 0.0], [1.7e308, 1.7e308, 0.0]], ["cylindrical"]),
        ([[0.0, 0.0, 0.0], [1.7e308, 1.7e308, 0.0]], ["cylindrical", "--log-radial"]),
    ],
    ids=["cart", "cyl", "cyl-log"],
)
def test_exit_code_2_on_extent_that_overflows_float64(tmp_path, capsys, xyz, coords):
    ply = tmp_path / "huge.ply"
    write_ply(ply, PointCloud(np.array(xyz), np.zeros(2)), binary=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        code = run("encode", ply, "--coords", *coords, "--out", tmp_path / "x.cyl")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the cloud's padded ")
    assert err.endswith(" is inf: it overflows float64\n")
    assert "RuntimeWarning" not in err and "np.float64(" not in err
    assert not (tmp_path / "x.cyl").exists()


def test_exit_code_2_on_qstep_too_fine_for_int64(tmp_path, small_ply, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy cast warning either
        code = run("encode", small_ply, "--qstep", "1e-20", "--out", tmp_path / "x.cyl")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: qstep 1e-20 is too small")
    assert not (tmp_path / "x.cyl").exists()


def test_exit_code_2_just_below_qstep_floor(tmp_path, small_ply, capsys):
    below = float(np.nextafter(QSTEP_MIN, 0.0))
    assert run("encode", small_ply, "--qstep", repr(QSTEP_MIN), "--out", tmp_path / "x.cyl") == 0
    capsys.readouterr()
    assert run("encode", small_ply, "--qstep", repr(below), "--out", tmp_path / "y.cyl") == 2
    assert capsys.readouterr().err.startswith(f"error: qstep {below} is too small")
    assert not (tmp_path / "y.cyl").exists()
    assert run("rd-sweep", small_ply, "--qsteps", f"8,4,2,{below!r}",
               "--csv", tmp_path / "x.csv") == 2


PLY_TAIL = (
    "property float x\nproperty float y\nproperty float z\n"
    "property float intensity\nend_header\n1 2 3 4\n"
)


@pytest.mark.parametrize(
    "header,line,message",
    [
        ("ply\nformat ascii 1.0\nelement vertex abc\n", 3, "element count 'abc'"),
        ("ply\nformat\nelement vertex 1\n", 2, "format line names no format"),
        ("ply\nformat ascii 1.0\nelement vertex -5\n", 3, "element count '-5'"),
        ("ply\nformat ascii 1.0\nelement vertex 1\nproperty float\n", 4,
         "malformed property line"),
    ],
    ids=["count-abc", "bare-format", "count-negative", "short-property"],
)
def test_exit_code_3_on_malformed_ply_header(tmp_path, capsys, header, line, message):
    bad = tmp_path / "bad.ply"
    bad.write_text(header + PLY_TAIL)
    assert run("encode", bad, "--out", tmp_path / "x.cyl") == 3
    err = capsys.readouterr().err
    assert f"bad.ply:{line}: {message}" in err


def test_exit_code_3_on_vertex_count_beyond_ascii_file_size(tmp_path, capsys):
    bad = tmp_path / "huge.ply"
    bad.write_text("ply\nformat ascii 1.0\nelement vertex 100000000000000\n" + PLY_TAIL)
    assert run("encode", bad, "--out", tmp_path / "x.cyl") == 3
    assert ("element 'vertex' declares 100000000000000 rows but only 8 bytes follow"
            in capsys.readouterr().err)


@pytest.mark.parametrize("row,message", [
    ("hello", "note row 1 has 1 of 2 values"),
    ("1 x", "note row 1 holds a value that is not a number"),
    ("1 70000", "note row 1 holds 70000 in property 'b', which is not an integer in "
                "[-32768, 32767]"),
], ids=["short-row", "not-a-number", "out-of-range"])
def test_exit_code_3_on_malformed_row_ahead_of_the_vertices(tmp_path, capsys,
                                                            ply_with_leading_elements, row,
                                                            message):
    # the rows of an element ahead of the vertices were once skipped unread
    data = ply_with_leading_elements(np.ones((2, 3)), [1, 2], binary=False)
    bad = tmp_path / "bad.ply"
    bad.write_bytes(data.replace(b"\n0 12\n", f"\n{row}\n".encode()))
    assert run("encode", bad, "--out", tmp_path / "x.cyl") == 3
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not (tmp_path / "x.cyl").exists()


def test_a_library_warning_prints_as_one_line(tmp_path):
    # it once printed in Python's two-line format, with the source line of
    # the CLI that loaded the frame
    (tmp_path / "nan.ply").write_text(
        "ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\n"
        "property float z\nproperty float intensity\nend_header\n"
        "1 2 3 4\nnan 0 0 1\n5 6 7 8\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "cylpc.cli", "encode", "nan.ply", "--depth", "4",
         "--out", "nan.cyl"],
        cwd=tmp_path, env=_child_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == "warning: nan.ply: dropped 1 non-finite points\n"


@pytest.mark.parametrize("value", ["300", "7.5"])
def test_exit_code_3_on_ascii_value_outside_its_integer_type(tmp_path, capsys, value):
    bad = tmp_path / "bad.ply"
    bad.write_text(
        "ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\n"
        f"property float z\nproperty uchar intensity\nend_header\n"
        f"0 0 0 1\n1 1 1 {value}\n2 2 2 3\n"
    )
    assert run("encode", bad, "--out", tmp_path / "x.cyl") == 3
    err = capsys.readouterr().err
    assert f"bad.ply: vertex row 1 holds {value} in property 'intensity', which is not an" in err
    assert "[0, 255]" in err
    assert not (tmp_path / "x.cyl").exists()


@pytest.mark.parametrize(
    "fmt,count",
    [("ascii", "3000000"), ("binary_little_endian", "99999999999999999999")],
    ids=["ascii", "binary"],
)
def test_exit_code_3_on_skipped_element_count_beyond_file_size(tmp_path, capsys, fmt, count):
    bad = tmp_path / "face.ply"
    bad.write_bytes(
        f"ply\nformat {fmt} 1.0\nelement face {count}\nproperty float a\n"
        "element vertex 1\nproperty float x\nproperty float y\nproperty float z\n"
        "property float intensity\nend_header\n".encode()
        + (b"1 2 3 4\n" if fmt == "ascii" else bytes(16))
    )
    assert run("encode", bad, "--out", tmp_path / "x.cyl") == 3
    err = capsys.readouterr().err
    assert f"element 'face' declares {count} rows but only" in err
    assert not (tmp_path / "x.cyl").exists()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["encode"])  # missing required --out and input
    assert exc.value.code == 2


def _child_env():
    """The environment with the parent directory of the cylpc under test
    first on PYTHONPATH: the caller's PYTHONPATH may be relative to
    another cwd, or cylpc may not be installed at all."""
    env = dict(os.environ)
    root = str(Path(cylpc.__file__).resolve().parent.parent)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + os.pathsep + rest if rest else root
    return env


def test_decoder_runs_isolated_from_input(tmp_path, small_ply):
    # subprocess in an empty cwd with only the bitstream present
    stream = tmp_path / "only" / "frame.cyl"
    stream.parent.mkdir()
    assert run("encode", small_ply, "--depth", "8", "--out", stream) == 0
    cwd = stream.parent
    env = _child_env()
    assert sorted(os.listdir(cwd)) == ["frame.cyl"]

    # the child must run the cylpc under test, not some other install
    probe = subprocess.run(
        [sys.executable, "-c", "import cylpc; print(cylpc.__file__)"],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    assert probe.returncode == 0, probe.stderr
    assert Path(probe.stdout.strip()).resolve() == Path(cylpc.__file__).resolve()

    proc = subprocess.run(
        [sys.executable, "-m", "cylpc.cli", "decode", "frame.cyl", "--out", "out.ply"],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (cwd / "out.ply").exists()
    assert "out=out.ply" in proc.stdout
    assert sorted(os.listdir(cwd)) == ["frame.cyl", "out.ply"]


def test_cli_import_leaves_scipy_out():
    # scipy.spatial cost encode and decode about half a second per process;
    # only analyze's k-nearest-neighbour distances need it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cylpc.cli; print('scipy' in sys.modules)"],
        env=_child_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("depth", [1, 8, 13, 21])
@pytest.mark.parametrize("grid", [[], ["--log-radial"],
                                  ["--log-radial", "--r-min", "0.981775961747949"]])
def test_encode_and_decode_the_grid_edges(tmp_path, capsys, depth, grid):
    # theta just below pi, r = 0 and r = 0.5 below that r_min: each once
    # fell outside the voxel grid and exited 2
    ply, stream = tmp_path / "edges.ply", tmp_path / "edges.cyl"
    xyz = [[-1.0, 4e-16, 0.0], [0.0, 0.0, 0.5], [0.5, 0.0, 0.25], [5.0, 1.0, 1.0],
           [10.0, -3.0, 2.0]]
    write_ply(ply, PointCloud(np.array(xyz), np.array([10.0, 20.0, 30.0, 40.0, 50.0])))
    assert run("encode", ply, "--coords", "cylindrical", "--depth", depth, *grid,
               "--out", stream) == 0
    assert run("decode", stream, "--out", tmp_path / "out.ply") == 0
    assert len(load_ply(tmp_path / "out.ply")) == len(decode_cloud(stream.read_bytes()).codes)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory, ply_with_leading_elements):
    """One small valid input of each kind the CLI reads."""
    out = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(11)
    pc = PointCloud(rng.uniform(-20.0, 20.0, (150, 3)), rng.integers(0, 256, 150))
    write_ply(out / "seed.ply", pc)
    np.column_stack([pc.xyz, pc.attributes / 255.0]).astype("<f4").tofile(out / "seed.bin")
    data, _ = encode_cloud(pc, CoordinateSystem.CYLINDRICAL, 8, qstep=4.0)
    (out / "seed.cyl").write_bytes(data)
    (out / "elements.ply").write_bytes(
        ply_with_leading_elements(pc.xyz, pc.attributes, binary=True))
    return out


@st.composite
def mutated(draw, data):
    """``data`` with one bit flipped, cut short, or a span replaced by a
    chunk copied from elsewhere in it."""
    pos = draw(st.integers(0, len(data) - 1))
    kind = draw(st.sampled_from(["flip", "truncate", "splice"]))
    if kind == "flip":
        out = bytearray(data)
        out[pos] ^= 1 << draw(st.integers(0, 7))
        return bytes(out)
    if kind == "truncate":
        return data[:pos]
    src = draw(st.integers(0, len(data) - 1))
    chunk = data[src : src + draw(st.integers(0, 32))]
    return data[:pos] + chunk + data[draw(st.integers(pos, min(len(data), pos + 32))):]


@pytest.mark.parametrize("kind", ["ply", "bin", "cyl", "elements"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_exit_codes_on_mutated_inputs(fuzz_dir, kind, data):
    # any exception other than the CLI's own errors fails the example
    seed = fuzz_dir / ("elements.ply" if kind == "elements" else f"seed.{kind}")
    path = fuzz_dir / f"input{seed.suffix}"
    path.write_bytes(data.draw(mutated(seed.read_bytes())))
    if kind == "cyl":
        argv = ["decode", path, "--out", fuzz_dir / "out.ply"]
    else:
        argv = ["encode", path, "--depth", "8", "--out", fuzz_dir / "out.cyl"]
    assert run(*argv) in (0, 2, 3, 4)
