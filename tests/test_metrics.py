"""PSNR, rate accounting and Bjontegaard deltas."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cylpc
from cylpc import (
    LOSSLESS,
    EncodeSummary,
    InvalidInputError,
    RatePoint,
    RdCurve,
    bd_metrics,
    psnr_attribute,
    read_rd_csv,
    write_rd_csv,
)
from cylpc.bitstream import HEADER_BYTES


def test_all_diff_255_is_zero_db():
    orig = np.full(100, 255.0)
    assert psnr_attribute(orig, np.zeros(100)) == pytest.approx(0.0, abs=1e-12)


def test_all_diff_one_matches_hand_value():
    orig = np.full(37, 100.0)
    got = psnr_attribute(orig, orig - 1.0)
    assert got == pytest.approx(20.0 * math.log10(255.0), abs=1e-9)
    assert got == pytest.approx(48.1308, abs=1e-3)


def test_identical_signals_return_lossless_marker():
    orig = np.arange(10.0)
    assert psnr_attribute(orig, orig.copy()) == LOSSLESS
    assert math.isinf(LOSSLESS)


def test_psnr_monotone_in_error_magnitude():
    rng = np.random.default_rng(0)
    orig = rng.uniform(0, 255, 500)
    err = rng.uniform(-20, 20, 500)
    worse = psnr_attribute(orig, orig + err)
    better = psnr_attribute(orig, orig + 0.5 * err)
    assert better > worse


def test_psnr_length_mismatch():
    with pytest.raises(InvalidInputError):
        psnr_attribute(np.zeros(3), np.zeros(4))


PSNR_BITS = """
import numpy as np
from cylpc import psnr_attribute
rng = np.random.default_rng(1)
orig = rng.uniform(0.0, 255.0, 105105)
print(psnr_attribute(orig, orig + rng.normal(0.0, 3.0, orig.size)).hex())
"""


def test_psnr_bits_do_not_depend_on_the_blas_thread_count():
    # np.dot summed the squared errors through BLAS, whose threads split the
    # sum, so the last bit of the PSNR changed with the machine's core count
    root = str(Path(cylpc.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    bits = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=root + os.pathsep + rest if rest else root)
        proc = subprocess.run([sys.executable, "-c", PSNR_BITS], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        bits.add(proc.stdout)
    assert len(bits) == 1, bits


def test_attribute_bpp():
    # payload bits per source point; the header counts in neither section
    def summary(attribute_bytes, n_points):
        return EncodeSummary(n_points=n_points, n_voxels=1, geometry_bytes=5,
                             attribute_bytes=attribute_bytes,
                             total_bytes=HEADER_BYTES + 5 + attribute_bytes,
                             geometry_raw_bytes=34)

    assert summary(0, 10).attribute_bpp == 0.0
    assert summary(0, 136).geometry_raw_bpp == 2.0
    assert summary(3 * 17, 136).attribute_bpp == 3.0
    assert summary(33, 11).attribute_bpp == 24.0
    assert summary(33, 11).geometry_bpp == 40.0 / 11


def _curve(bpps, psnrs):
    return RdCurve(tuple(RatePoint(b, p) for b, p in zip(bpps, psnrs)))


BPP = [0.5, 1.0, 2.0, 4.0, 8.0]
PSNR = [32.0, 36.5, 40.0, 44.5, 50.0]


def test_identical_curves_give_zero_deltas():
    bd = bd_metrics(_curve(BPP, PSNR), _curve(BPP, PSNR))
    assert bd.delta_psnr_db == pytest.approx(0.0, abs=1e-12)
    assert bd.delta_rate_percent == pytest.approx(0.0, abs=1e-9)


def test_constant_psnr_shift_survives_fit_and_integration():
    bd = bd_metrics(_curve(BPP, PSNR), _curve(BPP, [p + 1.0 for p in PSNR]))
    assert bd.delta_psnr_db == pytest.approx(1.0, abs=1e-6)


def test_halved_rate_gives_minus_fifty_percent():
    bd = bd_metrics(_curve(BPP, PSNR), _curve([b / 2.0 for b in BPP], PSNR))
    assert bd.delta_rate_percent == pytest.approx(-50.0, abs=0.5)


def test_delta_rate_against_trapezoid_integration_oracle():
    # same cubic fits, integrated numerically on a dense grid instead of
    # in closed form
    curve_a = _curve(BPP, PSNR)
    curve_b = _curve([b / 2.0 for b in BPP], PSNR)
    bd = bd_metrics(curve_a, curve_b)

    def fit(curve):
        return np.polyfit(curve.psnr_db, np.log10(curve.bpp), 3)

    pa, pb = fit(curve_a), fit(curve_b)
    lo = max(curve_a.psnr_db.min(), curve_b.psnr_db.min())
    hi = min(curve_a.psnr_db.max(), curve_b.psnr_db.max())
    grid = np.linspace(lo, hi, 20001)
    avg_gap = np.trapezoid(np.polyval(pb, grid) - np.polyval(pa, grid), grid) / (hi - lo)
    oracle = (10.0**avg_gap - 1.0) * 100.0
    assert bd.delta_rate_percent == pytest.approx(oracle, abs=1e-6)
    assert bd.delta_rate_percent == pytest.approx(-50.0, abs=0.5)


def test_delta_psnr_against_trapezoid_integration_oracle():
    rng = np.random.default_rng(1)
    psnr_b = [p + d for p, d in zip(PSNR, rng.uniform(0.5, 1.5, 5))]
    curve_a = _curve(BPP, PSNR)
    curve_b = _curve(BPP, psnr_b)
    bd = bd_metrics(curve_a, curve_b)
    pa = np.polyfit(np.log10(curve_a.bpp), curve_a.psnr_db, 3)
    pb = np.polyfit(np.log10(curve_b.bpp), curve_b.psnr_db, 3)
    lo, hi = math.log10(BPP[0]), math.log10(BPP[-1])
    grid = np.linspace(lo, hi, 20001)
    oracle = np.trapezoid(np.polyval(pb, grid) - np.polyval(pa, grid), grid) / (hi - lo)
    assert bd.delta_psnr_db == pytest.approx(oracle, abs=1e-6)


def test_bd_antisymmetry():
    rng = np.random.default_rng(2)
    for _ in range(10):
        b1 = np.sort(rng.uniform(0.3, 8.0, 5))
        b1 = b1 * np.linspace(1, 2, 5)  # ensure strict increase
        p1 = np.sort(rng.uniform(30.0, 55.0, 5))
        b2 = b1 * rng.uniform(0.6, 0.9)
        p2 = p1 + rng.uniform(0.2, 1.0)
        a, b = _curve(b1, p1), _curve(b2, p2)
        ab = bd_metrics(a, b)
        ba = bd_metrics(b, a)
        assert ab.delta_psnr_db == pytest.approx(-ba.delta_psnr_db, abs=1e-9)
        f_ab = 1.0 + ab.delta_rate_percent / 100.0
        f_ba = 1.0 + ba.delta_rate_percent / 100.0
        assert f_ab * f_ba == pytest.approx(1.0, abs=1e-6)


def test_lossless_points_excluded_from_fitting():
    curve_a = _curve(BPP + [16.0], PSNR + [LOSSLESS])
    curve_b = _curve(BPP, [p + 1.0 for p in PSNR])
    bd = bd_metrics(curve_a, curve_b)
    assert bd.delta_psnr_db == pytest.approx(1.0, abs=1e-6)


def test_too_few_points_or_no_overlap_rejected():
    with pytest.raises(InvalidInputError):
        RdCurve(tuple(RatePoint(b, p) for b, p in zip(BPP[:3], PSNR[:3])))
    low = _curve([0.1, 0.2, 0.3, 0.4], [10.0, 11.0, 12.0, 13.0])
    high = _curve([10.0, 20.0, 30.0, 40.0], [50.0, 51.0, 52.0, 53.0])
    with pytest.raises(InvalidInputError):
        bd_metrics(low, high)
    mostly_lossless = _curve(BPP, PSNR[:2] + [LOSSLESS] * 3)
    with pytest.raises(InvalidInputError):
        bd_metrics(mostly_lossless, _curve(BPP, PSNR))


def test_rd_curve_requires_strictly_increasing_bpp():
    with pytest.raises(InvalidInputError):
        _curve([1.0, 1.0, 2.0, 3.0], PSNR[:4])


def test_rd_curve_warns_on_decreasing_psnr():
    with pytest.warns(UserWarning):
        _curve(BPP, [32.0, 31.0, 40.0, 44.0, 50.0])


def test_rd_curve_warning_names_its_caller():
    # stacklevel 2 named "<string>", the __init__ that dataclass generates
    with pytest.warns(UserWarning, match="PSNR decreases") as record:
        RdCurve(tuple(RatePoint(b, p) for b, p in zip(BPP, [32.0, 31.0, 40.0, 44.0, 50.0])))
    assert record[0].filename == __file__


def test_diverging_fits_raise_instead_of_returning_inf():
    # the cubic fits of log10 rate against PSNR lie 1298.5 decades apart on
    # average: 10**gap overflowed to an inf delta with a numpy warning
    curve_a = _curve([0.00246647, 0.00369971, 0.00616618, 0.0110991, 0.0135656],
                     [19.6458, 19.7874, 19.8173, 19.8309, 19.8447])
    with pytest.warns(UserWarning, match="PSNR decreases"):
        curve_b = _curve([0.00246647, 0.00369971, 0.00493294, 0.00739941, 0.0135656,
                          0.0160321], [18.3603, 26.3856, 26.3856, 26.3344, 26.3631, 26.4125])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError,
                           match="^Bjontegaard delta_rate_percent is inf: the cubic fits"):
            bd_metrics(curve_a, curve_b)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "curve.csv"
    curve = _curve(BPP, PSNR)
    write_rd_csv(path, curve.points, geometry_bpp=23.76)
    text = path.read_text()
    assert text.startswith("# geometry_bpp=23.76\n")
    assert text.splitlines()[1] == "bpp,psnr_db"
    back = read_rd_csv(path)
    np.testing.assert_allclose(back.bpp, curve.bpp, rtol=1e-5)
    np.testing.assert_allclose(back.psnr_db, curve.psnr_db, rtol=1e-5)
    bd = bd_metrics(back, back)
    assert bd.delta_psnr_db == 0.0


def test_csv_six_significant_digits(tmp_path):
    path = tmp_path / "curve.csv"
    write_rd_csv(path, (RatePoint(1.2345678, 41.2345678),
                        RatePoint(2.0, 42.0), RatePoint(3.0, 43.0), RatePoint(4.0, 44.0)))
    row = path.read_text().splitlines()[1]
    assert row == "1.23457,41.2346"


@pytest.mark.parametrize(
    "text,message",
    [
        ("rate,psnr\n1,40\n2,41\n3,42\n4,43\n", "expected header 'bpp,psnr_db'"),
        ("psnr_db,bpp\n1,40\n2,41\n3,42\n4,43\n", "expected header 'bpp,psnr_db'"),
        ("", "expected header 'bpp,psnr_db'"),
        ("bpp,psnr_db\n1,40\n2,41,7\n3,42\n4,43\n", "malformed row \\['2', '41', '7'\\]"),
    ],
)
def test_csv_reader_rejects_a_wrong_header_or_row(tmp_path, text, message):
    path = tmp_path / "curve.csv"
    path.write_text(text)
    with pytest.raises(InvalidInputError, match=message):
        read_rd_csv(path)


@pytest.mark.parametrize(
    "bpp,psnr_db,message",
    [
        (math.inf, 40.0, "bpp must be positive and finite"),
        (math.nan, 40.0, "bpp must be positive and finite"),
        (0.0, 40.0, "bpp must be positive and finite"),
        (1.0, -math.inf, "psnr_db must be finite or the lossless marker"),
        (1.0, math.nan, "psnr_db must be finite or the lossless marker"),
    ],
)
def test_rate_point_rejects_what_a_fit_cannot_use(bpp, psnr_db, message):
    with pytest.raises(InvalidInputError, match=message):
        RatePoint(bpp, psnr_db)


@pytest.mark.parametrize("row", ["inf,44", "2.5,-inf"])
def test_csv_reader_rejects_a_non_finite_point(tmp_path, row):
    path = tmp_path / "curve.csv"
    path.write_text(f"bpp,psnr_db\n1,40\n2,41\n{row}\n3,42\n4,43\n")
    with pytest.raises(InvalidInputError, match="must be"):
        read_rd_csv(path)
    path.write_text("bpp,psnr_db\n1,40\n2,41\n3,42\n4,43\n5,inf\n")
    assert read_rd_csv(path).psnr_db[-1] == LOSSLESS
