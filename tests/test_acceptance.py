"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass. Directional checks use the seeded default synthetic sweep
(about 1e5 points).
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from cylpc import (
    CoordinateSystem,
    ErrorModel,
    RatePoint,
    RdCurve,
    SweepSpec,
    bd_metrics,
    decode_cloud,
    deserialize,
    encode_cloud,
    expected_error_cylindrical,
    knn_mean_distance,
    make_config,
    octree_from_leaf_codes,
    psnr_attribute,
    raht_forward_arrays,
    raht_inverse_arrays,
    raht_schedule,
    rlgr_decode,
    rlgr_encode,
    serialize,
    synth_sweep,
    to_cartesian,
    voxelization_error_cylindrical,
    voxelize,
)
from cylpc.bitstream import attribute_ints, decode_attributes, wire_schedule
from cylpc.geometry import CylindricalPoint
from cylpc.metrics import LOSSLESS
from cylpc.voxelizer import assign_codes

QSTEPS = (64.0, 32.0, 16.0, 8.0, 4.0, 2.0, 1.0)


def report(name: str, detail: str):
    print(f"PASS {name}: {detail}")


@pytest.fixture(scope="module")
def raht_instances():
    rng = np.random.default_rng(2024)
    instances = []
    for _ in range(1000):
        depth = int(rng.integers(2, 8))
        n = int(rng.integers(1, 5001))
        codes = np.unique(rng.integers(0, 8**depth, n))
        attrs = rng.uniform(0.0, 255.0, codes.size)
        weights = rng.integers(1, 51, codes.size)
        instances.append((codes, attrs, weights, depth))
    return instances


@pytest.fixture(scope="module")
def sweep_cloud():
    return synth_sweep(SweepSpec(), seed=7)


def test_criterion_1_raht_orthonormality(raht_instances):
    start = time.monotonic()
    worst = 0.0
    for codes, attrs, weights, depth in raht_instances:
        coeffs = raht_forward_arrays(raht_schedule(codes, weights, depth), attrs)
        e_in = float(np.dot(attrs, attrs))
        e_out = coeffs.dc**2 + float(np.dot(coeffs.highs, coeffs.highs))
        worst = max(worst, abs(e_out - e_in) / e_in)
    elapsed = time.monotonic() - start
    assert worst <= 1e-9, f"worst relative energy error {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    report(
        "criterion 1 (RAHT orthonormality)",
        f"worst rel energy error {worst:.2e} <= 1e-9 on 1000 instances, "
        f"{elapsed:.1f} s < 30 s",
    )


def test_criterion_2_raht_round_trip(raht_instances):
    worst = 0.0
    for codes, attrs, weights, depth in raht_instances:
        schedule = raht_schedule(codes, weights, depth)
        coeffs = raht_forward_arrays(schedule, attrs)
        back = raht_inverse_arrays(coeffs, schedule)
        worst = max(worst, float(np.abs(back - attrs).max()))
    assert worst <= 1e-9, f"worst per-attribute error {worst:.3e}"
    report(
        "criterion 2 (RAHT round-trip)",
        f"max per-attribute error {worst:.2e} <= 1e-9 on the same 1000 instances",
    )


def test_criterion_3_cylindrical_error_identity():
    rng = np.random.default_rng(3)
    n = 10_000
    r = rng.uniform(0.6, 60.0, n)
    theta = rng.uniform(-math.pi, math.pi, n)
    h = rng.uniform(-10.0, 10.0, n)
    e1 = rng.uniform(0.01, 0.5, n) * rng.choice([-1.0, 1.0], n)
    e2 = rng.uniform(1e-3, 0.3, n) * rng.choice([-1.0, 1.0], n)
    e3 = rng.uniform(0.01, 0.5, n) * rng.choice([-1.0, 1.0], n)
    worst = 0.0
    for i in range(n):
        p = to_cartesian(CylindricalPoint(r[i], theta[i], h[i]))
        th = math.remainder(theta[i] + e2[i], 2.0 * math.pi)
        th = th if th < math.pi else -math.pi
        q = to_cartesian(CylindricalPoint(r[i] + e1[i], th, h[i] + e3[i]))
        direct = (p.x - q.x) ** 2 + (p.y - q.y) ** 2 + (p.z - q.z) ** 2
        formula = voxelization_error_cylindrical(r[i], e1[i], e2[i], e3[i])
        worst = max(worst, abs(formula - direct) / direct)
    assert worst <= 1e-10, f"worst relative deviation {worst:.3e}"
    report(
        "criterion 3 (cylindrical error identity)",
        f"worst rel deviation {worst:.2e} <= 1e-10 over 1e4 draws",
    )


def test_criterion_4_expected_error_approximation():
    start = time.monotonic()
    rng = np.random.default_rng(4)
    n = 1_000_000
    sigma1 = sigma3 = 0.05
    sigma2 = 0.005
    a1, a2, a3 = (math.sqrt(3.0) * s for s in (sigma1, sigma2, sigma3))
    e1 = rng.uniform(-a1, a1, n)
    e2 = rng.uniform(-a2, a2, n)
    e3 = rng.uniform(-a3, a3, n)
    model = ErrorModel(sigma1**2, sigma2**2, sigma3**2)
    worst = 0.0
    for r in (0.1, 1.0, 10.0, 50.0):
        mc = float(voxelization_error_cylindrical(np.full(n, r), e1, e2, e3).mean())
        approx = expected_error_cylindrical(r, model)
        worst = max(worst, abs(mc - approx) / approx)
    elapsed = time.monotonic() - start
    assert worst <= 0.01, f"worst relative gap {worst:.4f}"
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    report(
        "criterion 4 (expected-error approximation)",
        f"Monte Carlo vs closed form within {100 * worst:.3f}% <= 1% "
        f"(1e6 draws, sigma2 = 0.005), {elapsed:.1f} s < 10 s",
    )


def test_criterion_5_codecs_lossless():
    rng = np.random.default_rng(5)
    # occupancy codec
    for case in range(10_000):
        depth = int(rng.integers(1, 6))
        if case == 0:
            codes = np.zeros(1, dtype=np.int64)
        elif case == 1:
            codes = np.arange(8 ** min(depth, 2), dtype=np.int64)
            depth = min(depth, 2)
        else:
            codes = np.unique(rng.integers(0, 8**depth, rng.integers(1, 65)))
        stream = serialize(octree_from_leaf_codes(codes, depth))
        back = deserialize(stream, depth)
        assert np.array_equal(back.leaves, codes)
    # run-length / Golomb-Rice codec
    for case in range(10_000):
        n = int(rng.integers(0, 200))
        kind = case % 4
        if kind == 0:  # zero-run dominated
            v = np.zeros(n, dtype=np.int64)
            hot = rng.random(n) < 0.02
            v[hot] = rng.integers(-500, 500, hot.sum())
        elif kind == 1:  # heavy-tailed
            v = (rng.pareto(0.5, n) * 50).astype(np.int64) * rng.choice([-1, 1], n)
        elif kind == 2:  # long pure zero run
            v = np.zeros(int(rng.integers(0, 3000)), dtype=np.int64)
        else:  # dense small values
            v = rng.integers(-40, 41, n)
        values = v.tolist()
        assert rlgr_decode(rlgr_encode(values)) == values
    report(
        "criterion 5 (codec losslessness)",
        "octree and RLGR round-trips exact on 1e4 randomized cases each "
        "(zero-run and heavy-tail included)",
    )


def test_criterion_6_end_to_end_distortion_bound():
    fixtures = [
        (SweepSpec(beam_count=16, azimuth_step=2 * math.pi / 256), 1),
        (SweepSpec(beam_count=16, azimuth_step=2 * math.pi / 256,
                   intensity_model="checker"), 2),
        (SweepSpec(beam_count=12, azimuth_step=2 * math.pi / 200,
                   intensity_model="constant", box_count=1), 3),
    ]
    modes = [
        (CoordinateSystem.CARTESIAN, 8, False),
        (CoordinateSystem.CYLINDRICAL, 7, False),
        (CoordinateSystem.CYLINDRICAL, 7, True),
    ]
    checked = 0
    worst_ratio = 0.0
    for spec, seed in fixtures:
        pc = synth_sweep(spec, seed=seed)
        for system, depth, log_radial in modes:
            vc = voxelize(pc, make_config(pc, system, depth, log_radial=log_radial))
            for qstep in QSTEPS:
                data, _ = encode_cloud(pc, system, depth, qstep, log_radial=log_radial)
                decoded = decode_cloud(data)
                mse = float(np.mean((decoded.leaf_attributes - vc.attributes) ** 2))
                bound = qstep * qstep / 4.0
                assert mse <= bound, (
                    f"MSE {mse:.4f} > {bound:.4f} at qstep {qstep}, "
                    f"{system.value}, depth {depth}, log={log_radial}"
                )
                worst_ratio = max(worst_ratio, mse / bound)
                checked += 1
    report(
        "criterion 6 (end-to-end distortion bound)",
        f"decoded MSE <= qstep^2/4 on {checked} fixture/qstep combinations "
        f"(worst MSE/bound ratio {worst_ratio:.3f})",
    )


def test_criterion_7_psnr_formula():
    zero_db = psnr_attribute(np.full(64, 255.0), np.zeros(64))
    assert zero_db == pytest.approx(0.0, abs=1e-12)
    one_diff = psnr_attribute(np.full(64, 10.0), np.full(64, 9.0))
    assert one_diff == pytest.approx(48.1308, abs=1e-3)
    assert psnr_attribute(np.arange(9.0), np.arange(9.0)) == LOSSLESS
    report(
        "criterion 7 (PSNR formula)",
        f"all-255 diff -> 0 dB exactly; unit diff -> {one_diff:.4f} dB "
        f"(48.1308 +- 1e-3); identical -> lossless marker",
    )


def test_criterion_8_bjontegaard_sanity():
    bpp = [0.5, 1.0, 2.0, 4.0, 8.0]
    psnr = [32.0, 36.5, 40.0, 44.5, 50.0]
    curve = RdCurve(tuple(RatePoint(b, p) for b, p in zip(bpp, psnr)))
    same = bd_metrics(curve, curve)
    assert same.delta_psnr_db == pytest.approx(0.0, abs=1e-9)
    assert same.delta_rate_percent == pytest.approx(0.0, abs=1e-9)
    shifted = RdCurve(tuple(RatePoint(b, p + 1.0) for b, p in zip(bpp, psnr)))
    up = bd_metrics(curve, shifted)
    assert up.delta_psnr_db == pytest.approx(1.0, abs=1e-6)
    halved = RdCurve(tuple(RatePoint(b / 2.0, p) for b, p in zip(bpp, psnr)))
    cheap = bd_metrics(curve, halved)
    assert cheap.delta_rate_percent == pytest.approx(-50.0, abs=0.5)
    # independent trapezoid oracle over the same cubic fits
    pa = np.polyfit(psnr, np.log10(bpp), 3)
    pb = np.polyfit(psnr, np.log10(np.asarray(bpp) / 2.0), 3)
    grid = np.linspace(min(psnr), max(psnr), 50001)
    gap = np.trapezoid(np.polyval(pb, grid) - np.polyval(pa, grid), grid)
    oracle = (10.0 ** (gap / (max(psnr) - min(psnr))) - 1.0) * 100.0
    assert cheap.delta_rate_percent == pytest.approx(oracle, abs=1e-6)
    report(
        "criterion 8 (Bjontegaard sanity)",
        f"identical -> (0, 0); +1 dB -> {up.delta_psnr_db:.6f} dB; "
        f"halved rate -> {cheap.delta_rate_percent:.2f}% (oracle {oracle:.2f}%)",
    )


def _rd_points(pc, vc, depth):
    slot = np.searchsorted(vc.codes, assign_codes(pc, vc.config))
    schedule = wire_schedule(vc.codes, depth)
    points = []
    for qstep in QSTEPS:
        payload = rlgr_encode(attribute_ints(vc, qstep))
        decoded = decode_attributes(rlgr_decode(payload), schedule, qstep)
        points.append(
            RatePoint(
                bpp=8.0 * len(payload.data) / len(pc),
                psnr_db=psnr_attribute(pc.attributes, decoded[slot]),
            )
        )
    return points


def test_criterion_9_directional_reproduction(sweep_cloud):
    pc = sweep_cloud
    # (a) occupied voxels at depth 8
    start = time.monotonic()
    cart8 = len(voxelize(pc, make_config(pc, CoordinateSystem.CARTESIAN, 8)))
    cyl8 = len(voxelize(pc, make_config(pc, CoordinateSystem.CYLINDRICAL, 8)))
    log8 = len(
        voxelize(pc, make_config(pc, CoordinateSystem.CYLINDRICAL, 8, log_radial=True))
    )
    t_a = time.monotonic() - start
    assert cyl8 < cart8 and log8 < cart8, f"cart {cart8}, cyl {cyl8}, log {log8}"
    assert t_a < 120.0

    # (b) geometry bpp at the default depth pairing 16 (Cartesian) / 13
    start = time.monotonic()
    vc_cart = voxelize(pc, make_config(pc, CoordinateSystem.CARTESIAN, 16))
    cart_bpp = (
        8.0 * len(serialize(octree_from_leaf_codes(vc_cart.codes, 16)).data) / len(pc)
    )
    vc_cyl = voxelize(
        pc, make_config(pc, CoordinateSystem.CYLINDRICAL, 13, log_radial=True)
    )
    cyl_bpp = (
        8.0 * len(serialize(octree_from_leaf_codes(vc_cyl.codes, 13)).data) / len(pc)
    )
    t_b = time.monotonic() - start
    assert cyl_bpp < cart_bpp, f"cart {cart_bpp:.2f} bpp, cyl {cyl_bpp:.2f} bpp"
    assert t_b < 120.0

    # (c) attribute Bjontegaard delta-rate negative for cylindrical
    start = time.monotonic()
    cart_curve = RdCurve(tuple(_rd_points(pc, vc_cart, 16)))
    cyl_curve = RdCurve(tuple(_rd_points(pc, vc_cyl, 13)))
    bd = bd_metrics(cart_curve, cyl_curve)
    t_c = time.monotonic() - start
    assert bd.delta_rate_percent < 0.0, f"delta rate {bd.delta_rate_percent:.2f}%"
    assert t_c < 120.0

    report(
        "criterion 9 (directional reproduction)",
        f"(a) voxels@8 cart {cart8} > cyl {cyl8} / log {log8} [{t_a:.0f} s]; "
        f"(b) geometry {cart_bpp:.2f} bpp @16 > {cyl_bpp:.2f} bpp @13 "
        f"({100 * (1 - cyl_bpp / cart_bpp):.0f}% saving) [{t_b:.0f} s]; "
        f"(c) BD delta-rate {bd.delta_rate_percent:.1f}% < 0, "
        f"delta-PSNR {bd.delta_psnr_db:+.2f} dB [{t_c:.0f} s]",
    )


def test_criterion_10_density_trend(sweep_cloud):
    knn = knn_mean_distance(sweep_cloud, 5)
    rho = float(spearmanr(knn[:, 0], knn[:, 1]).statistic)
    assert rho > 0.9, f"Spearman correlation {rho:.3f}"
    report(
        "criterion 10 (density trend)",
        f"Spearman(r, mean 5-NN distance) = {rho:.3f} > 0.9 on the default sweep",
    )
