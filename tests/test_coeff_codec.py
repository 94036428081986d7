"""Quantizer bounds and lossless run-length/Golomb-Rice coding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylpc import (
    CoefficientStream,
    CorruptStreamError,
    InvalidConfigError,
    InvalidInputError,
    RlgrPayload,
    dequantize,
    quantize,
    rlgr_decode,
    rlgr_encode,
)


# ---------------------------------------------------------------- quantizer


def test_zero_stays_zero():
    qs = quantize(CoefficientStream(dc=0.0, highs=np.zeros(5)), 17.3)
    assert qs.dc_q == 0
    assert (qs.highs_q == 0).all()


def test_round_half_away_from_zero():
    qs = quantize(CoefficientStream(dc=7.4, highs=np.array([-7.4, 3.0, -3.0, 2.5])), 2.0)
    assert qs.dc_q == 4  # 7.4 / 2 = 3.7 -> 4
    assert qs.highs_q.tolist() == [-4, 2, -2, 1]  # 2.5/2 = 1.25 -> 1; 3/2 = 1.5 -> 2


def test_quantizer_bound():
    rng = np.random.default_rng(0)
    coeffs = CoefficientStream(dc=rng.uniform(-500, 500), highs=rng.uniform(-500, 500, 1000))
    for qstep in (0.25, 1.0, 7.7, 64.0):
        back = dequantize(quantize(coeffs, qstep))
        assert abs(back.dc - coeffs.dc) <= qstep / 2.0
        assert np.abs(back.highs - coeffs.highs).max() <= qstep / 2.0


def test_dequantize_is_identity_on_lattice():
    qstep = 3.5
    coeffs = CoefficientStream(dc=7.0, highs=np.array([-10.5, 0.0, 3.5]))
    qs = quantize(coeffs, qstep)
    back = dequantize(qs)
    assert back.dc == coeffs.dc
    np.testing.assert_array_equal(back.highs, coeffs.highs)


def test_invalid_qstep():
    coeffs = CoefficientStream(dc=1.0, highs=np.zeros(1))
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidConfigError):
            quantize(coeffs, bad)


def test_qstep_that_overflows_int64_rejected():
    coeffs = CoefficientStream(dc=100.0, highs=np.array([0.5, -300.0]))
    for qstep in (1e-20, 1e-300, 5e-324):
        with pytest.raises(InvalidConfigError, match="does not fit in int64"):
            quantize(coeffs, qstep)
    # only the dc overflows
    with pytest.raises(InvalidConfigError):
        quantize(CoefficientStream(dc=1e4, highs=np.zeros(3)), 1e-16)


def test_largest_int64_magnitudes_kept_exactly():
    top = 2.0**63 - 1024  # the largest float64 below 2^63
    qs = quantize(CoefficientStream(dc=-top, highs=np.array([top, 2.0**62])), 1.0)
    assert qs.dc_q == -(2**63 - 1024)
    assert qs.highs_q.tolist() == [2**63 - 1024, 2**62]
    with pytest.raises(InvalidConfigError):
        quantize(CoefficientStream(dc=0.0, highs=np.array([2.0**63])), 1.0)


# ------------------------------------------------------------------- rlgr


def test_empty_list():
    payload = rlgr_encode([])
    assert payload.count == 0
    assert payload.data == b""
    assert rlgr_decode(payload) == []


def test_round_trip_simple_vectors():
    for values in (
        [0],
        [1],
        [-1],
        [0] * 1000,
        [5, -3, 2, 0, 0, 0, 0, 9],
        list(range(-50, 50)),
        [0, 0, 0, 7],
        [7, 0, 0, 0],
        [2**40, -(2**40), 0, 1],
    ):
        assert rlgr_decode(rlgr_encode(values)) == values


def test_round_trip_adversarial_distributions():
    rng = np.random.default_rng(1)
    cases = []
    for _ in range(200):
        n = int(rng.integers(0, 400))
        kind = rng.integers(0, 5)
        if kind == 0:  # zero-run dominated
            v = np.zeros(n, dtype=np.int64)
            hot = rng.random(n) < 0.03
            v[hot] = rng.integers(-300, 300, hot.sum())
        elif kind == 1:  # geometric magnitudes
            v = rng.geometric(0.3, n) - 1
            v *= rng.choice([-1, 1], n)
        elif kind == 2:  # heavy-tailed
            v = (rng.pareto(0.6, n) * 100).astype(np.int64) * rng.choice([-1, 1], n)
        elif kind == 3:  # constant
            v = np.full(n, int(rng.integers(-1000, 1000)))
        else:  # alternating signs
            v = np.arange(n) * np.where(np.arange(n) % 2 == 0, 1, -1)
        cases.append(v.tolist())
    for values in cases:
        payload = rlgr_encode(values)
        assert rlgr_decode(payload) == values


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=-(2**62), max_value=2**62)))
def test_round_trip_property(values):
    assert rlgr_decode(rlgr_encode(values)) == values


def test_int64_extremes_round_trip_in_both_modes():
    # the first value terminates a zero run, the second is a Golomb-Rice
    # literal; three zeros switch back to run mode for the next pair
    top, bottom = 2**63 - 1, -(2**63)
    values = [top, bottom, 0, 0, 0, bottom, top]
    assert rlgr_decode(rlgr_encode(values)) == values
    assert rlgr_decode(rlgr_encode(np.array(values, dtype=np.int64))) == values


@pytest.mark.parametrize(
    "values", [[2**63], [-(2**63) - 1], [1, 2**63], [1, -(2**63) - 1], [2**250]]
)
def test_values_outside_int64_rejected_by_encoder(values):
    with pytest.raises(InvalidInputError, match="int64"):
        rlgr_encode(values)


@pytest.mark.parametrize(
    "values",
    [[2**63], [-(2**63) - 1], [1, 2**63], [1, -(2**63) - 1], [2**250, -(2**200), 0]],
)
def test_escaped_values_outside_int64_are_corrupt(values, unchecked_rlgr_encode):
    payload = unchecked_rlgr_encode(values)
    with pytest.raises(CorruptStreamError, match="beyond the int64 range") as exc:
        rlgr_decode(payload)
    assert 0 < exc.value.offset <= 8 * len(payload.data)


def test_accepts_numpy_arrays():
    rng = np.random.default_rng(2)
    v = rng.integers(-1000, 1000, 500)
    assert rlgr_decode(rlgr_encode(v)) == v.tolist()


def test_determinism():
    rng = np.random.default_rng(3)
    v = rng.integers(-100, 100, 2000).tolist()
    assert rlgr_encode(v).data == rlgr_encode(v).data


def test_zero_runs_compress_below_random_values():
    rng = np.random.default_rng(4)
    zeros = rlgr_encode([0] * 1000)
    noise = rlgr_encode(rng.integers(-100, 101, 1000).tolist())
    assert len(zeros.data) < len(noise.data)
    assert len(zeros.data) < 10  # long runs cost a handful of bits


def test_all_zero_run_decodes_to_exact_count():
    payload = rlgr_encode([0] * 777)
    assert rlgr_decode(payload) == [0] * 777


def test_truncation_raises_corrupt_stream():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(300):
        n = int(rng.integers(1, 200))
        v = np.zeros(n, dtype=np.int64)
        hot = rng.random(n) < 0.2
        v[hot] = rng.integers(-(2**20), 2**20, hot.sum())
        payload = rlgr_encode(v.tolist())
        if len(payload.data) < 2:
            continue
        truncated = RlgrPayload(data=payload.data[:-1], count=payload.count)
        checked += 1
        with pytest.raises(CorruptStreamError):
            rlgr_decode(truncated)
    assert checked > 200


def test_corrupt_error_carries_bit_offset():
    payload = rlgr_encode([12345, -99, 7])
    bad = RlgrPayload(data=payload.data[:1], count=payload.count)
    with pytest.raises(CorruptStreamError) as exc:
        rlgr_decode(bad)
    assert exc.value.offset is not None
    assert 0 <= exc.value.offset <= 8 * len(bad.data)


def test_trailing_bytes_rejected():
    payload = rlgr_encode([1, 2, 3])
    padded = RlgrPayload(data=payload.data + b"\x00", count=payload.count)
    with pytest.raises(CorruptStreamError):
        rlgr_decode(padded)


def test_bit_flip_fuzz_never_crashes():
    rng = np.random.default_rng(6)
    outcomes = {"ok": 0, "corrupt": 0}
    base = rng.integers(-50, 50, 200).tolist()
    payload = rlgr_encode(base)
    for _ in range(400):
        data = bytearray(payload.data)
        pos = rng.integers(0, len(data))
        data[pos] ^= 1 << rng.integers(0, 8)
        try:
            out = rlgr_decode(RlgrPayload(data=bytes(data), count=payload.count))
            assert len(out) == payload.count
            outcomes["ok"] += 1
        except CorruptStreamError:
            outcomes["corrupt"] += 1
    assert outcomes["ok"] + outcomes["corrupt"] == 400
