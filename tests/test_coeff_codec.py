"""Quantizer bounds and lossless run-length/Golomb-Rice coding."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylpc import (
    CorruptStreamError,
    InvalidConfigError,
    InvalidInputError,
    RlgrPayload,
    dequantize,
    quantize,
    rlgr_decode,
    rlgr_encode,
)
import cylpc
from cylpc import coeff_codec
from cylpc.coeff_codec import QSTEP_MIN


# ---------------------------------------------------------------- quantizer


def test_zero_stays_zero():
    q = quantize(np.zeros(6), 17.3)
    assert q.dtype == np.int64
    assert q.shape == (6,)
    assert (q == 0).all()


def test_round_half_away_from_zero():
    q = quantize(np.array([7.4, -7.4, 3.0, -3.0, 2.5]), 2.0)
    # 7.4 / 2 = 3.7 -> 4; 2.5/2 = 1.25 -> 1; 3/2 = 1.5 -> 2
    assert q.tolist() == [4, -4, 2, -2, 1]


def test_quantizer_bound():
    rng = np.random.default_rng(0)
    x = rng.uniform(-500, 500, 1001)
    for qstep in (0.25, 1.0, 7.7, 64.0):
        back = dequantize(quantize(x, qstep), qstep)
        assert back.dtype == np.float64
        assert np.abs(back - x).max() <= qstep / 2.0


def test_dequantize_is_identity_on_lattice():
    qstep = 3.5
    x = np.array([7.0, -10.5, 0.0, 3.5])
    np.testing.assert_array_equal(dequantize(quantize(x, qstep), qstep), x)


def test_invalid_qstep():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidConfigError, match="positive finite"):
            quantize(np.ones(2), bad)


def test_qstep_below_the_floor_rejected():
    below = float(np.nextafter(QSTEP_MIN, 0.0))
    for qstep in (below, 1e-13, 1e-20, 5e-324):
        with pytest.raises(InvalidConfigError, match=(
            f"^qstep {qstep} is too small: below {QSTEP_MIN:g}, float64 rounding"
            r" breaks MSE <= qstep\^2/4$"
        )):
            quantize(np.ones(2), qstep)
    assert quantize(np.ones(2), QSTEP_MIN).tolist() == [2**35, 2**35]


def test_qstep_that_overflows_int64_rejected():
    for x, qstep in (([100.0, 0.5, 2.0**40], QSTEP_MIN), ([1e300, 0.0], 1.0),
                     ([0.0, -1e30], 1e3)):
        with pytest.raises(InvalidConfigError, match="does not fit in int64"):
            quantize(np.array(x), qstep)


def test_largest_int64_magnitudes_kept_exactly():
    top = 2.0**63 - 1024  # the largest float64 below 2^63
    q = quantize(np.array([-top, top, 2.0**62]), 1.0)
    assert q.tolist() == [-(2**63 - 1024), 2**63 - 1024, 2**62]
    with pytest.raises(InvalidConfigError):
        quantize(np.array([0.0, 2.0**63]), 1.0)


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
def test_escaped_values_outside_int64_are_corrupt(values, reference_rlgr_encode):
    payload = reference_rlgr_encode(values)
    with pytest.raises(CorruptStreamError, match="beyond the int64 range") as exc:
        rlgr_decode(payload)
    assert 0 < exc.value.offset <= 8 * len(payload.data)


@pytest.mark.parametrize(
    "values",
    [[1.7, 0], [0, 0, 2.0], [np.float64(3.0)], ["1"], [None],
     np.array([1.5, 0.0]), np.array([1.0, 2.0]), np.array([1 + 2j]),
     np.array(["1"]), np.array([1, 2], dtype=object), np.array([[1, 2]]), np.array(3)],
    ids=["float-item", "integral-float-item", "numpy-float-item", "str-item", "none-item",
         "float-array", "integral-float-array", "complex-array", "str-array",
         "object-array", "2d-array", "0d-array"],
)
def test_non_integer_values_rejected_by_encoder(values):
    with pytest.raises(InvalidInputError):
        rlgr_encode(values)


def test_integer_like_values_accepted_by_encoder():
    values = [np.int32(5), np.int64(-3), 0, True]
    assert rlgr_decode(rlgr_encode(values)) == [5, -3, 0, 1]
    for dtype in (np.int8, np.uint16, np.int32, bool):
        v = np.array([1, 0, 0, 1], dtype=dtype)
        assert rlgr_decode(rlgr_encode(v)) == [1, 0, 0, 1]


def test_accepts_numpy_arrays():
    rng = np.random.default_rng(2)
    v = rng.integers(-1000, 1000, 500)
    assert rlgr_decode(rlgr_encode(v)) == v.tolist()


def _encoder_corpus() -> list[np.ndarray]:
    """Seeded vectors that reach every branch of the encoder: Golomb-Rice
    literals (dense), complete and partial zero runs (sparse), a run that
    ends the input (trailing zeros), escapes (wide magnitudes) and the
    int64 extremes in both modes."""
    top, bottom = 2**63 - 1, -(2**63)
    rng = np.random.default_rng(12)
    cases = [
        np.array(v, dtype=np.int64)
        for v in ([], [0], [top], [bottom], [top, bottom, 0, 0, 0, bottom, top],
                  [0] * 1000, [0] * 777 + [1], [1] + [0] * 5)
    ]
    for _ in range(300):
        n = int(rng.integers(1, 300))
        v = np.zeros(n, dtype=np.int64)
        hot = rng.random(n) < rng.choice([0.02, 0.2, 0.6, 1.0])
        half = 2 ** int(rng.integers(0, 63))
        v[hot] = rng.integers(-half, half, hot.sum(), endpoint=True)
        extreme = rng.random(n) < 0.01
        v[extreme] = rng.choice([top, bottom], extreme.sum())
        if rng.random() < 0.3:
            v = np.r_[v, np.zeros(int(rng.integers(1, 200)), dtype=np.int64)]
        cases.append(v)
    return cases


# sha256 over count and bytes of rlgr_encode on each corpus vector, first as
# a list and then as an int64 array, as the string-building encoder wrote them
_ENCODER_DIGEST = "e90bedb9b51ac5c9f1d24ea80524cc0afc7e0b66fa6e739c3feb3157388f2d53"


def test_encoder_bytes_are_pinned():
    h = hashlib.sha256()
    for v in _encoder_corpus():
        for values in (v.tolist(), v):
            payload = rlgr_encode(values)
            h.update(payload.count.to_bytes(8, "little") + payload.data)
    assert h.hexdigest() == _ENCODER_DIGEST


def test_encoder_bytes_do_not_depend_on_the_container():
    # the encoder reads only the nonzeros; how they are held must not matter
    rng = np.random.default_rng(13)
    top = 2**63 - 1
    cases = [np.array(v, dtype=np.int64) for v in ([], [0], [1], [top, 0, 0, top])]
    for density in (0.0, 0.02, 0.3, 0.9, 1.0):
        for n in (1, 17, 300):
            cases.append((rng.random(n) < density).astype(np.int64))
            cases.append(np.where(rng.random(n) < density, rng.integers(1, top, n), 0))
    for v in cases:
        containers = [v.tolist(), v, v.astype(np.uint64)]
        if v.max(initial=0) <= 1:
            containers.append(v.astype(bool))
        payloads = {rlgr_encode(values) for values in containers}
        assert len(payloads) == 1
    with pytest.raises(InvalidInputError, match="int64"):
        rlgr_encode(np.array([0, 2**63], dtype=np.uint64))


# -------------------------------------- rlgr encoder against the scalar one


def _walk(kp: int, pending: int, value: int) -> tuple[int, int, int, int, int, int]:
    """One value through the kp state machine, read one value at a time as
    the decoder reads them: (kp, zeros of the unfinished complete run), then
    what the value wrote: (zero literals, complete runs, k of the marker,
    remainder). A run-terminating value writes a marker and the zeros of
    the unfinished run as its remainder; a literal writes k = 0."""
    if pending == 0 and kp < 8:  # k = 0: a literal
        return (max(kp - 3, 0), 0, 0, 0, 0, 0) if value else (kp + 3, 0, 1, 0, 0, 0)
    if value:  # terminates the run
        return max(kp - 6, 0), 0, 0, 0, kp >> 3, pending
    pending += 1
    if pending == 1 << (kp >> 3):  # a complete run of 2^k zeros
        return min(kp + 4, 80), 0, 0, 1, 0, 0
    return kp, pending, 0, 0, 0, 0


def _kp_after(values) -> tuple[int, int]:
    kp, pending = 8, 0
    for v in values:
        kp, pending, *_ = _walk(kp, pending, v)
    return kp, pending


def test_episode_table_matches_the_state_machine():
    *columns, rows = coeff_codec._episode_table()
    literals, runs, k, rest, after = (list(map(int, c)) for c in (*columns, b"".join(rows)))
    clip = coeff_codec._GAP_CLIP
    assert len(rows) == 81
    assert {len(c) for c in (literals, runs, k, rest, after)} == {81 * (clip + 1)}
    for kp in range(81):
        state, zeros = (kp, 0), (0, 0)
        for gap in range(2101):
            # a gap past the clip adds its extra zeros to the remainder and
            # carries whole runs of 2^10
            at = kp * (clip + 1) + min(gap, clip)
            carry = rest[at] + max(gap - clip, 0)
            kp_after, _, _, _, marker, remainder = _walk(*state, 1)
            assert (literals[at], runs[at] + (carry >> 10), k[at], carry & 1023, after[at]) == (
                *zeros, marker, remainder, kp_after
            )
            *state, literal, run, _, _ = _walk(*state, 0)
            zeros = (zeros[0] + literal, zeros[1] + run)
    # the clip is exact: from every kp the longest gap ends in one state,
    # with its marker at the largest k
    ends = {(k[at], after[at]) for at in range(clip, len(k), clip + 1)}
    assert ends == {(coeff_codec._KMAX, coeff_codec._KPMAX - 6)}


def _krp_after(krp: int, arg: int) -> int:
    """krp after a Golomb-Rice code of argument ``arg``, one value at a time."""
    vk = arg >> (krp >> 3)
    if vk == 0:
        return max(krp - 2, 0)
    return krp if vk == 1 else min(krp + vk, 80)


def test_krp_table_matches_the_scalar_rule():
    rows = coeff_codec._krp_next()
    clip = coeff_codec._ARG_CLIP
    assert len(rows) == 81 and {len(row) for row in rows} == {clip + 1}
    for krp, row in enumerate(rows):
        assert list(row) == [_krp_after(krp, arg) for arg in range(clip + 1)]
        # the clip column stands for every larger argument
        for arg in (clip + 1, 2 * clip - 1, 2 * clip, 2**40, 2**64 - 1):
            assert _krp_after(krp, arg) == row[clip]


def _code_word(text: str, kr: int, terminator: bool) -> tuple[int, int, int] | None:
    """(length, argument, value) of the code word at the head of ``text``,
    a '0'/'1' string, or None when it does not end inside ``text``."""
    lead = int(terminator)
    vk = len(text[lead:]) - len(text[lead:].lstrip("1"))
    length = lead + vk + 1 + kr
    if length > len(text):
        return None
    arg = vk << kr | int(text[lead + vk + 1 : length] or "0", 2)
    return length, arg, (-arg - 1 if text[0] == "1" else arg + 1) if terminator else _unzigzag(arg)


def _unzigzag(arg: int) -> int:
    return arg // 2 if arg % 2 == 0 else -(arg + 1) // 2


def test_code_tables_match_the_scalar_code():
    width = coeff_codec._W
    tables = coeff_codec._code_tables()
    assert len(tables) == 81 and len({id(table) for table in tables}) == 11
    for kr in range(11):
        table = tables[8 * kr]
        assert all(tables[krp] is table for krp in range(8 * kr, min(8 * kr + 8, 81)))
        assert table.format == "H" and len(table) == 1 << width
        for window, entry in enumerate(table):
            text = format(window, f"0{width}b")
            length, arg = entry & 15, entry >> 4
            # a literal: the word at the window, its argument unzigzagged
            word = _code_word(text, kr, terminator=False)
            assert entry == 0 if word is None else (length, arg, _unzigzag(arg)) == word
            # a run terminator: its sign bit, then the word at the next window
            for sign in "01":
                word = _code_word(sign + text, kr, terminator=True)
                assert (entry == 0 if word is None
                        else (1 + length, arg, -arg - 1 if sign == "1" else arg + 1) == word)


def _prefixes_to_literal_mode() -> dict[int, list[int]]:
    """A shortest value sequence that leaves kp at each value below 8 with
    no run pending."""
    found: dict[int, list[int]] = {}
    frontier = [[]]
    while len(found) < 8:
        frontier = [p + [v] for p in frontier for v in (0, 1)]
        for p in frontier:
            kp, pending = _kp_after(p)
            if kp < 8 and pending == 0:
                found.setdefault(kp, p)
    return found


_TOP, _BOTTOM = 2**63 - 1, -(2**63)


def _assert_matches_reference(values, reference):
    v = np.array(values, dtype=np.int64)
    assert rlgr_encode(v) == reference(values)
    assert rlgr_decode(rlgr_encode(v), as_array=True).tolist() == list(values)


@pytest.mark.parametrize("zeros", [0, 1, 2, 3])
@pytest.mark.parametrize("value", [1, -1, 5, -300, 2**40, _TOP, _BOTTOM])
def test_zero_literals_before_a_nonzero_from_every_literal_state(zeros, value,
                                                                 reference_rlgr_encode):
    prefixes = _prefixes_to_literal_mode()
    assert sorted(prefixes) == list(range(8))
    for prefix in prefixes.values():
        for tail in ([], [7, 0, -2], [0] * 5):
            values = prefix + [0] * zeros + [value] + tail
            _assert_matches_reference(values, reference_rlgr_encode)


@pytest.mark.parametrize("gap", [2045, 2046, 2047, 2048, 2049])
def test_gaps_around_the_table_clip(gap, reference_rlgr_encode):
    for prefix in [[], [3], [1, 1], [1, 1, 1, 1], [0, 0, 9]]:
        for value in (1, -4, _TOP, _BOTTOM):
            values = prefix + [0] * gap + [value] + [0] * gap + [2, 0, 0]
            _assert_matches_reference(values, reference_rlgr_encode)


@pytest.mark.parametrize(
    "values",
    [[0] * 10**6, [3] + [0] * 10**6, [0] * 10**6 + [-7] + [0] * 10**6,
     [1, -1] * 4 + [0] * (10**6 + 1023)],
    ids=["zeros", "value-then-zeros", "zeros-value-zeros", "literals-then-zeros"],
)
def test_long_trailing_runs(values, reference_rlgr_encode):
    _assert_matches_reference(values, reference_rlgr_encode)


def test_int64_extremes_in_both_modes(reference_rlgr_encode):
    prefixes = [[], *_prefixes_to_literal_mode().values()]
    for prefix in prefixes:
        for pair in ([_TOP, _BOTTOM], [_BOTTOM, _TOP], [_TOP, _TOP], [_BOTTOM, _BOTTOM]):
            for gap in (0, 1, 3, 40):
                values = prefix + [pair[0]] + [0] * gap + [pair[1]] + [0] * gap
                _assert_matches_reference(values, reference_rlgr_encode)


_sparse_int64 = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 4), st.integers(0, 2100)),
        st.one_of(st.integers(-40, 40), st.integers(-(2**63), 2**63 - 1)),
    ),
    max_size=40,
).map(lambda pairs: [x for gap, v in pairs for x in [0] * gap + [v]])


@settings(max_examples=200, deadline=None)
@given(values=_sparse_int64, trailing=st.integers(0, 3000))
def test_encoder_matches_the_scalar_reference(values, trailing, reference_rlgr_encode):
    values = values + [0] * trailing
    assert rlgr_encode(np.array(values, dtype=np.int64)) == reference_rlgr_encode(values)


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


# ------------------------------------------------- rlgr decoder error contract


def _bits(text: str, count: int) -> RlgrPayload:
    """A payload holding ``text`` ('0'/'1' characters) MSB-first, zero-padded."""
    text += "0" * (-len(text) % 8)
    data = bytes(int(text[i : i + 8], 2) for i in range(0, len(text), 8))
    return RlgrPayload(data=data, count=count)


# The decoder starts in run mode with k = kr = 1: a "1" marker, a 1-bit run
# remainder, a sign bit, then a Golomb-Rice code of |value| - 1 whose unary
# prefix escapes after 32 ones into an 8-bit length and that many raw bits.
@pytest.mark.parametrize(
    "payload, message, offset",
    [
        (_bits("", 1), "payload exhausted at bit offset 0", 0),
        (_bits("100" + "1" * 20, 1), "payload exhausted at bit offset 24", 24),
        (_bits("100" + "1" * 32 + "0" * 8, 1),
         "escape code with zero bit-length at bit offset 43", 43),
        (_bits("100" + "1" * 32 + "01000000" + "1" * 64, 1),
         "escaped value beyond the int64 range at bit offset 107", 107),
        # full run: one "0" stands for 2^k = 2 zeros, but only one is left
        (_bits("0", 1), "zero run exceeds remaining count at bit offset 1", 1),
        # remainder: two full runs raise k to 2, then remainder 3 > 1 left
        (_bits("00111", 5), "zero run exceeds remaining count at bit offset 5", 5),
        # [0] codes as "11"; one more byte leaves 14 bits unread
        (RlgrPayload(data=b"\xc0\x00", count=1),
         "14 unread bits after decoding 1 values at bit offset 2", 2),
        (RlgrPayload(data=b"\xc1", count=1), "nonzero padding bit at offset 7", 7),
    ],
)
def test_decoder_error_messages_and_offsets(payload, message, offset):
    with pytest.raises(CorruptStreamError) as exc:
        rlgr_decode(payload)
    assert str(exc.value) == message
    assert exc.value.offset == offset


def test_zero_literal_in_escape_form_decodes():
    # [1, 0, 0, 7]: a terminator in run mode, then two zero literals at kr = 0
    # and the literal 7; the escape form of the first zero (32 ones, m = 1,
    # raw bit "0") is longer than its code but valid, and only a stream the
    # encoder did not write can hold it
    canonical = "10000" + "0" + "0" + "1001111110"
    assert rlgr_encode([1, 0, 0, 7]).data == _bits(canonical, 4).data
    escaped = canonical[:5] + "1" * 32 + "00000001" + "0" + canonical[6:]
    assert rlgr_decode(_bits(escaped, 4)) == [1, 0, 0, 7]


def test_payload_count_must_not_be_negative():
    with pytest.raises(InvalidInputError, match="negative payload count -1"):
        RlgrPayload(b"", -1)


def test_run_remainder_past_the_end_is_exhausted_before_it_overflows():
    # six complete runs take 28 zeros and raise k to 4; the remainder after
    # the "1" marker at bit 6 runs 3 bits past the payload, and with zeros
    # there it reads 8, more than the 2 values left
    with pytest.raises(CorruptStreamError) as exc:
        rlgr_decode(_bits("00000011", 30))
    assert str(exc.value) == "payload exhausted at bit offset 8"
    assert exc.value.offset == 8


def test_decoder_memory_is_bounded_by_the_payload():
    # a huge count must not be allocated before the bits account for it
    with pytest.raises(CorruptStreamError) as exc:
        rlgr_decode(RlgrPayload(b"\x00", count=2**40))
    assert str(exc.value) == "payload exhausted at bit offset 8"
    assert exc.value.offset == 8


def _coder_states(values):
    """(kp, zeros of the unfinished complete run, krp) before each value and
    after the last, from the scalar kp and krp state machines."""
    kp, pending, krp = 8, 0, 8
    yield kp, pending, krp
    for v in values:
        literal = pending == 0 and kp < 8
        if literal or v:
            arg = (2 * v if v >= 0 else -2 * v - 1) if literal else abs(v) - 1
            krp = _krp_after(krp, arg)
        kp, pending, *_ = _walk(kp, pending, v)
        yield kp, pending, krp


def _trace(values) -> list[tuple[bool, int] | None]:
    """(literal, kr) of each value that codes a Golomb-Rice word, and None
    for a zero inside a run."""
    out = []
    for v, (kp, pending, krp) in zip(values, _coder_states(values)):
        literal = pending == 0 and kp < 8
        out.append((literal, krp >> 3) if literal or v else None)
    return out


def _word_prefixes(kr: int) -> list[list[int]]:
    """Value sequences after which a nonzero codes with kr, in many bit
    lengths: zeros and run terminators 3 that keep krp at 8, then one
    terminator v0 that sets krp to 6 or 8 kr + 4, then literals that keep
    it there."""
    krp = 6 if kr == 0 else min(8 * kr + 4, 80)
    v0 = 1 if kr == 0 else 2 * (krp - 8) + 1
    fill = _unzigzag(1 << kr)
    return [[0] * lead + [3] * m + [v0] + [fill] * m1 for m1 in range(4)
            for m in range(8) for lead in [*range(40), 100, 300, 1000]]


def _window_edge_cases(stream) -> list[list[int]]:
    """For every kr, a literal and a run terminator whose code word is _W
    and _W + 1 bits long (a terminator's counts its sign bit), as the last
    code word of a payload and followed by padding and zero values, so that
    it starts at each of the last _W + 1 offsets it can start at: end -
    length - j for j = 0.._W. j < 8 is padding alone, which every case
    reaches; a larger j needs a code word after it of at most j bits,
    which a literal at a large kr cannot have."""
    width = coeff_codec._W
    cases = []
    for kr in range(11):
        prefixes = _word_prefixes(kr)  # they shift where the code word starts
        for terminator in (False, True):
            for length in (width, width + 1):
                vk = length - 1 - kr - terminator
                arg = vk << kr | 0x555 & (1 << kr) - 1
                value = (-1) ** length * (arg + 1) if terminator else _unzigzag(arg)
                found = {}  # bits from the code word's end to the payload's
                for prefix in prefixes:
                    head = prefix + [value]
                    if _trace(head)[-1] != (not terminator, kr):
                        continue
                    start = stream(head)[1] - length
                    if -(start + length) % 8 in found:
                        continue
                    for zeros in range(24):
                        payload, _ = stream(head + [0] * zeros)
                        after = 8 * len(payload.data) - start - length
                        if after <= width:
                            found.setdefault(after, head + [0] * zeros)
                    if len(found) > width:
                        break
                assert sorted(found)[:8] == list(range(8)), (kr, terminator, length, found)
                cases += [found[after] for after in sorted(found)]
    return cases


# sha256 over each window-edge payload and the outcome, (message, offset)
# or the decoded list, of each of its byte truncations, as the decoder
# that read every code word through str.find produced them
_WINDOW_EDGE_DIGEST = "89321aa49efe302c798ea008174d925b9baf4cd3a987c7c4c49b67dbdb4de3d2"


def test_code_words_at_the_window_edges(reference_rlgr_stream):
    h = hashlib.sha256()
    for values in _window_edge_cases(reference_rlgr_stream):
        payload, _ = reference_rlgr_stream(values)
        assert rlgr_encode(values) == payload
        assert _decode_both_ways(payload) == [values, values]
        h.update(payload.data)
        for cut in range(len(payload.data)):
            outcomes = _decode_both_ways(RlgrPayload(payload.data[:cut], payload.count))
            assert outcomes[0] == outcomes[1]
            h.update(repr(outcomes[0]).encode())
    assert h.hexdigest() == _WINDOW_EDGE_DIGEST


def _tails(head, end, stream) -> list[list[int]]:
    """Values to follow ``head``, whose last code word ends at bit ``end``:
    0-8 zero literals or complete runs, alone and with one more value after
    them whose code word ends with the payload's last byte, 8 to
    _ESC + _W - 1 bits after ``end``; its unary prefix vk sets its length
    one bit per step."""
    *_, (kp, _, krp) = _coder_states(head)
    tails, zeros = [], 0
    for _ in range(9):
        literal, kr = kp < 8, krp >> 3

        def value(vk):
            return _unzigzag(vk << kr) if literal else (vk << kr) + 1

        base = stream(head + [0] * zeros + [value(0)])[1] - end
        tails.append([0] * zeros)
        tails += [[0] * zeros + [value(after - base)]
                  for after in range(-end % 8 + 8, coeff_codec._ESC + coeff_codec._W, 8)
                  if 0 <= after - base < coeff_codec._ESC]
        if literal:  # one more zero literal
            zeros, kp, krp = zeros + 1, kp + 3, _krp_after(krp, 0)
        else:  # one more complete run of 2^k zeros
            zeros, kp = zeros + (1 << (kp >> 3)), min(kp + 4, 80)
    return tails


def _long_word_cases(stream) -> list[tuple[list[int], int]]:
    """For every kr, literals and run terminators whose code word is longer
    than _W bits: the shortest, one with the longest unary prefix below the
    escape, and escapes of the fewest raw bits and of 64 (a terminator's
    63). Each is the last nonzero of one payload per residue of its end
    modulo 8, and the values after it end the payload at each of the bit
    counts 0.._ESC + _W - 1 after the word that they reach: all but 8-10,
    which need a code word of at most 10 bits after it, and a literal at
    the large kr a long code word leaves cannot have one. Returns the
    values of each payload and the bit its word's episode starts at."""
    reach = coeff_codec._ESC + coeff_codec._W
    cases = []
    for kr in range(11):
        prefixes = _word_prefixes(kr)
        modes = {}  # (literal, kr) of a nonzero after each prefix
        for terminator in (False, True):
            top = 2**63 - 1 if terminator else 2**64 - 1
            for arg in ((12 - kr - terminator) << kr, 31 << kr | 1, 32 << kr, top):
                value = (-arg - 1 if arg & 1 else arg + 1) if terminator else _unzigzag(arg)
                heads = {}  # by the word's end modulo 8
                for i, prefix in enumerate(prefixes):
                    if i not in modes:
                        modes[i] = _trace(prefix + [1])[-1]
                    if modes[i] == (not terminator, kr):
                        heads.setdefault(stream(prefix + [value])[1] % 8, prefix)
                        if len(heads) == 8:
                            break
                found = {}  # bits from the word's end to the payload's
                for prefix in heads.values():
                    head = prefix + [value]
                    end = stream(head)[1]
                    for tail in _tails(head, end, stream):
                        after = 8 * len(stream(head + tail)[0].data) - end
                        if after < reach:
                            found.setdefault(after, (head + tail, stream(prefix)[1]))
                assert set(range(reach)) - set(found) <= {8, 9, 10}, (kr, terminator, arg)
                cases += [found[after] for after in sorted(found)]
    return cases


# sha256 over each long-word payload and the outcome, (message, offset) or
# the decoded list, of each of its byte truncations from the byte its
# word's episode starts in, as the decoder that read every code word
# longer than _W bits through str.find produced them
_LONG_WORD_DIGEST = "65a9c85bb610e41b611007352aa74872c77db61d4170604377d387cc86f0960d"


def test_long_code_words_at_the_payload_end(reference_rlgr_stream):
    h = hashlib.sha256()
    for values, start in _long_word_cases(reference_rlgr_stream):
        payload, _ = reference_rlgr_stream(values)
        assert _decode_both_ways(payload) == [values, values]
        h.update(payload.data)
        for cut in range(start // 8, len(payload.data)):
            try:
                outcome = rlgr_decode(RlgrPayload(payload.data[:cut], payload.count))
            except CorruptStreamError as exc:
                outcome = (str(exc), exc.offset)
            h.update(repr(outcome).encode())
    assert h.hexdigest() == _LONG_WORD_DIGEST


@pytest.mark.parametrize("as_array", [False, True])
def test_decoder_peak_memory_per_payload_byte_and_value(as_array):
    # the bound the coeff_codec docstring states. tracemalloc slows every
    # allocation, so escaped int64 values (about 105 bits each) with 11-bit
    # literals between them fill the payload at few allocations per byte
    rng = np.random.default_rng(7)
    values = rng.integers(-(2**62), 2**62, 16_000)
    values[1::2] = rng.integers(-20, 21, values.size // 2)
    payload = rlgr_encode(values)
    assert len(payload.data) > 100_000
    rlgr_decode(rlgr_encode([1]))  # the tables are built once, not per call
    tracemalloc.start()
    try:
        rlgr_decode(payload, as_array=as_array)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * len(payload.data) + 112 * payload.count


def test_import_builds_no_coder_table():
    root = str(Path(cylpc.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=root + os.pathsep + rest if rest else root)
    tables = ("_code_tables", "_krp_next", "_episode_table")
    code = ("import cylpc; from cylpc import coeff_codec as c; "
            f"print([getattr(c, t).cache_info().currsize for t in {tables}])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0]\n"


def _corrupted_payloads(kind: str, rng) -> list[RlgrPayload]:
    out = []
    for _ in range(400):
        n = int(rng.integers(1, 120))
        v = np.zeros(n, dtype=np.int64)
        hot = rng.random(n) < rng.choice([0.05, 0.3, 0.9])
        v[hot] = rng.integers(-(2**int(rng.integers(2, 62))), 2**20, hot.sum())
        base = rlgr_encode(v)
        data, count = bytearray(base.data), base.count
        if kind == "flip":
            data[rng.integers(0, len(data))] ^= 1 << int(rng.integers(0, 8))
        elif kind == "truncate":
            del data[int(rng.integers(0, len(data))):]
        elif kind == "count":
            count = max(0, count + int(rng.choice([-3, -2, -1, 1, 2, 3])))
        elif kind == "random":
            data = rng.bytes(int(rng.integers(0, 40)))
        else:  # append
            data.append(int(rng.integers(0, 256)))
        out.append(RlgrPayload(data=bytes(data), count=count))
    return out


# sha256 over the outcome of each case, (message, offset) or the decoded
# list, as the bit-at-a-time decoder produced them
_CORRUPTION_DIGESTS = {
    "flip": "4fbbdab747c609f09d22a50ebc2146b54153fc5a62d67b85d47d42c24438ccb5",
    "truncate": "d01b80823cce03f12094bc6809bc309f9c48e593fa1da979ff666d7abc924e61",
    "count": "663c7646f43d108bfe8491a1dbbd663666c760c285e964ab85c0aec7cc615051",
    "random": "a40e3dc972550c56a82133f53b648fb6e525baae4356fc050cb195e360f7fe45",
    "append": "3c22ac3457d6a570b1afb7613a5b54da3b4e8a53a144028beec2c99a8d5efaa1",
}


@pytest.mark.parametrize("kind", list(_CORRUPTION_DIGESTS))
def test_decoder_outcomes_on_corrupted_payloads_are_pinned(kind):
    rng = np.random.default_rng(list(_CORRUPTION_DIGESTS).index(kind))
    h = hashlib.sha256()
    for payload in _corrupted_payloads(kind, rng):
        try:
            outcome = rlgr_decode(payload)
        except CorruptStreamError as exc:
            outcome = (str(exc), exc.offset)
        h.update(repr(outcome).encode())
    assert h.hexdigest() == _CORRUPTION_DIGESTS[kind]


# --------------------------------------------- rlgr decoder to an int64 array


def _decode_both_ways(payload: RlgrPayload):
    """The outcome of the list path and of the array path, as (message,
    offset) or the decoded values."""
    outcomes = []
    for as_array in (False, True):
        try:
            values = rlgr_decode(payload, as_array=as_array)
        except CorruptStreamError as exc:
            outcomes.append((str(exc), exc.offset))
            continue
        assert type(values) is (np.ndarray if as_array else list)
        if as_array:
            assert values.dtype == np.int64 and values.shape == (payload.count,)
            values = values.tolist()
        outcomes.append(values)
    return outcomes


def test_decode_as_array_matches_the_list_on_the_round_trip_corpus():
    for v in _encoder_corpus():
        as_list, as_array = _decode_both_ways(rlgr_encode(v))
        assert as_list == as_array == v.tolist()


@pytest.mark.parametrize("kind", list(_CORRUPTION_DIGESTS))
def test_decode_as_array_matches_the_list_on_corrupted_payloads(kind):
    rng = np.random.default_rng(list(_CORRUPTION_DIGESTS).index(kind))
    errors = 0
    for payload in _corrupted_payloads(kind, rng):
        as_list, as_array = _decode_both_ways(payload)
        assert as_list == as_array
        errors += isinstance(as_list, tuple)
    assert errors > 0
