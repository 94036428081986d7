"""Hierarchical attribute transform: orthonormality, inversion, ordering."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from cylpc import (
    CoefficientStream,
    InvalidInputError,
    deserialize,
    octree_from_leaf_codes,
    raht_forward_arrays,
    raht_inverse_arrays,
    raht_schedule,
    serialize,
)
from cylpc.morton import morton_encode
from cylpc.raht import _bit_length


def random_instance(rng, depth=None, max_n=400, max_weight=50):
    depth = depth or int(rng.integers(1, 8))
    n = int(rng.integers(1, max_n + 1))
    codes = np.unique(rng.integers(0, 8**depth, n))
    attrs = rng.uniform(0.0, 255.0, codes.size)
    weights = rng.integers(1, max_weight + 1, codes.size)
    return codes, attrs, weights, depth


def leaf_codes(indices, depth):
    """Interleaved codes of per-axis leaf indices."""
    return morton_encode(np.array(indices, dtype=np.int64))


def test_single_leaf_is_pure_dc():
    coeffs = raht_forward_arrays(
        raht_schedule(leaf_codes([(1, 2, 3)], 4), np.array([9]), 4), np.array([77.5])
    )
    assert coeffs.dc == 77.5
    assert coeffs.highs.size == 0


def test_two_sibling_butterfly_hand_values():
    codes = leaf_codes([(0, 0, 0), (1, 0, 0)], 1)
    coeffs = raht_forward_arrays(raht_schedule(codes, np.ones(2), 1), np.array([4.0, 8.0]))
    assert coeffs.dc == pytest.approx(12.0 / math.sqrt(2.0), rel=1e-12)  # 8.485281
    assert coeffs.highs[0] == pytest.approx(4.0 / math.sqrt(2.0), rel=1e-12)  # 2.828427
    assert coeffs.dc == pytest.approx(8.485281, abs=1e-6)
    assert coeffs.highs[0] == pytest.approx(2.828427, abs=1e-6)


def test_constant_signal_is_pure_dc():
    rng = np.random.default_rng(0)
    depth = 4
    codes = np.unique(rng.integers(0, 8**depth, 100))
    n = codes.size
    a = 31.25
    coeffs = raht_forward_arrays(raht_schedule(codes, np.ones(n), depth), np.full(n, a))
    assert coeffs.dc == pytest.approx(a * math.sqrt(n), rel=1e-12)
    np.testing.assert_allclose(coeffs.highs, 0.0, atol=1e-9)


def test_weighted_butterfly_sign_convention():
    # low = (sqrt(w1) a1 + sqrt(w2) a2) / sqrt(w1 + w2),
    # high = (-sqrt(w2) a1 + sqrt(w1) a2) / sqrt(w1 + w2)
    codes = leaf_codes([(0, 0, 0), (1, 0, 0)], 1)
    coeffs = raht_forward_arrays(
        raht_schedule(codes, np.array([3, 1]), 1), np.array([10.0, 20.0])
    )
    s3, s1, s4 = math.sqrt(3.0), 1.0, math.sqrt(4.0)
    assert coeffs.dc == pytest.approx((s3 * 10.0 + s1 * 20.0) / s4, rel=1e-12)
    assert coeffs.highs[0] == pytest.approx((-s1 * 10.0 + s3 * 20.0) / s4, rel=1e-12)


def test_orthonormality_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(200):
        codes, attrs, weights, depth = random_instance(rng)
        coeffs = raht_forward_arrays(raht_schedule(codes, weights, depth), attrs)
        energy_in = float(np.dot(attrs, attrs))
        energy_out = coeffs.dc**2 + float(np.dot(coeffs.highs, coeffs.highs))
        assert abs(energy_out - energy_in) / energy_in <= 1e-9
        assert coeffs.count == codes.size


def test_round_trip_random_instances():
    rng = np.random.default_rng(2)
    for _ in range(200):
        codes, attrs, weights, depth = random_instance(rng)
        schedule = raht_schedule(codes, weights, depth)
        coeffs = raht_forward_arrays(schedule, attrs)
        back = raht_inverse_arrays(coeffs, schedule)
        assert np.abs(back - attrs).max() <= 1e-9


def test_dc_closed_form():
    # the butterfly propagates sqrt-weighted sums: dc = sum(sqrt(w) a) / sqrt(sum w);
    # at unit weights this is the scaled mean sum(a) / sqrt(n)
    rng = np.random.default_rng(3)
    for _ in range(50):
        codes, attrs, weights, depth = random_instance(rng, max_n=100)
        coeffs = raht_forward_arrays(raht_schedule(codes, weights, depth), attrs)
        expected = float(np.dot(np.sqrt(weights), attrs)) / math.sqrt(float(weights.sum()))
        assert coeffs.dc == pytest.approx(expected, rel=1e-9)


def test_dc_is_scaled_mean_at_unit_weights():
    rng = np.random.default_rng(30)
    codes = np.unique(rng.integers(0, 8**4, 200))
    attrs = rng.uniform(0.0, 255.0, codes.size)
    ones = np.ones(codes.size)
    coeffs = raht_forward_arrays(raht_schedule(codes, ones, 4), attrs)
    expected = float(attrs.sum()) / math.sqrt(codes.size)
    assert coeffs.dc == pytest.approx(expected, rel=1e-12)


def test_linearity():
    rng = np.random.default_rng(4)
    codes, _, weights, depth = random_instance(rng, max_n=200)
    x = rng.uniform(-100.0, 100.0, codes.size)
    y = rng.uniform(-100.0, 100.0, codes.size)
    alpha, beta = 2.5, -0.75
    schedule = raht_schedule(codes, weights, depth)
    tx = raht_forward_arrays(schedule, x)
    ty = raht_forward_arrays(schedule, y)
    tz = raht_forward_arrays(schedule, alpha * x + beta * y)
    assert tz.dc == pytest.approx(alpha * tx.dc + beta * ty.dc, rel=1e-9, abs=1e-9)
    np.testing.assert_allclose(
        tz.highs, alpha * tx.highs + beta * ty.highs, rtol=1e-9, atol=1e-9
    )


def test_transform_depends_only_on_index_structure():
    # identical index sets under Cartesian and cylindrical configs give
    # byte-identical coefficients; the transform never sees the config
    rng = np.random.default_rng(5)
    codes, attrs, weights, depth = random_instance(rng, max_n=150)
    a = raht_forward_arrays(raht_schedule(codes, weights, depth), attrs)
    b = raht_forward_arrays(
        raht_schedule(codes.copy(), weights.copy(), depth), attrs.copy()
    )
    assert a.dc == b.dc
    np.testing.assert_array_equal(a.highs, b.highs)


def test_inverse_through_octree_geometry():
    rng = np.random.default_rng(6)
    depth = 5
    codes = np.unique(rng.integers(0, 8**depth, 300))
    attrs = rng.uniform(0.0, 255.0, codes.size)
    weights = rng.integers(1, 20, codes.size)
    coeffs = raht_forward_arrays(raht_schedule(codes, weights, depth), attrs)
    leaves = octree_from_leaf_codes(codes, depth).leaves
    back = raht_inverse_arrays(coeffs, raht_schedule(leaves, weights, depth))
    assert back.size == codes.size
    np.testing.assert_allclose(back, attrs, atol=1e-9)


def test_geometry_only_octree_implies_unit_weights():
    # the decoder sees only the occupancy bytes and runs at unit weights
    rng = np.random.default_rng(7)
    depth = 3
    codes = np.unique(rng.integers(0, 8**depth, 40))
    attrs = rng.uniform(0.0, 255.0, codes.size)
    coeffs = raht_forward_arrays(raht_schedule(codes, np.ones(codes.size), depth), attrs)
    leaves = deserialize(serialize(octree_from_leaf_codes(codes, depth)), depth).leaves
    got = raht_inverse_arrays(coeffs, raht_schedule(leaves, np.ones(leaves.size), depth))
    np.testing.assert_allclose(got, attrs, atol=1e-9)


def test_high_pass_emission_order_is_deepest_axis0_first():
    # four leaves pairing along axis0 at the deepest pass: the first two
    # highs come from those pairs in ascending code order
    codes = leaf_codes([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], 1)
    np.testing.assert_array_equal(codes, [0, 1, 2, 3])
    coeffs = raht_forward_arrays(
        raht_schedule(codes, np.ones(4), 1), np.array([1.0, 5.0, 2.0, 10.0])
    )
    r2 = math.sqrt(2.0)
    assert coeffs.highs[0] == pytest.approx((5.0 - 1.0) / r2, rel=1e-12)
    assert coeffs.highs[1] == pytest.approx((10.0 - 2.0) / r2, rel=1e-12)
    # the final high comes from the axis1 pass over the two merged nodes
    low_a = (1.0 + 5.0) / r2
    low_b = (2.0 + 10.0) / r2
    assert coeffs.highs[2] == pytest.approx((low_b - low_a) / r2, rel=1e-12)


def test_pass_numbers_are_exact_at_the_float_rounding_edge():
    # from 2^53 on, 2^k - 1 rounds up to 2^k as a float64; 2^63 - 1 is the
    # largest code difference a depth-21 leaf set can have, and RLGR takes
    # the bit lengths of escaped uint64 magnitudes up to 2^64 - 1
    for dtype, top in ((np.int64, 63), (np.uint64, 64)):
        values = sorted({v for k in range(top + 1) for v in (2**k - 1, 2**k, 2**k + 1)
                         if 0 < v < 2**top})
        lengths = _bit_length(np.array(values, dtype=dtype))
        assert lengths.dtype == np.int8
        assert lengths.tolist() == [v.bit_length() for v in values]


def test_count_mismatch_rejected():
    leaves = octree_from_leaf_codes(np.array([0, 1, 2]), 1).leaves
    with pytest.raises(InvalidInputError, match="2 coefficients for 3 leaves"):
        raht_inverse_arrays(
            CoefficientStream(dc=1.0, highs=np.zeros(1)),
            raht_schedule(leaves, np.ones(3), 1),
        )


def test_duplicate_and_unsorted_leaves_rejected():
    with pytest.raises(InvalidInputError, match="duplicate"):
        raht_schedule(leaf_codes([(0, 0, 0), (0, 0, 0)], 1), np.ones(2), 1)
    with pytest.raises(InvalidInputError):
        raht_schedule(np.array([3, 1]), np.ones(2), 1)
    with pytest.raises(InvalidInputError):
        raht_schedule(np.array([], dtype=np.int64), np.array([]), 1)



@pytest.mark.parametrize("depth", [1, 3, 20])
def test_codes_outside_the_tree_rejected(depth):
    # 8^depth needs one more level; a negative code has the sign bit set
    for codes in ([0, 8**depth], [-1, 0], [-(8**depth), 8**depth - 1]):
        with pytest.raises(InvalidInputError, match="did not reduce to a single root"):
            raht_schedule(np.array(codes, dtype=np.int64), np.ones(2), depth)

def _golden_instances(kind, rng):
    """Seeded leaf sets: shallow trees with integer or float weights, or
    deep trees at unit weights whose codes reach 0 and 8^depth - 1."""
    if kind in ("int", "float"):
        for depth in range(1, 9):
            for _ in range(25):
                n = int(rng.integers(1, 300))
                codes = np.unique(rng.integers(0, 8**depth, n))
                if kind == "int":
                    weights = rng.integers(1, 51, codes.size)
                else:
                    weights = rng.uniform(1.0, 50.0, codes.size)
                yield codes, rng.uniform(0.0, 255.0, codes.size), weights, depth
        return
    for depth in range(16, 22):
        top = 8**depth - 1
        for clustered in (False, True):
            if clustered:
                base = rng.integers(0, top - 4096, 6)
                codes = (base[:, None] + rng.integers(0, 4096, (6, 200))).ravel()
            else:
                codes = rng.integers(0, top, 1500, dtype=np.int64)
            codes = np.unique(np.r_[0, codes, top])
            attrs = rng.uniform(0.0, 255.0, codes.size)
            yield codes, attrs, np.ones(codes.size), depth


# sha256 over the dc, the highs and the inverse output of every instance,
# as the per-pass compacting transform produced them
_TRANSFORM_DIGESTS = {
    "int": "16e5dbb3608224237d6f4b3ab6dc26fa02b513974032c3df70c11718788378fd",
    "float": "2a96b174b5d943959c457b9ef469ef7b732579bb03fe60c2e0a962a0f02c384a",
    "deep": "76784f8b371afb30eec86bd39a726a57bf6e34058d8498fc0dcc758f945ce7f8",
}


@pytest.mark.parametrize("kind", list(_TRANSFORM_DIGESTS))
def test_transform_output_is_pinned(kind):
    rng = np.random.default_rng(list(_TRANSFORM_DIGESTS).index(kind))
    h = hashlib.sha256()
    for codes, attrs, weights, depth in _golden_instances(kind, rng):
        schedule = raht_schedule(codes, weights, depth)
        coeffs = raht_forward_arrays(schedule, attrs)
        h.update(np.float64(coeffs.dc).tobytes())
        h.update(coeffs.highs.tobytes())
        h.update(raht_inverse_arrays(coeffs, schedule).tobytes())
    assert h.hexdigest() == _TRANSFORM_DIGESTS[kind]


def test_misaligned_arrays_rejected():
    codes = np.array([0, 1, 2])
    with pytest.raises(InvalidInputError, match=r"attributes of shape \(2,\) for 3 leaves"):
        raht_forward_arrays(raht_schedule(codes, np.ones(3), 1), np.ones(2))
    with pytest.raises(InvalidInputError, match=r"weights of shape \(4,\) for 3 leaves"):
        raht_schedule(codes, np.ones(4), 1)
    with pytest.raises(InvalidInputError, match=r"weights of shape \(2,\) for 3 leaves"):
        raht_schedule(codes, np.ones(2), 1)
    with pytest.raises(InvalidInputError, match=r"weights of shape \(3, 1\) for 3 leaves"):
        raht_schedule(codes, np.ones((3, 1)), 1)


@pytest.mark.parametrize("depth", [-1, 0, 22, 30])
def test_depth_outside_octree_range_rejected(depth):
    with pytest.raises(InvalidInputError, match=rf"depth {depth} outside \[1, 21\]"):
        raht_schedule(np.array([0, 1]), np.ones(2), depth)


@pytest.mark.parametrize(
    "bad,message",
    [(math.nan, "finite"), (math.inf, "finite"), (-math.inf, "finite"), (0.5, ">= 1")],
)
def test_bad_weights_rejected(bad, message):
    weights = np.array([1.0, bad, 2.0])
    with pytest.raises(InvalidInputError, match=f"leaf weights must be {message}"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raht_schedule(np.array([0, 1, 2]), weights, 1)
