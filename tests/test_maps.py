import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chaosimg.errors import InvalidStateError
from chaosimg.maps import (
    BLOCK,
    MAX_TRANSIENT,
    MapId,
    MapParams,
    default_map1,
    default_map2,
    fill,
    permutation_from_sequence,
    quantize_to_bytes,
    step_function,
)


class TestStepMap1:
    def test_origin_with_r_zero(self):
        p = MapParams(map_id=MapId.MAP1, r=0.0)
        assert step_function(p)(0.0, 0.0) == (1.0, 0.0)

    def test_fixed_point(self):
        # (0, pi/2) is a fixed point of the real map; in doubles pi/2 is not
        # representable, so x' = cos(float(pi/2)) lands within one ulp of 0
        p = default_map1()
        x, y = step_function(p)(0.0, math.pi / 2)
        assert y == math.pi / 2  # tanh(0) = 0 keeps y bit-exact
        assert abs(x) < 1e-15

    def test_default_seed_step(self):
        # frozen from direct arithmetic: sin(0.1)+cos(0.1), 0.1-17*tanh(0.1)
        x, y = step_function(default_map1())(0.1, 0.1)
        assert x == pytest.approx(1.094837581924854, abs=1e-12)
        assert y == pytest.approx(-1.594355908624249, abs=1e-12)


class TestStepMap2:
    def test_origin_fixed_when_offset_zero(self):
        p = MapParams(map_id=MapId.MAP2, r=5.0, a=0.0, b=0.0)
        assert step_function(p)(0.0, 0.0) == (0.0, 0.0)

    def test_default_seed_step_no_wrap(self):
        x, y = step_function(default_map2())(0.1, 0.1)
        assert x == pytest.approx(-1.065, abs=1e-12)
        assert y == pytest.approx(0.003, abs=1e-15)

    def test_wrap_applied_to_large_update(self):
        # raw x' = 3 + 9 - 1.175 = 10.825 -> minus 2*2pi
        x, y = step_function(default_map2())(3.0, 3.0)
        assert x == pytest.approx(10.825 - 4 * math.pi, abs=1e-12)
        assert y == pytest.approx(2.7, abs=1e-12)

    def test_output_always_in_range(self):
        advance = step_function(default_map2())
        s = (0.1, 0.1)
        for _ in range(1000):
            s = advance(*s)
            assert -math.pi <= s[0] < math.pi
            assert -math.pi <= s[1] < math.pi


def test_wrap_angle_half_open_interval():
    # Map 2 with r = a = b = 0 sends (v, 0) to (wrap(v), 0), where wrap(v) is
    # (v + pi) % 2pi - pi, the reduction into [-pi, pi)
    advance = step_function(MapParams(map_id=MapId.MAP2, r=0.0, a=0.0, b=0.0))

    def wrap_angle(v):
        return advance(v, 0.0)[0]

    assert wrap_angle(math.pi) == -math.pi
    assert wrap_angle(-math.pi) == -math.pi
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3 * math.pi) == -math.pi


def sequence(p, length):
    """`length` post-transient (x, y) states from the seed, through `fill`."""
    xs, ys = np.empty(length), np.empty(length)
    fill(p, (p.x0, p.y0), xs, ys, skip=p.transient)
    return xs, ys


class TestGenerateSequence:
    def test_transient_zero_first_element_is_one_step(self):
        p = MapParams(map_id=MapId.MAP1, r=17.0, transient=0)
        xs, ys = sequence(p, 1)
        assert (xs[0], ys[0]) == step_function(p)(p.x0, p.y0)

    def test_transient_discard_matches_step_loop_oracle(self):
        p = default_map1()
        advance = step_function(p)
        xs, ys = sequence(p, 5)
        s = (p.x0, p.y0)
        for _ in range(p.transient + 1):
            s = advance(*s)
        assert xs[0] == s[0] and ys[0] == s[1]
        for i in range(1, 5):
            s = advance(*s)
            assert xs[i] == s[0] and ys[i] == s[1]

    def test_map2_matches_step_loop_oracle(self):
        p = default_map2()
        advance = step_function(p)
        xs, ys = sequence(p, 3)
        s = (p.x0, p.y0)
        for _ in range(p.transient + 1):
            s = advance(*s)
        assert xs[0] == s[0] and ys[0] == s[1]

    def test_deterministic(self):
        p = default_map2()
        ax, ay = sequence(p, 64)
        bx, by = sequence(p, 64)
        assert np.array_equal(ax, bx) and np.array_equal(ay, by)

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            fill(default_map1(), (0.1, 0.1), np.empty(0), np.empty(0))

    def test_map2_long_run_stays_bounded(self):
        xs, ys = sequence(default_map2(), 100_000)
        assert np.isfinite(xs).all() and np.isfinite(ys).all()
        assert xs.min() >= -math.pi and xs.max() < math.pi
        assert ys.min() >= -math.pi and ys.max() < math.pi


class TestQuantize:
    def test_zero(self):
        assert quantize_to_bytes([0.0])[0] == 0

    def test_one_maps_to_zero(self):
        # 1e12 is divisible by 256 (checked with big-integer mod)
        assert 10**12 % 256 == 0
        assert quantize_to_bytes([1.0])[0] == 0

    def test_negative_epsilon_wraps(self):
        assert quantize_to_bytes([-1.0e-12])[0] == 255

    def test_half_away_from_zero(self):
        assert quantize_to_bytes([0.5e-12])[0] == 1
        assert quantize_to_bytes([-0.5e-12])[0] == 255

    def test_range_always_byte(self):
        rng = np.random.default_rng(7)
        vals = rng.uniform(-1000, 1000, size=5000)
        q = quantize_to_bytes(vals)
        assert q.dtype == np.uint8

    def test_modular_periodicity(self):
        rng = np.random.default_rng(8)
        base = np.round(rng.uniform(-5, 5, size=200) * 1e12) / 1e12
        for k in (1, -3, 17):
            shifted = base + k * 256e-12
            assert np.array_equal(quantize_to_bytes(base), quantize_to_bytes(shifted))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidStateError):
            quantize_to_bytes([1.0, math.nan])

    def test_blocks_match_the_formula_per_value(self):
        rng = np.random.default_rng(12)
        vals = rng.uniform(-1e4, 1e4, 2 * BLOCK + 5)
        vals[::7] = rng.uniform(-1e-9, 1e-9, vals[::7].size)
        q = quantize_to_bytes(vals)
        assert q.shape == vals.shape
        for i in [*range(BLOCK - 3, BLOCK + 3), *rng.integers(0, vals.size, 300)]:
            v = float(vals[i])
            rounded = math.floor(abs(v) * 1e12 + 0.5)
            assert q[i] == (int(math.copysign(rounded, v)) % 256 if rounded < 2**61 else 0)

    def test_rejects_nonfinite_in_a_later_block(self):
        vals = np.zeros(BLOCK + 2)
        vals[BLOCK + 1] = math.inf
        with pytest.raises(InvalidStateError):
            quantize_to_bytes(vals)

    def test_overflowing_product_quantizes_to_zero(self):
        # 1e12 * v overflows to inf here; from 2**61 on every float is 0 mod 256
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(quantize_to_bytes([1e297, -1e297, 1.7e296])) == [0, 0, 0]
            assert list(quantize_to_bytes([2.0**61 / 1e12, -(2.0**62) / 1e12])) == [0, 0]

    def test_clamp_boundaries_match_the_reference(self):
        edges = [2.0**e / 1e12 for e in (52, 53, 61, 62, 63)]
        vals = np.array([np.nextafter(x, to) for x in edges for to in (0, x, np.inf)])
        vals = np.concatenate([vals, -vals])
        assert list(quantize_to_bytes(vals)) == [quantize_reference(v) for v in vals.tolist()]


def test_transient_bounded():
    assert MapParams(MapId.MAP1, 17.0, transient=MAX_TRANSIENT).transient == MAX_TRANSIENT
    for bad in (-1, MAX_TRANSIENT + 1, 10**12):
        with pytest.raises(ValueError, match="transient"):
            MapParams(MapId.MAP1, 17.0, transient=bad)


def prefix_run_cases() -> dict[str, np.ndarray]:
    """Inputs in which some values share their packed key prefix, so the
    run fix-up decides their order."""
    rng = np.random.default_rng(14)
    # differ only in the low bits, placed across the key-building blocks
    ulps = np.arange(-6, 7) * 2.0**-52
    low_bits = rng.uniform(-4, 4, 3 * BLOCK)
    for at in (BLOCK, 2 * BLOCK):
        low_bits[at - 13:at + 13] = rng.permutation(np.concatenate([1.0 + ulps, -1.0 + ulps]))
    ties = rng.integers(0, 50, BLOCK + 7).astype(float)
    zeros = np.where(rng.random(2000) < 0.5, 0.0, -0.0)
    zeros[::9] = rng.uniform(-1, 1, zeros[::9].size)
    subnormals = rng.integers(-40, 41, 3000) * 5e-324
    tiny = 2.2250738585072014e-308  # the smallest normal float
    subnormals[::7] = rng.choice([0.0, -0.0, tiny, -tiny], subnormals[::7].size)
    big = 1.7976931348623157e308
    below = np.nextafter(big, 0)
    extremes = rng.choice([big, -big, below, -below, 0.0, -0.0, 1.0], 5000)
    extremes[::3] = big * rng.uniform(-1, 1, extremes[::3].size)
    return {"low-bits": low_bits, "ties": ties, "signed-zeros": zeros, "subnormals": subnormals,
            "extremes": extremes, "n=1": np.array([2.5]), "n=1-negative-zero": np.array([-0.0]),
            "one-zero-each": np.array([0.0, -1.0, -0.0, 1.0]),
            "n=2**b": rng.integers(-3, 4, 1024) * 0.5, "n=2**b+1": rng.integers(-3, 4, 1025) * 0.5}


class TestPermutationFromSequence:
    def test_hand_sort(self):
        assert list(permutation_from_sequence([0.5, 0.1, 0.9])) == [1, 0, 2]

    def test_stable_tie_break(self):
        assert list(permutation_from_sequence([0.3, 0.3])) == [0, 1]

    def test_matches_comparison_sort_oracle(self):
        rng = np.random.default_rng(9)
        vals = rng.uniform(-1, 1, size=1000)
        perm = permutation_from_sequence(vals)
        oracle = sorted(range(1000), key=lambda i: (vals[i], i))
        assert list(perm) == oracle
        assert sorted(perm) == list(range(1000))
        assert np.all(np.diff(vals[perm]) >= 0)

    def test_ties_take_the_stable_order(self):
        rng = np.random.default_rng(10)
        for vals in (rng.integers(0, 50, 5000).astype(float),
                     np.array([0.0, -0.0] * 100), rng.uniform(-1, 1, 5000)):
            assert np.array_equal(permutation_from_sequence(vals),
                                  np.argsort(vals, kind="stable"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            permutation_from_sequence([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, bad):
        vals = np.linspace(-1, 1, 1001)
        vals[500] = bad
        with pytest.raises(InvalidStateError):
            permutation_from_sequence(vals)

    @pytest.mark.parametrize("vals",
                             [pytest.param(v, id=k) for k, v in prefix_run_cases().items()])
    def test_prefix_runs_take_the_stable_order(self, vals):
        perm = permutation_from_sequence(vals)
        assert perm.dtype == np.int32
        assert np.array_equal(perm, np.argsort(vals, kind="stable"))

    def test_temporaries_bounded(self):
        # 8n for the words, 4n for the int32 result and n for the prefix mask
        vals = np.random.default_rng(15).uniform(-4, 4, 8 * BLOCK)
        tracemalloc.start()
        try:
            permutation_from_sequence(vals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14 * vals.size


finite = st.floats(allow_nan=False, allow_infinity=False)
# few distinct values, so duplicates, signed zeros and shared key prefixes are common
clustered = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]),
                      st.floats(1.0, 1.0 + 2**-40), st.floats(-1.0 - 2**-40, -1.0), finite)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(1, 300), elements=clustered))
def test_permutation_is_the_stable_argsort(vals):
    assert np.array_equal(permutation_from_sequence(vals), np.argsort(vals, kind="stable"))


def quantize_reference(v: float) -> int:
    """mod(round_half_away(1e12 * v), 256) in Python integers; the half is
    added to |1e12 * v| in float arithmetic, as the cipher defines it."""
    half_up = abs(v) * 1e12 + 0.5
    rounded = 0 if math.isinf(half_up) else math.floor(half_up)
    return (-rounded if v < 0 else rounded) % 256


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(1, 200),
              elements=st.one_of(finite, st.floats(-1e-9, 1e-9), st.floats(-1e7, 1e7))))
def test_quantize_matches_the_integer_reference(vals):
    assert list(quantize_to_bytes(vals)) == [quantize_reference(v) for v in vals.tolist()]
