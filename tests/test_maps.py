import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
from conftest import traced_peak


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
    cases = {"low-bits": low_bits, "ties": ties, "signed-zeros": zeros, "subnormals": subnormals,
             "extremes": extremes, "n=1": np.array([2.5]), "n=1-negative-zero": np.array([-0.0]),
             "one-zero-each": np.array([0.0, -1.0, -0.0, 1.0]),
             "n=2**b": rng.integers(-3, 4, 1024) * 0.5, "n=2**b+1": rng.integers(-3, 4, 1025) * 0.5}
    # tied over several fix-up windows: negative words sort below the bare
    # indices that the windows before leave behind; runs longer than a window
    cases["negative-ties"] = -rng.integers(1, 9, 8 * BLOCK).astype(float)
    cases["signed-ties"] = rng.integers(-20, 21, 8 * BLOCK + 3) * 0.125
    cases["runs-longer-than-a-window"] = rng.integers(0, 3, 3 * BLOCK + 5) * 0.5
    # a weak Map 2 key, a rotation by pi/3: six clusters of values a few
    # ulps apart, a slot of a 512x512 RGB image
    rotation = MapParams(MapId.MAP2, math.pi / 3, a=1.0, x0=-0.3, y0=0.0, transient=100)
    cases["map2-rotation"] = np.empty(6 * BLOCK)
    fill(rotation, (rotation.x0, rotation.y0), cases["map2-rotation"], skip=rotation.transient)
    return cases


class TestPermutationFromSequence:
    # permutation_from_sequence consumes its argument, so every call below
    # gets a fresh float64 array

    def test_hand_sort(self):
        assert list(permutation_from_sequence(np.array([0.5, 0.1, 0.9]))) == [1, 0, 2]

    def test_stable_tie_break(self):
        assert list(permutation_from_sequence(np.array([0.3, 0.3]))) == [0, 1]

    def test_matches_comparison_sort_oracle(self):
        rng = np.random.default_rng(9)
        vals = rng.uniform(-1, 1, size=1000)
        perm = permutation_from_sequence(vals.copy())
        oracle = sorted(range(1000), key=lambda i: (vals[i], i))
        assert list(perm) == oracle
        assert sorted(perm) == list(range(1000))
        assert np.all(np.diff(vals[perm]) >= 0)

    def test_ties_take_the_stable_order(self):
        rng = np.random.default_rng(10)
        for vals in (rng.integers(0, 50, 5000).astype(float),
                     np.array([0.0, -0.0] * 100), rng.uniform(-1, 1, 5000)):
            assert np.array_equal(permutation_from_sequence(vals.copy()),
                                  np.argsort(vals, kind="stable"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            permutation_from_sequence(np.empty(0))

    def test_rejects_2_to_the_31_values_before_allocating(self):
        vals = np.broadcast_to(np.float64(0.5), 2**31)  # a view of one value
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                permutation_from_sequence(vals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, bad):
        vals = np.linspace(-1, 1, 1001)
        vals[500] = bad
        with pytest.raises(InvalidStateError):
            permutation_from_sequence(vals)

    @pytest.mark.parametrize("vals",
                             [pytest.param(v, id=k) for k, v in prefix_run_cases().items()])
    def test_prefix_runs_take_the_stable_order(self, vals):
        perm = permutation_from_sequence(vals.copy())
        assert perm.dtype == np.int32
        assert np.array_equal(perm, np.argsort(vals, kind="stable"))

    def test_temporaries_bounded(self):
        # the words take the place of the values, so only the int32 result
        # grows with n; a key block, a prefix block and its comparison, and
        # the few run members of "low-bits", stay within two BLOCK-value
        # int64 temporaries
        for vals in (np.random.default_rng(15).uniform(-4, 4, 8 * BLOCK),
                     prefix_run_cases()["low-bits"]):
            _, peak = traced_peak(permutation_from_sequence, vals)
            assert peak <= 4 * vals.size + 2 * 8 * BLOCK

    def test_tied_temporaries_bounded(self):
        # nearly every value tied, as in a weak key's short periodic orbit:
        # the runs are fixed a window of about BLOCK words at a time, so
        # the temporaries stay a few BLOCK values instead of growing with n
        vals = np.random.default_rng(17).integers(0, 50, 8 * BLOCK).astype(float)
        expected = np.argsort(vals, kind="stable")
        perm, peak = traced_peak(permutation_from_sequence, vals)
        assert np.array_equal(perm, expected)
        assert peak <= 4 * vals.size + 6 * 8 * BLOCK

    def test_overwrites_its_argument_and_nothing_else(self):
        # a slice of a larger array: the words replace its values, and the
        # values around it are left alone
        rng = np.random.default_rng(16)
        around = rng.uniform(-1, 1, 3000)
        before = around.copy()
        vals = around[1000:2000]
        perm = permutation_from_sequence(vals)
        assert np.array_equal(perm, np.argsort(before[1000:2000], kind="stable"))
        assert not np.array_equal(vals, before[1000:2000])
        assert np.array_equal(around[:1000], before[:1000])
        assert np.array_equal(around[2000:], before[2000:])

    def test_refuses_what_it_cannot_overwrite_before_writing(self):
        read_only = np.linspace(-1, 1, 10)
        read_only.flags.writeable = False
        strided = np.linspace(-1, 1, 20)
        for bad in (read_only, strided[::2], np.linspace(-1, 1, 10, dtype=np.float32),
                    np.arange(10), [0.5, 0.1, 0.9]):
            before = np.array(bad, copy=True)
            with pytest.raises(ValueError):
                permutation_from_sequence(bad)
            assert np.array_equal(np.asarray(bad), before)
        assert np.array_equal(strided, np.linspace(-1, 1, 20))


finite = st.floats(allow_nan=False, allow_infinity=False)
# few distinct values, so duplicates, signed zeros and shared key prefixes are common
clustered = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]),
                      st.floats(1.0, 1.0 + 2**-40), st.floats(-1.0 - 2**-40, -1.0), finite)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(1, 300), elements=clustered))
def test_permutation_is_the_stable_argsort(vals):
    assert np.array_equal(permutation_from_sequence(vals.copy()), np.argsort(vals, kind="stable"))


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


# lengths just below, at and just above each 2**k, where the argsort's b grows
around_powers_of_two = st.integers(0, 12).flatmap(
    lambda k: st.sampled_from([2**k - 1, 2**k, 2**k + 1])).filter(bool)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_loops_match_on_clustered_values(path, data):
    vals = data.draw(arrays(np.float64, data.draw(around_powers_of_two), elements=clustered))
    assert np.array_equal(permutation_from_sequence(vals.copy()), np.argsort(vals, kind="stable"))
    assert list(quantize_to_bytes(vals)) == [quantize_reference(v) for v in vals.tolist()]


def test_one_run_of_equal_values(path):
    vals = np.full(8 * BLOCK, -0.75)
    assert np.array_equal(permutation_from_sequence(vals), np.arange(8 * BLOCK))


def test_long_runs_of_a_shared_prefix(path):
    # 8*BLOCK = 2**19 values, half of them within 2**19 ulps above 1.5 and
    # half below -1.5, with repeats, shuffled: two runs of 2**18 words
    # that share their key's prefix and differ in its low 19 bits
    rng = np.random.default_rng(18)
    half = 4 * BLOCK
    ulps = rng.integers(0, 2 * half, 2 * half)
    vals = np.concatenate([np.float64(1.5).view(np.int64) + ulps[:half],
                           np.float64(-1.5).view(np.int64) + ulps[half:]]).view(np.float64)
    vals = rng.permutation(vals)
    assert np.array_equal(permutation_from_sequence(vals.copy()), np.argsort(vals, kind="stable"))


# perfbench cipher-large seed 919's second key: Map 2 falls into short cycles
WEAK_MAP2 = MapParams(MapId.MAP2, 2.3494748700747423, a=0.4999318529093235,
                      b=0.2998222948797915, x0=0.09985798176185914, y0=0.10077438414679867)


@pytest.fixture(scope="module")
def weak_orbit():
    """The weak key's first two x segments of a 512x512 gray image, and the
    y values of the first."""
    xs, ys = np.empty((2, 2 * BLOCK)), np.empty(2 * BLOCK)
    state = fill(WEAK_MAP2, (WEAK_MAP2.x0, WEAK_MAP2.y0), xs[0], ys, skip=WEAK_MAP2.transient)
    fill(WEAK_MAP2, state, xs[1])
    return xs, ys


def test_weak_key_orbit(path, weak_orbit):
    xs, ys = weak_orbit
    assert [np.unique(x).size for x in xs] == [393, 71]
    for x in xs:
        assert np.array_equal(permutation_from_sequence(x.copy()), np.argsort(x, kind="stable"))
    for v in (xs[0], ys):
        assert list(quantize_to_bytes(v)) == [quantize_reference(u) for u in v.tolist()]


def test_quantizer_bounds(path):
    # the clamp's edges; +-0.5e-12, which rounds half away from zero; and
    # |1e12 * v| from 2**52 on, where adding 0.5 rounds the rounded product
    # (a fused multiply-add would round the exact one)
    edges = [2.0**e / 1e12 for e in (52, 53, 61, 62, 63)] + [0.5e-12, 1.5e-12]
    vals = [np.nextafter(x, to) for x in edges for to in (0, x, np.inf)]
    vals = np.concatenate([vals, np.random.default_rng(20).uniform(2**52 / 1e12, 2**54 / 1e12, 500)])
    vals = np.concatenate([vals, -vals])
    assert list(quantize_to_bytes(vals)) == [quantize_reference(v) for v in vals.tolist()]


@pytest.mark.parametrize("at", [0, 500, 1000])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_loops_reject_nonfinite(path, at, bad):
    vals = np.linspace(-1, 1, 1001)
    vals[at] = bad
    with pytest.raises(InvalidStateError):
        quantize_to_bytes(vals)
    with pytest.raises(InvalidStateError):
        permutation_from_sequence(vals)


def test_quantize_takes_lists_and_strided_arrays(path):
    vals = np.random.default_rng(19).uniform(-1e4, 1e4, 2 * BLOCK + 6)
    expected = np.array([quantize_reference(v) for v in vals.tolist()], dtype=np.uint8)
    read_only = vals.copy()
    read_only.flags.writeable = False
    assert np.array_equal(quantize_to_bytes(vals.tolist()), expected)
    assert np.array_equal(quantize_to_bytes(vals[::2]), expected[::2])
    assert np.array_equal(quantize_to_bytes(vals[::-3]), expected[::-3])
    assert np.array_equal(quantize_to_bytes(read_only), expected)
    assert np.array_equal(quantize_to_bytes(vals.reshape(2, -1).T), expected.reshape(2, -1).T)
    assert quantize_to_bytes([]).shape == (0,)
