import math
import warnings

import numpy as np
import pytest

from chaosimg.errors import InvalidStateError
from chaosimg.maps import (
    MAX_TRANSIENT,
    MapId,
    MapParams,
    default_map1,
    default_map2,
    generate_sequence,
    permutation_from_sequence,
    quantize_to_bytes,
    step,
)


class TestStepMap1:
    def test_origin_with_r_zero(self):
        p = MapParams(map_id=MapId.MAP1, r=0.0)
        assert step((0.0, 0.0), p) == (1.0, 0.0)

    def test_fixed_point(self):
        # (0, pi/2) is a fixed point of the real map; in doubles pi/2 is not
        # representable, so x' = cos(float(pi/2)) lands within one ulp of 0
        p = default_map1()
        x, y = step((0.0, math.pi / 2), p)
        assert y == math.pi / 2  # tanh(0) = 0 keeps y bit-exact
        assert abs(x) < 1e-15

    def test_default_seed_step(self):
        # frozen from direct arithmetic: sin(0.1)+cos(0.1), 0.1-17*tanh(0.1)
        x, y = step((0.1, 0.1), default_map1())
        assert x == pytest.approx(1.094837581924854, abs=1e-12)
        assert y == pytest.approx(-1.594355908624249, abs=1e-12)

    def test_rejects_nonfinite_state(self):
        with pytest.raises(InvalidStateError):
            step((math.nan, 0.0), default_map1())


class TestStepMap2:
    def test_origin_fixed_when_offset_zero(self):
        p = MapParams(map_id=MapId.MAP2, r=5.0, a=0.0, b=0.0)
        assert step((0.0, 0.0), p) == (0.0, 0.0)

    def test_default_seed_step_no_wrap(self):
        x, y = step((0.1, 0.1), default_map2())
        assert x == pytest.approx(-1.065, abs=1e-12)
        assert y == pytest.approx(0.003, abs=1e-15)

    def test_wrap_applied_to_large_update(self):
        # raw x' = 3 + 9 - 1.175 = 10.825 -> minus 2*2pi
        x, y = step((3.0, 3.0), default_map2())
        assert x == pytest.approx(10.825 - 4 * math.pi, abs=1e-12)
        assert y == pytest.approx(2.7, abs=1e-12)

    def test_output_always_in_range(self):
        p = default_map2()
        s = (0.1, 0.1)
        for _ in range(1000):
            s = step(s, p)
            assert -math.pi <= s[0] < math.pi
            assert -math.pi <= s[1] < math.pi

    def test_rejects_nonfinite_state(self):
        with pytest.raises(InvalidStateError):
            step((0.0, math.inf), default_map2())


def test_wrap_angle_half_open_interval():
    # Map 2 with r = a = b = 0 sends (v, 0) to (wrap(v), 0), where wrap(v) is
    # (v + pi) % 2pi - pi, the reduction into [-pi, pi)
    p = MapParams(map_id=MapId.MAP2, r=0.0, a=0.0, b=0.0)

    def wrap_angle(v):
        return step((v, 0.0), p)[0]

    assert wrap_angle(math.pi) == -math.pi
    assert wrap_angle(-math.pi) == -math.pi
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3 * math.pi) == -math.pi


class TestGenerateSequence:
    def test_transient_zero_first_element_is_one_step(self):
        p = MapParams(map_id=MapId.MAP1, r=17.0, transient=0)
        seq = generate_sequence(p, 1)
        assert (seq.xs[0], seq.ys[0]) == step((p.x0, p.y0), p)

    def test_transient_discard_matches_step_loop_oracle(self):
        p = default_map1()
        seq = generate_sequence(p, 5)
        s = (p.x0, p.y0)
        for _ in range(p.transient + 1):
            s = step(s, p)
        assert seq.xs[0] == s[0] and seq.ys[0] == s[1]
        for i in range(1, 5):
            s = step(s, p)
            assert seq.xs[i] == s[0] and seq.ys[i] == s[1]

    def test_map2_matches_step_loop_oracle(self):
        p = default_map2()
        seq = generate_sequence(p, 3)
        s = (p.x0, p.y0)
        for _ in range(p.transient + 1):
            s = step(s, p)
        assert seq.xs[0] == s[0] and seq.ys[0] == s[1]

    def test_deterministic(self):
        p = default_map2()
        a = generate_sequence(p, 64)
        b = generate_sequence(p, 64)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            generate_sequence(default_map1(), 0)

    def test_map2_long_run_stays_bounded(self):
        seq = generate_sequence(default_map2(), 100_000)
        assert np.isfinite(seq.xs).all() and np.isfinite(seq.ys).all()
        assert seq.xs.min() >= -math.pi and seq.xs.max() < math.pi
        assert seq.ys.min() >= -math.pi and seq.ys.max() < math.pi


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

    def test_overflowing_product_quantizes_to_zero(self):
        # 1e12 * v overflows to inf here; from 2**61 on every float is 0 mod 256
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(quantize_to_bytes([1e297, -1e297, 1.7e296])) == [0, 0, 0]
            assert list(quantize_to_bytes([2.0**61 / 1e12, -(2.0**62) / 1e12])) == [0, 0]


def test_transient_bounded():
    assert MapParams(MapId.MAP1, 17.0, transient=MAX_TRANSIENT).transient == MAX_TRANSIENT
    for bad in (-1, MAX_TRANSIENT + 1, 10**12):
        with pytest.raises(ValueError, match="transient"):
            MapParams(MapId.MAP1, 17.0, transient=bad)


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
