import hashlib
import itertools
import sys
import threading
import tracemalloc
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosimg import cipher, maps
from chaosimg.analysis import lyapunov_exponent
from chaosimg.cipher import (
    CipherEnvelope,
    ImageDims,
    KeyMaterial,
    KeySchedule,
    PlainImage,
    build_key_schedule,
    decrypt,
    default_keys,
    encrypt,
    flatten,
    unflatten,
)
from chaosimg.errors import (
    DimensionError,
    DivergenceError,
    MalformedEnvelopeError,
    PermutationError,
)
from chaosimg.maps import (
    MapId,
    MapParams,
    default_map1,
    default_map2,
    fill,
    permutation_from_sequence,
    quantize_to_bytes,
)
from conftest import perturbed, random_image

# frozen from the straight-line hand-trace oracle (run before the build):
# 2x2 grayscale rows [[1,2],[3,4]], default keys
GOLDEN_PLAIN = np.array([[1, 2], [3, 4]], dtype=np.uint8)
GOLDEN_BODY = bytes([156, 253, 31, 163])
GOLDEN_ENVELOPE = bytes.fromhex("4353453101010000000200000002009cfd1fa3")

# SHA-256 of encrypt(...).to_bytes(), recorded from the pure-Python keystream
# path; a faster map kernel must reproduce them bit for bit. The images use
# integer arithmetic only, so they do not depend on libm.
GOLDEN_DIGESTS = {
    "gray256/default": "88b4e3dd298bdb05527a05d875973c35f689cc116ff40a4812d4b322c98f7804",
    "rgb512/default": "c687e4aa36bc5556e881e06c5526145bd1a913f50ada4fc83869a97635dda239",
    "gray64x48/k1": "32c495d1a39e3f3ae4ef14bf491854d79c7bf3d8c0455678f21f2c0b34b2738c",
    "gray64x48/k2": "d80c00a9997a7764c77f35081e31d191f21d8661ca9b6cef8938b9e0b12ec307",
    "gray64x48/k3": "b4dd443b64c60d7493cde0d0d3fedb585cf80999956d607f76903913c4ae521a",
}

# map1 (r, x0, y0), map2 (r, a, b, x0, y0), transient
GOLDEN_KEY_SETS = {
    "k1": ((16.75, 0.12, 0.09), (2.33, 0.52, 0.28, 0.11, 0.15), 1000),
    "k2": ((17.5, 0.25, 0.04), (2.41, 0.47, 0.33, 0.06, 0.19), 700),
    "k3": ((15.0, 0.31, 0.27), (2.2, 0.6, 0.26, 0.29, 0.03), 1200),
}


def gray256():
    """Gradient with a bright disc and a mid-gray block, like a scan."""
    i, j = np.mgrid[0:256, 0:256]
    img = 20 + (i + j) // 4
    img[(i - 128) ** 2 + (j - 128) ** 2 < 48 ** 2] = 230
    img[32:64, 32:128] = 90
    return img.astype(np.uint8)


def rgb512():
    i, j = np.mgrid[0:512, 0:512]
    return np.stack(
        [(3 * i + j) & 255, (i ^ j) & 255, ((i * j) >> 6) & 255]
    ).astype(np.uint8)


def gray64x48():
    i, j = np.mgrid[0:64, 0:48]
    return ((5 * i + 11 * j + i * j) & 255).astype(np.uint8)


def golden_keys(spec):
    (r1, x1, y1), (r2, a, b, x2, y2), transient = spec
    return KeyMaterial(
        map1=MapParams(MapId.MAP1, r1, x0=x1, y0=y1, transient=transient),
        map2=MapParams(MapId.MAP2, r2, a=a, b=b, x0=x2, y0=y2, transient=transient),
    )


GOLDEN_IMAGES = {"gray256": gray256, "rgb512": rgb512, "gray64x48": gray64x48}


Half = namedtuple("Half", "xor1 xor2 perm1 reperms")


def reference_half(params, half_len):
    """One half-slot's keys, as the split-half pipeline derived them."""
    xs, ys = np.empty(half_len), np.empty(half_len)
    state = fill(params, (params.x0, params.y0), xs, ys, skip=params.transient)
    xor1, xor2 = quantize_to_bytes(xs), quantize_to_bytes(ys)
    perms = [permutation_from_sequence(xs)]
    for k in range(1, 4):
        state = fill(params, state, xs, start=params.transient + k * half_len)
        perms.append(permutation_from_sequence(xs))
    return Half(xor1, xor2, perms[0], perms[1:])


def reference_encrypt(image, keys):
    """The split-half pipeline, each stage written once per half: the oracle
    of the single-vector `encrypt`."""
    v = flatten(image)
    pad = v.size % 2
    v = np.concatenate([v, np.zeros(pad, dtype=np.uint8)])
    half = v.size // 2
    p1, p2 = v[:half], v[half:]
    s1 = reference_half(keys.map1, half)
    s2 = reference_half(keys.map2, half)
    q1 = (p1 ^ s1.xor1)[s1.perm1]
    q2 = (p2 ^ s2.xor1)[s2.perm1]
    # swap moves the data between slots; each slot keeps its own map's keys
    c1 = q2 ^ s1.xor2
    c2 = q1 ^ s2.xor2
    for k in range(3):
        c1 = c1[s1.reperms[k]]
        c2 = c2[s2.reperms[k]]
    body = np.concatenate([c1, c2]).tobytes()
    return CipherEnvelope(dims=image.dims, pad=pad, body=body)


finite = st.one_of(st.floats(-100, 100), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(
    depth=st.sampled_from([1, 3]),
    height=st.integers(1, 17),
    width=st.integers(1, 13),
    seed=st.integers(0, 2**32 - 1),
    map1=st.tuples(finite, finite, finite),
    map2=st.tuples(finite, finite, finite, finite, finite),
    transient=st.integers(0, 50),
)
def test_encrypt_matches_split_half_reference(depth, height, width, seed, map1, map2, transient):
    rng = np.random.default_rng(seed)
    img = PlainImage.from_array(rng.integers(0, 256, (depth, height, width), dtype=np.uint8))
    keys = golden_keys((map1, map2, transient))
    try:
        expected = reference_encrypt(img, keys)
    except DivergenceError as exc:
        with pytest.raises(DivergenceError) as info:
            encrypt(img, keys)
        assert info.value.iteration == exc.iteration
        return
    env = encrypt(img, keys)
    assert env.to_bytes() == expected.to_bytes()
    assert np.array_equal(decrypt(env, keys).pixels, img.pixels)


class TestFlatten:
    def test_column_major_2x2(self):
        img = PlainImage.from_array(GOLDEN_PLAIN)
        assert list(flatten(img)) == [1, 3, 2, 4]

    def test_single_pixel(self):
        img = PlainImage.from_array(np.array([[7]], dtype=np.uint8))
        assert list(flatten(img)) == [7]

    def test_planar_channel_order(self):
        arr = np.arange(6, dtype=np.uint8).reshape(3, 1, 2)
        img = PlainImage.from_array(arr)
        v = flatten(img)
        assert list(v[:2]) == [0, 1]
        assert list(v[2:4]) == [2, 3]

    def test_unflatten_inverse(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            img = random_image(rng, max_side=16)
            assert np.array_equal(unflatten(flatten(img), img.dims).pixels, img.pixels)


class TestSplitHalves:
    """The vector is zero-padded to an even length and split into two slots."""

    def round_trip(self, row):
        img = PlainImage.from_array(np.array([row], dtype=np.uint8))
        env = encrypt(img, default_keys())
        assert env.body == reference_encrypt(img, default_keys()).body
        assert np.array_equal(decrypt(env, default_keys()).pixels, img.pixels)
        return env

    def test_even(self):
        env = self.round_trip([1, 2, 3, 4])
        assert env.pad == 0 and len(env.body) == 4

    def test_odd_zero_pads(self):
        env = self.round_trip([1, 2, 3])
        assert env.pad == 1 and len(env.body) == 4

    def test_single_byte(self):
        env = self.round_trip([9])
        assert env.pad == 1 and len(env.body) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_key_schedule(default_keys(), 0)
        with pytest.raises(DimensionError):
            PlainImage.from_array(np.zeros((0, 0), dtype=np.uint8))


class TestKeySchedule:
    def test_structure(self):
        s = build_key_schedule(default_keys(), 8)
        assert s.xor1.size == s.xor2.size == 16
        assert sorted(s.perm) == list(range(16))

    def test_deterministic(self):
        a = build_key_schedule(default_keys(), 16)
        b = build_key_schedule(default_keys(), 16)
        assert np.array_equal(a.xor1, b.xor1)
        assert np.array_equal(a.xor2, b.xor2)
        assert np.array_equal(a.perm, b.perm)

    def test_permutations_checked_and_read_only(self):
        s = build_key_schedule(default_keys(), 8)
        assert not s.perm.flags.writeable
        bad = np.array([0, 0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15])
        with pytest.raises(PermutationError):
            KeySchedule(s.xor1, bad, s.xor2)
        with pytest.raises(PermutationError):
            KeySchedule(s.xor1, s.perm[:8], s.xor2)

    @staticmethod
    def assert_peak_allocation():
        # the ring of Map 1 buffers, Map 2's buffer, both maps' keys and one
        # argsort's temporaries; buffers that piled up would show here
        n = 4 * maps.BLOCK
        tracemalloc.start()
        try:
            build_key_schedule(default_keys(), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 60 * n

    def test_peak_allocation(self, compiled):
        self.assert_peak_allocation()

    def test_peak_allocation_on_the_fallback(self, python_only):
        self.assert_peak_allocation()

    def test_seed_sensitivity(self):
        keys = default_keys()
        nudged = type(keys)(map1=perturbed(keys.map1, "x0"), map2=keys.map2)
        a = build_key_schedule(keys, 4096)
        b = build_key_schedule(nudged, 4096)
        frac = np.mean(a.xor1[:4096] != b.xor1[:4096])
        assert frac > 0.5


# Map 1 diverges at iteration 253; Map 2's a*r overflows, so it diverges at 0
DIVERGING_MAP1 = MapParams(MapId.MAP1, 1e307)
DIVERGING_MAP2 = MapParams(MapId.MAP2, 1e308, a=10.0, b=0.3)
# b*x*x overflows at iteration 6496: in segment 2 of a 4096-byte slot
LATE_DIVERGING_MAP2 = MapParams(MapId.MAP2, 2.35, a=0.5, b=1.8225e307)


class TestTwoMaps:
    """On the kernel and on the fallback, Map 1's orbit is iterated on a
    worker thread or, with the "serial-" paths, on the caller, and
    everything else on the caller. Each path is taken at every slot length
    these tests use, whatever side of cipher._SERIAL_BELOW it is on."""

    @pytest.fixture(params=["compiled", "python_only", "serial-compiled", "serial-python_only"])
    def path(self, request, monkeypatch):
        serial, _, fill_path = request.param.rpartition("-")
        monkeypatch.setattr(cipher, "_SERIAL_BELOW", sys.maxsize if serial else 0)
        request.getfixturevalue(fill_path)
        return request.param

    def divergence(self, map1, map2):
        """The raised divergence index, or None; no thread is left behind."""
        before = threading.active_count()
        try:
            build_key_schedule(KeyMaterial(map1, map2), 64)
            index = None
        except DivergenceError as exc:
            index = exc.iteration
        assert threading.active_count() == before
        return index

    def test_success(self, path):
        assert self.divergence(default_map1(), default_map2()) is None

    def test_map1_error_wins(self, path):
        assert self.divergence(DIVERGING_MAP1, DIVERGING_MAP2) == 253

    def test_map2_error_alone(self, path):
        assert self.divergence(default_map1(), DIVERGING_MAP2) == 0
        assert self.divergence(DIVERGING_MAP1, default_map2()) == 253

    @staticmethod
    def threads(monkeypatch):
        """The threads that iterate each map and make the argsorts of a
        64-byte schedule, in call order."""
        calls = []  # (map id or "argsort", thread)

        def record(name, function):
            def recorded(*args, **kwargs):
                what = args[0].map_id if name == "fill" else name
                calls.append((what, threading.current_thread()))
                return function(*args, **kwargs)
            return recorded

        monkeypatch.setattr(cipher, "fill", record("fill", fill))
        monkeypatch.setattr(cipher, "permutation_from_sequence",
                            record("argsort", permutation_from_sequence))
        build_key_schedule(default_keys(), 64)
        threads = {}
        for what, thread in calls:
            threads.setdefault(what, []).append(thread)
        return threads

    @pytest.mark.parametrize("path", ["compiled", "python_only"], indirect=True)
    def test_map1_on_a_worker(self, path, monkeypatch):
        threads, main = self.threads(monkeypatch), threading.main_thread()
        assert len(threads[MapId.MAP1]) == 4
        assert len(set(threads[MapId.MAP1])) == 1 and threads[MapId.MAP1][0] is not main
        assert threads[MapId.MAP2] == [main] * 4
        assert threads["argsort"] == [main] * 8

    @pytest.mark.parametrize("path", ["serial-compiled", "serial-python_only"], indirect=True)
    def test_all_on_the_caller(self, path, monkeypatch):
        main = threading.main_thread()
        assert self.threads(monkeypatch) == {
            MapId.MAP1: [main] * 4, MapId.MAP2: [main] * 4, "argsort": [main] * 8
        }

    def test_concurrent_schedules(self, path):
        # more threads than cores and a short switch interval: a buffer
        # that went back to the worker before its keys were made would
        # change some schedule
        keys, results = default_keys(), []
        expected = build_key_schedule(keys, 1000)

        def run():
            for _ in range(5):
                results.append(build_key_schedule(keys, 1000))

        helpers = [threading.Thread(target=run, daemon=True) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for helper in helpers:
                helper.start()
            for helper in helpers:
                helper.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(helper.is_alive() for helper in helpers)
        assert len(results) == 20
        for s in results:
            assert np.array_equal(s.xor1, expected.xor1)
            assert np.array_equal(s.perm, expected.perm)
            assert np.array_equal(s.xor2, expected.xor2)

    def failure(self, keys):
        """The error a 4096-byte schedule raises, run on a helper thread
        that must end within 10 s; no thread is left behind."""
        before, errors = threading.active_count(), []

        def run():
            try:
                build_key_schedule(keys, 4096)
            except Exception as exc:
                errors.append(exc)

        helper = threading.Thread(target=run, daemon=True)
        helper.start()
        helper.join(timeout=10)
        assert not helper.is_alive()
        assert threading.active_count() == before
        [error] = errors
        return error

    @pytest.mark.parametrize("map2, index", [(DIVERGING_MAP2, 0), (LATE_DIVERGING_MAP2, 6496)])
    def test_map2_diverges_while_map1_runs(self, path, map2, index):
        error = self.failure(KeyMaterial(default_map1(), map2))
        assert isinstance(error, DivergenceError) and error.iteration == index

    @pytest.mark.parametrize("failing_call", [2, 5])  # Map 1's segment 1, Map 2's segment 3
    def test_argsort_fails_on_the_caller(self, path, monkeypatch, failing_call):
        count = itertools.count(1)

        def argsort(values):
            if next(count) == failing_call:
                raise MemoryError(f"argsort call {failing_call}")
            return permutation_from_sequence(values)

        monkeypatch.setattr(cipher, "permutation_from_sequence", argsort)
        error = self.failure(default_keys())
        assert isinstance(error, MemoryError) and str(error) == f"argsort call {failing_call}"


class TestSerialSchedule:
    """Below cipher._SERIAL_BELOW values per slot both orbits run on the
    caller, with the same bytes as the worker (TestTwoMaps checks the
    errors of both paths)."""

    @pytest.mark.parametrize("n", [1, 63, 1000, cipher._SERIAL_BELOW - 1, cipher._SERIAL_BELOW])
    def test_same_schedule_as_the_worker(self, monkeypatch, n):
        keys = KeyMaterial(perturbed(default_map1(), "r"), default_map2())
        before = threading.active_count()
        serial = build_key_schedule(keys, n)
        assert threading.active_count() == before
        monkeypatch.setattr(cipher, "_SERIAL_BELOW", 0)
        threaded = build_key_schedule(keys, n)
        for name in ("xor1", "perm", "xor2"):
            assert np.array_equal(getattr(serial, name), getattr(threaded, name))

    def test_no_thread_below_the_bound(self, monkeypatch):
        started, start = [], threading.Thread.start

        def record(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", record)
        build_key_schedule(default_keys(), cipher._SERIAL_BELOW - 1)
        assert started == []
        build_key_schedule(default_keys(), cipher._SERIAL_BELOW)
        assert len(started) == 1


class TestScheduleMemo:
    """`encrypt` and `decrypt` take their schedule from cipher._schedule,
    which holds the most recent one; on the kernel and on the fallback."""

    @pytest.fixture(autouse=True, params=["compiled", "python_only"])
    def path(self, request):
        request.getfixturevalue(request.param)

    def test_hit_returns_the_held_schedule(self):
        img = PlainImage.from_array(np.arange(100, dtype=np.uint8).reshape(10, 10))
        held = cipher._schedule(default_keys(), 50)
        assert cipher._schedule(default_keys(), 50) is held  # an equal key, not the same object
        env = encrypt(img, default_keys())
        assert cipher._held[1] is held
        assert env.to_bytes() == reference_encrypt(img, default_keys()).to_bytes()
        assert np.array_equal(decrypt(env, default_keys()).pixels, img.pixels)

    def assert_misses(self, keys, half_len, other_keys, other_half_len):
        held = cipher._schedule(keys, half_len)
        other = cipher._schedule(other_keys, other_half_len)
        assert other is not held and cipher._held[1] is other
        expected = build_key_schedule(other_keys, other_half_len)
        for name in ("xor1", "perm", "xor2"):
            assert np.array_equal(getattr(other, name), getattr(expected, name))

    @pytest.mark.parametrize("which", ["map1", "map2"])
    @pytest.mark.parametrize("field", ["r", "a", "b", "x0", "y0"])
    def test_one_ulp_misses(self, which, field):
        keys = default_keys()
        nudged = replace(keys, **{which: perturbed(getattr(keys, which), field, ulp=True)})
        assert getattr(nudged, which) != getattr(keys, which)
        self.assert_misses(keys, 50, nudged, 50)

    def test_sign_of_zero_misses(self):
        keys = default_keys()  # Map 1's a is 0.0
        signed = replace(keys, map1=replace(keys.map1, a=-0.0))
        assert signed == keys
        self.assert_misses(keys, 50, signed, 50)

    @pytest.mark.parametrize("which", ["map1", "map2"])
    def test_transient_misses(self, which):
        keys = default_keys()
        longer = replace(keys, **{which: replace(getattr(keys, which), transient=1001)})
        self.assert_misses(keys, 50, longer, 50)

    def test_slot_length_misses(self):
        self.assert_misses(default_keys(), 50, default_keys(), 51)

    @pytest.mark.parametrize("name", ["xor1", "perm", "xor2"])
    def test_held_arrays_are_read_only(self, name):
        array = getattr(cipher._schedule(default_keys(), 50), name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            array ^= 1

    def test_divergence_leaves_nothing_held(self):
        img = PlainImage.from_array(np.arange(100, dtype=np.uint8).reshape(10, 10))
        encrypt(img, default_keys())
        keys = KeyMaterial(DIVERGING_MAP1, default_map2())
        for _ in range(2):
            with pytest.raises(DivergenceError) as info:
                encrypt(img, keys)
            assert info.value.iteration == 253
            assert cipher._held == (None, None)

    def test_threads_get_the_serial_results(self):
        # 2 keys x 2 sizes, one of them keyed on the worker thread; each
        # thread takes the four in its own order, so hits and misses mix
        rng = np.random.default_rng(15)
        images = [PlainImage.from_array(rng.integers(0, 256, shape, dtype=np.uint8))
                  for shape in [(1, 7, 9), (3, 64, 96)]]
        key_sets = [default_keys(), golden_keys(GOLDEN_KEY_SETS["k1"])]
        cases = list(itertools.product(range(2), range(2)))
        expected = {case: encrypt(images[case[0]], key_sets[case[1]]).body for case in cases}
        results = []

        def run(order):
            for i, k in order:
                env = encrypt(images[i], key_sets[k])
                results.append((env.body == expected[i, k],
                                np.array_equal(decrypt(env, key_sets[k]).pixels, images[i].pixels)))

        helpers = [threading.Thread(target=run, args=(cases[t:] + cases[:t],), daemon=True)
                   for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for helper in helpers:
                helper.start()
            for helper in helpers:
                helper.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(helper.is_alive() for helper in helpers)
        assert results == [(True, True)] * 16


class TestEncryptDecrypt:
    def test_golden_body(self):
        env = encrypt(PlainImage.from_array(GOLDEN_PLAIN), default_keys())
        assert env.body == GOLDEN_BODY
        assert env.pad == 0

    def test_golden_envelope_bytes(self):
        env = encrypt(PlainImage.from_array(GOLDEN_PLAIN), default_keys())
        assert env.to_bytes() == GOLDEN_ENVELOPE

    def test_golden_decrypt(self):
        env = CipherEnvelope.from_bytes(GOLDEN_ENVELOPE)
        img = decrypt(env, default_keys())
        assert np.array_equal(img.pixels.reshape(2, 2), GOLDEN_PLAIN)

    def test_round_trip_random_images(self):
        rng = np.random.default_rng(5)
        keys = default_keys()
        for _ in range(25):
            img = random_image(rng, max_side=24)
            out = decrypt(encrypt(img, keys), keys)
            assert np.array_equal(out.pixels, img.pixels)

    def test_odd_length_pad_recorded(self):
        img = PlainImage.from_array(np.array([[1, 2, 3]], dtype=np.uint8))
        env = encrypt(img, default_keys())
        assert env.pad == 1
        assert len(env.body) == 4
        out = decrypt(env, default_keys())
        assert np.array_equal(out.pixels, img.pixels)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        img = random_image(rng, max_side=16)
        keys = default_keys()
        assert encrypt(img, keys).to_bytes() == encrypt(img, keys).to_bytes()


class TestGoldenDigests:
    @pytest.mark.parametrize("name", list(GOLDEN_DIGESTS))
    def test_ciphertext_digest(self, name):
        image, key_set = name.split("/")
        if key_set == "default":
            keys = default_keys()
        else:
            keys = golden_keys(GOLDEN_KEY_SETS[key_set])
        env = encrypt(PlainImage.from_array(GOLDEN_IMAGES[image]()), keys)
        assert hashlib.sha256(env.to_bytes()).hexdigest() == GOLDEN_DIGESTS[name]

    def test_lyapunov_exact(self):
        assert repr(lyapunov_exponent(default_map1(), steps=5000)) == "0.9034388567141849"
        assert repr(lyapunov_exponent(default_map2(), steps=5000)) == "0.5127690037197709"


class TestEnvelopeFormat:
    def test_header_layout(self):
        env = CipherEnvelope(dims=ImageDims(3, 2, 5), pad=0, body=bytes(30))
        raw = env.to_bytes()
        assert raw[:4] == b"CSE1"
        assert raw[4] == 1
        assert raw[5] == 3
        assert raw[6:10] == (2).to_bytes(4, "big")
        assert raw[10:14] == (5).to_bytes(4, "big")
        assert raw[14] == 0
        assert raw[15:] == bytes(30)

    def test_round_trip(self):
        env = CipherEnvelope(dims=ImageDims(1, 1, 3), pad=1, body=bytes([1, 2, 3, 4]))
        again = CipherEnvelope.from_bytes(env.to_bytes())
        assert again == env

    def test_bad_magic(self):
        raw = b"XXXX" + GOLDEN_ENVELOPE[4:]
        with pytest.raises(MalformedEnvelopeError):
            CipherEnvelope.from_bytes(raw)

    def test_truncated(self):
        with pytest.raises(MalformedEnvelopeError):
            CipherEnvelope.from_bytes(GOLDEN_ENVELOPE[:10])
        with pytest.raises(MalformedEnvelopeError):
            CipherEnvelope.from_bytes(GOLDEN_ENVELOPE[:-1])

    def test_bad_version_and_pad(self):
        bad_ver = bytearray(GOLDEN_ENVELOPE)
        bad_ver[4] = 2
        with pytest.raises(MalformedEnvelopeError):
            CipherEnvelope.from_bytes(bytes(bad_ver))
        with pytest.raises(MalformedEnvelopeError):
            CipherEnvelope(dims=ImageDims(1, 2, 2), pad=2, body=bytes(6))

    def test_pad_must_match_pixel_count(self):
        # 2x2 gray: even pixel count, so pad 1 is wrong even with a body of 5
        raw = bytearray(GOLDEN_ENVELOPE + b"\x00")
        raw[14] = 1
        with pytest.raises(MalformedEnvelopeError):
            CipherEnvelope.from_bytes(bytes(raw))

    def test_bad_dims(self):
        with pytest.raises(DimensionError):
            ImageDims(2, 4, 4)
        with pytest.raises(DimensionError):
            ImageDims(1, 0, 4)
