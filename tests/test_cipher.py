import functools
import hashlib
import itertools
import os
import sys
import threading
import time
import tracemalloc
from collections import namedtuple
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosimg import cipher, kernel, maps
from chaosimg.analysis import lyapunov_exponent
from chaosimg.cipher import (
    CipherEnvelope,
    ImageDims,
    KeyMaterial,
    PlainImage,
    build_key_schedule,
    decrypt,
    default_keys,
    encrypt,
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
from chaosimg.netpbm import read_image, write_image
from conftest import (GOLDEN_BODY, GOLDEN_ENVELOPE, GOLDEN_PLAIN, no_thread_starts,
                      on_the_fallback, perturbed, random_image, traced_peak)

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


def flatten(image):
    """Column-major, channel-planar flatten: index = d*(H*W) + col*H + row.
    The order of the cipher's vector, which `encrypt` takes straight from
    the raster (`cipher._layout`)."""
    return np.ascontiguousarray(image.pixels.transpose(0, 2, 1)).reshape(-1)


def unflatten(vec, dims):
    px = np.asarray(vec, dtype=np.uint8).reshape(dims.depth, dims.width, dims.height)
    return PlainImage(dims=dims, pixels=px.transpose(0, 2, 1))


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


def reference_schedule(keys, half_len):
    """(P, K) with `v[P] ^ K` the ciphertext of a padded vector v of
    2 * half_len bytes: the stages of `reference_encrypt` run on the
    vector's indices and, apart, on its first keystream."""
    n = half_len
    s1, s2 = reference_half(keys.map1, n), reference_half(keys.map2, n)
    i1, i2 = np.arange(n)[s1.perm1], np.arange(n, 2 * n)[s2.perm1]
    k1, k2 = s1.xor1[s1.perm1], s2.xor1[s2.perm1]
    # swap, as in reference_encrypt
    c1, c2, k1, k2 = i2, i1, k2 ^ s1.xor2, k1 ^ s2.xor2
    for k in range(3):
        c1, k1 = c1[s1.reperms[k]], k1[s1.reperms[k]]
        c2, k2 = c2[s2.reperms[k]], k2[s2.reperms[k]]
    return np.concatenate([c1, c2]), np.concatenate([k1, k2])


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
        # the build takes dims, and no dims of an empty image exist
        with pytest.raises(DimensionError):
            build_key_schedule(default_keys(), ImageDims(1, 0, 4))
        with pytest.raises(DimensionError):
            PlainImage.from_array(np.zeros((0, 0), dtype=np.uint8))


def run_bounded(build, *args):
    """`build(*args)` on a daemon helper thread that must end within 10 s:
    what it returns, or what it raises (a KeyboardInterrupt too) raised
    here. A lost buffer handoff then fails the test instead of hanging it.
    No Python thread is left behind (`assert_no_thread_left` checks OS
    threads, the kernel's too)."""
    before, outcomes = threading.active_count(), []

    def run():
        try:
            outcomes.append((build(*args), None))
        except BaseException as exc:
            outcomes.append((None, exc))

    helper = threading.Thread(target=run, daemon=True)
    helper.start()
    helper.join(timeout=10)
    assert not helper.is_alive(), "the build still runs after 10 s"
    assert threading.active_count() == before
    [(result, error)] = outcomes
    if error is not None:
        raise error
    return result


def run_concurrently(runs):
    """Each of `runs` on its own daemon thread, at a 10 µs switch interval
    so that the threads interleave often; all must end within 60 s."""
    helpers = [threading.Thread(target=run, daemon=True) for run in runs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for helper in helpers:
            helper.start()
        deadline = time.monotonic() + 60  # for all helpers, not each
        for helper in helpers:
            helper.join(timeout=deadline - time.monotonic())
    finally:
        sys.setswitchinterval(interval)
    assert not any(helper.is_alive() for helper in helpers)


TASKS = "/proc/self/task"


def os_threads():
    """The ids of this process's OS threads, Python's and the kernel's
    alike. Linux only (the test skips elsewhere)."""
    if not os.path.isdir(TASKS):
        pytest.skip(f"no {TASKS} to list threads in")
    return set(os.listdir(TASKS))


def assert_no_thread_left(before):
    """Every OS thread not in `before` has ended: a joined thread may take
    a moment to leave TASKS, so this waits up to 1 s."""
    deadline = time.monotonic() + 1
    while os_threads() - before and time.monotonic() < deadline:
        time.sleep(0.001)
    assert not os_threads() - before


# the three builds of a key schedule (conftest's `path`)
every_build = pytest.mark.parametrize("path", ["compiled", "python_only", "serial-compiled"],
                                      indirect=True)


class TestKeySchedule:
    def test_structure(self):
        R, K = build_key_schedule(default_keys(), ImageDims(1, 4, 4))
        assert R.size == K.size == 16
        assert R.dtype == np.int32 and K.dtype == np.uint8
        assert sorted(R) == list(range(16))

    def test_deterministic(self):
        a = build_key_schedule(default_keys(), ImageDims(1, 4, 8))
        b = build_key_schedule(default_keys(), ImageDims(1, 4, 8))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_permutations_checked_and_read_only(self, monkeypatch):
        img = PlainImage.from_array(np.arange(100, dtype=np.uint8).reshape(10, 10))
        R, K = build_key_schedule(default_keys(), img.dims)
        for array in (R, K):
            assert not array.flags.writeable

        def duplicated(values):  # int32, of the right length, not a bijection
            perm = permutation_from_sequence(values)
            perm[0] = perm[1]
            return perm

        # the build checks R, with the kernel's thread and on the caller
        # alike, and a pair of other dims held before it is dropped
        other = PlainImage.from_array(np.zeros((3, 3), dtype=np.uint8))
        for serial in (False, True):
            with monkeypatch.context() as patch:
                if serial:
                    no_thread_starts(patch)
                run_bounded(encrypt, other, default_keys())
                assert cipher._held[0] is not None
                patch.setattr(cipher, "permutation_from_sequence", duplicated)
                with pytest.raises(PermutationError):
                    run_bounded(encrypt, img, default_keys())
                assert cipher._held == (None, None)

    def test_maps_in_the_wrong_order_raise(self):
        with pytest.raises(ValueError, match="requires"):
            KeyMaterial(default_map2(), default_map1())

    def test_refuses_2_to_the_31_bytes_before_allocating(self):
        # R is int32, so a padded vector of 2**31 bytes is refused up front
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError):
                build_key_schedule(default_keys(), ImageDims(1, 2**16, 2**15))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @every_build
    def test_peak_allocation(self, path):
        # the two orbit buffers (one serial), both maps' keys and one
        # argsort's result and BLOCK-value temporaries, then the pair;
        # buffers that piled up would show here, and with Map 1 on the
        # caller ("serial-compiled") a y buffer that outlived its fold. At
        # 2*BLOCK (a 512² gray image) each temporary is twice as large a
        # share of n.
        for blocks, bound in ((2, 50), (4, 45)):
            n = blocks * maps.BLOCK
            _, peak = traced_peak(run_bounded, build_key_schedule, default_keys(),
                                  ImageDims(1, 512, 2 * n // 512))
            assert peak <= bound * n, f"{peak / n:.1f}n at n = {blocks}*BLOCK"

    def test_cold_encrypt_peak_allocation(self, compiled):
        # the build of the pair (R, K) that `encrypt` holds, and the gather
        n = 4 * maps.BLOCK
        img = PlainImage.from_array(np.random.default_rng(4).integers(
            0, 256, (1, 512, 2 * n // 512), dtype=np.uint8))
        _, peak = traced_peak(run_bounded, encrypt, img, default_keys())
        assert cipher._held[1][0].size == 2 * n
        assert peak <= 45 * n

    def test_seed_sensitivity(self):
        keys = default_keys()
        nudged = type(keys)(map1=perturbed(keys.map1, "x0"), map2=keys.map2)
        dims = ImageDims(1, 64, 128)  # slots of 4096 bytes
        a = build_key_schedule(keys, dims)
        b = build_key_schedule(nudged, dims)
        frac = np.mean(a[1][:4096] != b[1][:4096])
        assert frac > 0.5


# Map 1 diverges at iteration 253; Map 2's a*r overflows, so it diverges at 0
DIVERGING_MAP1 = MapParams(MapId.MAP1, 1e307)
DIVERGING_MAP2 = MapParams(MapId.MAP2, 1e308, a=10.0, b=0.3)
# b*x*x overflows at iteration 6496: in segment 2 of a 4096-byte slot
LATE_DIVERGING_MAP2 = MapParams(MapId.MAP2, 2.35, a=0.5, b=1.8225e307)
# DIVERGING_MAP1 with no transient: iteration 253 is in segment 4 of a 64-byte slot
LATE_DIVERGING_MAP1 = MapParams(MapId.MAP1, 1e307, transient=0)


class TestTwoMaps:
    """With the kernel ("compiled"), Map 1's orbit is iterated on the
    kernel's thread and everything else on the caller; without it
    ("python_only"), the caller iterates both. "serial-compiled" refuses
    every thread start, so the kernel's fill runs Map 1 on the caller."""

    @staticmethod
    def divergence(map1, map2):
        """The raised divergence index, or None."""
        try:
            run_bounded(build_key_schedule, KeyMaterial(map1, map2), ImageDims(1, 8, 16))
        except DivergenceError as exc:
            return exc.iteration
        return None

    @every_build
    def test_success(self, path):
        assert self.divergence(default_map1(), default_map2()) is None

    @every_build
    def test_map1_error_wins(self, path):
        assert self.divergence(DIVERGING_MAP1, DIVERGING_MAP2) == 253

    @every_build
    def test_map2_error_alone(self, path):
        assert self.divergence(default_map1(), DIVERGING_MAP2) == 0
        assert self.divergence(DIVERGING_MAP1, default_map2()) == 253

    @every_build
    def test_map1_reads_no_a_or_b(self, path):
        # Map 1's step reads neither, so its thread is not given them
        keys, dims = default_keys(), ImageDims(1, 64, 128)
        pairs = [run_bounded(build_key_schedule, KeyMaterial(replace(keys.map1, a=a, b=b),
                                                             keys.map2), dims)
                 for a, b in ((0.0, 0.0), (0.5, -3.0))]
        for plain, with_ab in zip(*pairs, strict=True):
            assert np.array_equal(plain, with_ab)

    @staticmethod
    def threads(monkeypatch):
        """The thread that runs the build of a 64-byte schedule, the threads
        that iterate each map through `fill` and make the argsorts, in call
        order, and the OS threads that are not Python's and have started
        since the build began, as of its first argsort."""
        calls, building, tasks = [], [], []  # calls: (map id or "argsort", thread)

        def record(name, function):
            def recorded(*args, **kwargs):
                what = args[0].map_id if name == "fill" else name
                calls.append((what, threading.current_thread()))
                if len(tasks) == 1 and name == "argsort":
                    tasks.append(os_threads())
                return function(*args, **kwargs)
            return recorded

        monkeypatch.setattr(cipher, "fill", record("fill", fill))
        monkeypatch.setattr(cipher, "permutation_from_sequence",
                            record("argsort", permutation_from_sequence))

        def build():
            building.append(threading.current_thread())
            tasks.append(os_threads())
            return build_key_schedule(default_keys(), ImageDims(1, 8, 16))

        run_bounded(build)
        threads = {}
        for what, thread in calls:
            threads.setdefault(what, []).append(thread)
        python = {str(thread.native_id) for thread in threading.enumerate()}
        return building[0], threads, tasks[1] - tasks[0] - python

    @pytest.mark.parametrize("path", ["compiled"], indirect=True)
    def test_map1_on_a_worker(self, path, monkeypatch):
        # the first argsort, Map 2's segment 1, comes before the caller has
        # given the thread the buffers of its segments 2-4, so the thread
        # is alive then: one OS thread more, and not a Python one
        building, threads, started = self.threads(monkeypatch)
        assert MapId.MAP1 not in threads  # no Python `fill` of Map 1
        assert threads[MapId.MAP2] == [building] * 4
        assert threads["argsort"] == [building] * 8
        assert len(started) == 1

    @pytest.mark.parametrize("path", ["compiled"], indirect=True)
    def test_worker_runs_ahead(self, path, monkeypatch):
        # each side waits for the other beyond its 1 ms spin and blocks:
        # Map 2's fill sleeps first, so the thread waits for the buffer that
        # the caller's Map 2 fold hands on; then Map 1's long transient makes
        # the caller wait for its segment 1. The same bytes, and no hang
        keys, dims = default_keys(), ImageDims(1, 64, 128)
        slow = KeyMaterial(replace(keys.map1, transient=200_000), keys.map2)
        expected = [run_bounded(build_key_schedule, k, dims) for k in (keys, slow)]
        slept = []

        def slowed_fill(params, *args, **kwargs):
            if params.map_id is MapId.MAP2:
                time.sleep(0.01)
                slept.append(params.map_id)
            return fill(params, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(cipher, "fill", slowed_fill)
            got = run_bounded(build_key_schedule, keys, dims)
        assert slept == [MapId.MAP2] * 4
        for (R, K), want in zip([got, run_bounded(build_key_schedule, slow, dims)], expected):
            assert np.array_equal(R, want[0]) and np.array_equal(K, want[1])

    @pytest.mark.parametrize("path", ["python_only", "serial-compiled"], indirect=True)
    def test_all_on_the_caller(self, path, monkeypatch):
        building, threads, started = self.threads(monkeypatch)
        assert threads == {
            MapId.MAP1: [building] * 4, MapId.MAP2: [building] * 4, "argsort": [building] * 8
        }
        assert started == set()

    @every_build
    def test_concurrent_schedules(self, path):
        # more threads than cores and a short switch interval: a buffer
        # that went back to the worker before its keys were made would
        # change some schedule
        keys, dims, results = default_keys(), ImageDims(1, 40, 50), []
        expected = run_bounded(build_key_schedule, keys, dims)

        def run():
            for _ in range(5):
                results.append(build_key_schedule(keys, dims))

        run_concurrently([run] * 4)
        assert len(results) == 20
        for R, K in results:
            assert np.array_equal(R, expected[0])
            assert np.array_equal(K, expected[1])

    @staticmethod
    def failure(keys):
        """The error a 4096-byte schedule raises."""
        with pytest.raises(Exception) as info:
            run_bounded(build_key_schedule, keys, ImageDims(1, 64, 128))
        return info.value

    @pytest.mark.parametrize("map2, index", [(DIVERGING_MAP2, 0), (LATE_DIVERGING_MAP2, 6496)])
    @every_build
    def test_map2_diverges_while_map1_runs(self, path, map2, index):
        error = self.failure(KeyMaterial(default_map1(), map2))
        assert isinstance(error, DivergenceError) and error.iteration == index

    @staticmethod
    def fail_argsort(monkeypatch, failing_call, error=MemoryError):
        """Make the build's argsort call `failing_call` (from 1) raise
        `error`: odd calls fold Map 2's segments, even ones Map 1's."""
        count = itertools.count(1)

        def argsort(values):
            if next(count) == failing_call:
                raise error(f"argsort call {failing_call}")
            return permutation_from_sequence(values)

        monkeypatch.setattr(cipher, "permutation_from_sequence", argsort)

    @pytest.mark.parametrize("failing_call", range(1, 9))
    @every_build
    def test_argsort_fails_on_the_caller(self, path, monkeypatch, failing_call):
        self.fail_argsort(monkeypatch, failing_call)
        error = self.failure(default_keys())
        assert isinstance(error, MemoryError) and str(error) == f"argsort call {failing_call}"

    @pytest.mark.parametrize("path", ["compiled", "python_only"], indirect=True)
    @pytest.mark.parametrize("failing_call", range(1, 9))
    def test_interrupt_ends_the_worker(self, path, monkeypatch, failing_call):
        # a BaseException passes the drain (`except Exception`) by; the
        # join stops a thread that waits for a buffer, and no OS thread
        # is left
        before = os_threads()
        self.fail_argsort(monkeypatch, failing_call, KeyboardInterrupt)
        with pytest.raises(KeyboardInterrupt, match=f"^argsort call {failing_call}$"):
            run_bounded(build_key_schedule, default_keys(), ImageDims(1, 64, 128))
        assert_no_thread_left(before)

    @pytest.mark.parametrize("failing_call", [1, 2, 3])
    @every_build
    def test_map1_error_wins_over_an_earlier_caller_failure(self, path, monkeypatch,
                                                             failing_call):
        # the caller fails in segment 1 or 2, and Map 1 diverges later, at
        # iteration 253, in segment 4 of the 64-value slot
        self.fail_argsort(monkeypatch, failing_call)
        assert self.divergence(LATE_DIVERGING_MAP1, default_map2()) == 253

    @every_build
    def test_no_os_thread_is_left(self, path, monkeypatch):
        # after a build that succeeds, whose either map diverges, or whose
        # caller fails or is interrupted
        before = os_threads()
        keys, dims = default_keys(), ImageDims(1, 64, 128)
        run_bounded(build_key_schedule, keys, dims)
        for map1, map2 in [(DIVERGING_MAP1, keys.map2), (keys.map1, LATE_DIVERGING_MAP2)]:
            with pytest.raises(DivergenceError):
                run_bounded(build_key_schedule, KeyMaterial(map1, map2), dims)
        for error in (MemoryError, KeyboardInterrupt):
            with monkeypatch.context() as patch:
                self.fail_argsort(patch, 3, error)
                with pytest.raises(error):
                    run_bounded(build_key_schedule, keys, dims)
        assert_no_thread_left(before)

    @pytest.mark.parametrize("path", ["compiled"], indirect=True)
    @pytest.mark.parametrize("started", [False, True])
    def test_interrupt_as_the_thread_starts(self, path, monkeypatch, started):
        # an interrupt raised just before the kernel's start is called, or
        # as it returns with the thread running (a signal that came while
        # the start blocked them): the join of the `finally` does nothing
        # or ends the thread, and the next build is whole
        keys, dims = default_keys(), ImageDims(1, 64, 128)
        expected = run_bounded(build_key_schedule, keys, dims)
        lib, before = kernel.library(), os_threads()
        start = lib.chaos_orbit_start

        def interrupted(*args):
            if started:
                assert start(*args) == 0
            raise KeyboardInterrupt("at the start")

        with monkeypatch.context() as patch:
            patch.setattr(lib, "chaos_orbit_start", interrupted)
            with pytest.raises(KeyboardInterrupt, match="^at the start$"):
                run_bounded(build_key_schedule, keys, dims)
        assert_no_thread_left(before)
        for got, want in zip(run_bounded(build_key_schedule, keys, dims), expected):
            assert np.array_equal(got, want)


class TestSerialSchedule:
    """The kernel's thread and the serial builds, on the kernel's fill when
    no thread can start and on the Python fallback, give the same bytes
    (TestTwoMaps checks the errors of every path)."""

    @pytest.mark.parametrize("n", [1, 63, 1000, 8191, 8192, 24_576])
    def test_same_schedule_as_the_worker(self, compiled, monkeypatch, n):
        keys = KeyMaterial(perturbed(default_map1(), "r"), default_map2())
        dims = ImageDims(1, 1, 2 * n)
        threaded = run_bounded(build_key_schedule, keys, dims)
        with monkeypatch.context() as patch:
            no_thread_starts(patch)
            serial = run_bounded(build_key_schedule, keys, dims)
            with on_the_fallback():
                fallback = run_bounded(build_key_schedule, keys, dims)
        for pair in (serial, fallback):
            for s, t in zip(pair, threaded, strict=True):
                assert np.array_equal(s, t)

    def test_no_thread_without_the_kernel(self, python_only, monkeypatch):
        # at any slot length, the fallback builds with every thread start
        # refused, and no OS thread comes or stays
        before = os_threads()
        no_thread_starts(monkeypatch)
        for n in (1, 8191, 8192, 24_576):
            run_bounded(build_key_schedule, default_keys(), ImageDims(1, 1, 2 * n))
        assert_no_thread_left(before)


def fused_oracle(keys, dims):
    """(R, K) from the split-half spec alone: `reference_schedule`'s P and
    K, with R = L[P] for L the `flatten` of the raster's indices, then the
    pad byte's index."""
    count = dims.pixel_count
    perm, key = reference_schedule(keys, (count + 1) // 2)
    raster_index = np.arange(count).reshape(dims.height, dims.width, dims.depth)
    layout = flatten(SimpleNamespace(pixels=raster_index.transpose(2, 0, 1)))
    return np.append(layout, np.arange(count, perm.size))[perm], key


@pytest.mark.usefixtures("path")
class TestScheduleMemo:
    """`encrypt` and `decrypt` take their pair (R, K) from cipher._schedule,
    which holds the most recent one; on the kernel and on the fallback."""

    DIMS = ImageDims(1, 10, 10)

    def test_hit_returns_the_held_schedule(self):
        img = PlainImage.from_array(np.arange(100, dtype=np.uint8).reshape(10, 10))
        held = cipher._schedule(default_keys(), self.DIMS)
        # an equal key and equal dims, not the same objects
        assert cipher._schedule(default_keys(), ImageDims(1, 10, 10)) is held
        env = encrypt(img, default_keys())
        assert cipher._held[1] is held
        assert env.to_bytes() == reference_encrypt(img, default_keys()).to_bytes()
        assert np.array_equal(decrypt(env, default_keys()).pixels, img.pixels)

    def assert_misses(self, keys, dims, other_keys, other_dims):
        held = cipher._schedule(keys, dims)
        other = cipher._schedule(other_keys, other_dims)
        assert other is not held and cipher._held[1] is other
        expected = fused_oracle(other_keys, other_dims)
        assert len(other) == len(expected) == 2
        for got, want in zip(other, expected):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("which", ["map1", "map2"])
    @pytest.mark.parametrize("field", ["r", "a", "b", "x0", "y0"])
    def test_one_ulp_misses(self, which, field):
        keys = default_keys()
        nudged = replace(keys, **{which: perturbed(getattr(keys, which), field, ulp=True)})
        assert getattr(nudged, which) != getattr(keys, which)
        self.assert_misses(keys, self.DIMS, nudged, self.DIMS)

    def test_sign_of_zero_misses(self):
        keys = default_keys()  # Map 1's a is 0.0
        signed = replace(keys, map1=replace(keys.map1, a=-0.0))
        assert signed == keys
        self.assert_misses(keys, self.DIMS, signed, self.DIMS)

    @pytest.mark.parametrize("which", ["map1", "map2"])
    def test_transient_misses(self, which):
        keys = default_keys()
        longer = replace(keys, **{which: replace(getattr(keys, which), transient=1001)})
        self.assert_misses(keys, self.DIMS, longer, self.DIMS)

    def test_slot_length_misses(self):
        self.assert_misses(default_keys(), self.DIMS, default_keys(), ImageDims(1, 6, 17))

    @pytest.mark.parametrize("shapes", [((1, 4, 6), (1, 6, 4)), ((1, 2, 6), (3, 2, 2))],
                             ids=["4x6-6x4", "gray-rgb"])
    def test_same_pixel_count_misses(self, shapes):
        # one slot length, two layouts: each misses the other, either way round
        keys = default_keys()
        a, b = (ImageDims(*shape) for shape in shapes)
        self.assert_misses(keys, a, keys, b)
        self.assert_misses(keys, b, keys, a)
        rng = np.random.default_rng(17)
        for shape in shapes + shapes:
            img = PlainImage.from_array(rng.integers(0, 256, shape, dtype=np.uint8))
            env = encrypt(img, keys)
            assert env.to_bytes() == reference_encrypt(img, keys).to_bytes()
            assert np.array_equal(decrypt(env, keys).pixels, img.pixels)

    @pytest.mark.parametrize("name", ["R", "K"])
    def test_held_arrays_are_read_only(self, name):
        array = dict(zip("RK", cipher._schedule(default_keys(), self.DIMS)))[name]
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

        run_concurrently([functools.partial(run, cases[t:] + cases[:t]) for t in range(4)])
        assert results == [(True, True)] * 16


# (depth, height, width): gray and RGB, even and odd pixel counts
FUSED_SHAPES = [(1, 1, 1), (1, 1, 2), (3, 3, 5), (1, 31, 49), (3, 4, 6)]


def shape_id(shape):
    return "x".join(map(str, shape))


@pytest.mark.usefixtures("path")
class TestFusedPath:
    """`encrypt` gathers from the raster and `decrypt` scatters into it, on
    the kernel and on the fallback, from pixels that are a view of a Netpbm
    raster (`read_image`) and from a C-contiguous (d, h, w) copy
    (`PlainImage.from_array`)."""

    @pytest.mark.parametrize("shape", FUSED_SHAPES, ids=shape_id)
    def test_matches_reference_and_round_trips(self, shape):
        rng = np.random.default_rng(sum(shape))
        keys = golden_keys(GOLDEN_KEY_SETS["k2"])
        copy = PlainImage.from_array(rng.integers(0, 256, shape, dtype=np.uint8))
        pnm = write_image(copy)
        view = read_image(pnm)
        expected = reference_encrypt(copy, keys).to_bytes()
        for img in (view, copy):
            env = encrypt(img, keys)
            assert env.to_bytes() == expected
            plain = decrypt(CipherEnvelope.from_bytes(env.to_bytes()), keys)
            assert np.array_equal(plain.pixels, copy.pixels)
            assert write_image(plain) == pnm

    @pytest.mark.parametrize("cut", ["columns", "one column", "broadcast", "channels"])
    def test_strided_pixels(self, cut):
        # pixels whose raster numpy can reshape to one strided axis without
        # a copy: it must still be gathered from a C-contiguous copy
        rng = np.random.default_rng(17)
        a = rng.integers(0, 256, (4, 12), dtype=np.uint8)
        arr = {"columns": a[:, ::2], "one column": a[:, 3:4],
               "broadcast": np.broadcast_to(np.uint8(7), (4, 12)),
               "channels": rng.integers(0, 256, (6, 4, 2), dtype=np.uint8)[::2]}[cut]
        img = PlainImage.from_array(arr)
        keys = golden_keys(GOLDEN_KEY_SETS["k2"])
        env = encrypt(img, keys)
        assert env.to_bytes() == reference_encrypt(img, keys).to_bytes()
        assert np.array_equal(decrypt(env, keys).pixels, img.pixels)

    def test_warm_encrypt_peak_allocation(self):
        # with the pair held, from a Netpbm raster: the body and its bytes,
        # and no copy of R as a wider index
        img = read_image(write_image(PlainImage.from_array(np.random.default_rng(8).integers(
            0, 256, (3, 128, 128), dtype=np.uint8))))
        encrypt(img, default_keys())
        _, peak = traced_peak(encrypt, img, default_keys())
        assert peak <= 3 * img.dims.pixel_count

    @pytest.mark.parametrize("shape", [(1, 4, 6), (3, 4, 6)], ids=shape_id)
    def test_netpbm_pixels_are_gathered_in_place(self, shape):
        pnm = write_image(PlainImage.from_array(np.zeros(shape, dtype=np.uint8)))
        img = read_image(pnm)
        raster = cipher._raster(img, img.dims.pixel_count)
        assert np.shares_memory(raster, img.pixels)
        plain = decrypt(encrypt(img, default_keys()), default_keys())
        assert plain.pixels.transpose(1, 2, 0).flags.c_contiguous  # raster order


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

    def test_wide_pixels_within_a_byte_are_kept(self):
        wide = np.array([[0, 1], [254, 255]], dtype=np.uint16)
        img = PlainImage.from_array(wide)
        assert img.pixels.dtype == np.uint8
        assert np.array_equal(img.pixels[0], wide)
        assert np.array_equal(decrypt(encrypt(img, default_keys()), default_keys()).pixels[0],
                              wide)

    @pytest.mark.parametrize("pixels", [
        np.array([[300]], dtype=np.uint16),
        np.array([[300, 4095], [65535, 256]], dtype=np.uint16),
        np.array([[1.7]]),
        np.array([[-1.0]]),
        np.array([[np.nan]]),
        np.array([[np.inf]]),
        [[300]],
        np.array([["5"]]),
    ], ids=["uint16-300", "uint16-scan", "1.7", "-1.0", "nan", "inf", "list-300", "str"])
    def test_pixels_that_do_not_fit_a_byte_raise(self, pixels):
        # a cast would wrap 300 to 44 and truncate 1.7 to 1
        with pytest.raises(ValueError, match="whole numbers in 0..255"):
            PlainImage.from_array(pixels)
        with pytest.raises(ValueError, match="whole numbers in 0..255"):
            PlainImage(ImageDims(1, *np.shape(pixels)), pixels)

    def test_pixel_arrays_of_other_ranks_raise(self):
        for shape in [(4,), (1, 1, 2, 2)]:
            with pytest.raises(DimensionError, match="2D or 3D"):
                PlainImage.from_array(np.zeros(shape, dtype=np.uint8))

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
    def test_ciphertext_digest(self, path, name):
        # the autouse cold_schedule_memo makes encrypt build the schedule
        image, key_set = name.split("/")
        keys = default_keys() if key_set == "default" else golden_keys(GOLDEN_KEY_SETS[key_set])
        env = encrypt(PlainImage.from_array(GOLDEN_IMAGES[image]()), keys)
        assert hashlib.sha256(env.to_bytes()).hexdigest() == GOLDEN_DIGESTS[name]

    def test_lyapunov_exact(self, path):
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
