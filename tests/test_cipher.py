import hashlib
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    diffuse_xor,
    encrypt,
    flatten,
    inverse_permute,
    permute,
    perturbed,
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
from conftest import random_image

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


class TestDiffuseXor:
    def test_self_cancel(self):
        assert list(diffuse_xor([5], [5])) == [0]

    def test_identity_keystream(self):
        assert list(diffuse_xor([170], [0])) == [170]

    def test_involution(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 200))
            v = rng.integers(0, 256, n, dtype=np.uint8)
            k = rng.integers(0, 256, n, dtype=np.uint8)
            assert np.array_equal(diffuse_xor(diffuse_xor(v, k), k), v)

    def test_length_mismatch(self):
        with pytest.raises(PermutationError):
            diffuse_xor([1, 2], [3])


class TestPermute:
    def test_gather(self):
        out = permute(np.array([10, 20, 30], dtype=np.uint8), [2, 0, 1])
        assert list(out) == [30, 10, 20]

    def test_scatter_inverse_of_gather(self):
        out = inverse_permute(np.array([30, 10, 20], dtype=np.uint8), [2, 0, 1])
        assert list(out) == [10, 20, 30]

    def test_identity(self):
        d = np.array([1, 2, 3], dtype=np.uint8)
        assert np.array_equal(permute(d, [0, 1, 2]), d)
        assert np.array_equal(inverse_permute(d, [0, 1, 2]), d)

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 128))
            d = rng.integers(0, 256, n, dtype=np.uint8)
            p = rng.permutation(n)
            assert np.array_equal(inverse_permute(permute(d, p), p), d)

    def test_histogram_preserved(self):
        rng = np.random.default_rng(4)
        d = rng.integers(0, 256, 500, dtype=np.uint8)
        p = rng.permutation(500)
        assert np.array_equal(
            np.bincount(permute(d, p), minlength=256), np.bincount(d, minlength=256)
        )

    def test_non_bijective_rejected(self):
        with pytest.raises(PermutationError):
            permute(np.array([1, 2, 3], dtype=np.uint8), [0, 0, 2])
        with pytest.raises(PermutationError):
            inverse_permute(np.array([1, 2], dtype=np.uint8), [0])


class TestKeySchedule:
    def test_structure(self):
        s = build_key_schedule(default_keys(), 8)
        assert s.xor1.size == s.xor2.size == 16
        assert len(s.perms) == 4
        for perm in s.perms:
            assert sorted(np.concatenate(perm)) == list(range(16))

    def test_deterministic(self):
        a = build_key_schedule(default_keys(), 16)
        b = build_key_schedule(default_keys(), 16)
        assert np.array_equal(a.xor1, b.xor1)
        assert np.array_equal(a.xor2, b.xor2)
        for pa, pb in zip(a.perms, b.perms):
            assert np.array_equal(np.concatenate(pa), np.concatenate(pb))

    def test_permutations_checked_and_read_only(self):
        s = build_key_schedule(default_keys(), 8)
        for perm in s.perms:
            assert not any(part.flags.writeable for part in perm)
        bad = (np.array([0, 0, 1, 2, 3, 4, 5, 6]), s.perms[1][1])
        with pytest.raises(PermutationError):
            KeySchedule(s.xor1, s.xor2, (s.perms[0], bad, *s.perms[2:]))
        with pytest.raises(PermutationError):
            KeySchedule(s.xor1, s.xor2, ((s.perms[0][0][:4], s.perms[0][1]), *s.perms[1:]))

    def test_seed_sensitivity(self):
        keys = default_keys()
        nudged = type(keys)(map1=perturbed(keys.map1, "x0"), map2=keys.map2)
        a = build_key_schedule(keys, 4096)
        b = build_key_schedule(nudged, 4096)
        frac = np.mean(a.xor1[:4096] != b.xor1[:4096])
        assert frac > 0.5


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
