"""Chosen-plaintext recovery of the cipher's equivalent key.

Encryption is `c(v) = (v ^ X1)[R] ^ Y` for one permutation R and one mask,
both fixed by the key and the image dims, with no plaintext feedback. So
`c(v) ^ c(0) = v[R]` for every plaintext v of those dims, and four chosen
plaintexts give R and c(0): the all-zero image and three images whose
pixel i (in the cipher's public flatten order) holds byte k of i + 1, for
k = 0, 1, 2. That covers any image up to 2**24 bytes. With R and c(0) every
ciphertext of the same dims decrypts without the key. This is the
permutation-only weakness quantified by Li, Li, Chen, Bourbakis and Lo,
"A general quantitative cryptanalysis of permutation-only multimedia
ciphers against plaintext attacks" (Signal Processing: Image
Communication, 2008).
"""

import numpy as np
import pytest

from chaosimg.cipher import (
    ImageDims,
    PlainImage,
    default_keys,
    encrypt,
)
from test_cipher import GOLDEN_KEY_SETS, golden_keys, reference_schedule, unflatten


def body(envelope) -> np.ndarray:
    return np.frombuffer(envelope.body, dtype=np.uint8)


def read_labels(dims: ImageDims, oracle):
    """The label i + 1 that each ciphertext position reads, and c(0), from 4
    chosen plaintexts; `oracle` encrypts a PlainImage."""
    count = dims.pixel_count
    assert count <= 2**24
    zero = body(oracle(unflatten(np.zeros(count, dtype=np.uint8), dims)))
    labels = np.arange(1, count + 1, dtype=np.int64)
    read = np.zeros(zero.size, dtype=np.int64)
    for k in range(3):
        plain = unflatten((labels >> (8 * k)) & 255, dims)
        read |= (body(oracle(plain)) ^ zero).astype(np.int64) << (8 * k)
    return read, zero


def recover(read: np.ndarray) -> np.ndarray:
    """R from the labels read."""
    # label 0 is the zero pad byte, the last slot of the padded vector (or,
    # at exactly 2**24 bytes, pixel 2**24 - 1, whose label wraps to 0)
    return np.where(read == 0, read.size - 1, read - 1)


def decrypt_without_key(envelope, perm, zero) -> PlainImage:
    v = np.empty_like(zero)
    v[perm] = body(envelope) ^ zero  # v[R] = c(v) ^ c(0)
    return unflatten(v[:envelope.dims.pixel_count], envelope.dims)


CASES = {
    "gray-odd": ((1, 37, 41), default_keys()),
    "gray-even": ((1, 64, 48), golden_keys(GOLDEN_KEY_SETS["k1"])),
    "rgb-even": ((3, 24, 20), golden_keys(GOLDEN_KEY_SETS["k2"])),
    "rgb-odd": ((3, 7, 5), golden_keys(GOLDEN_KEY_SETS["k3"])),
}


@pytest.mark.parametrize("name", list(CASES))
def test_four_chosen_plaintexts_decrypt_without_the_key(name):
    shape, keys = CASES[name]
    dims = ImageDims(*shape)
    calls = []

    def oracle(image):
        calls.append(image)
        return encrypt(image, keys)

    read, zero = read_labels(dims, oracle)
    perm = recover(read)
    assert len(calls) == 4
    # only the zero pad byte of an odd pixel count reads label 0
    assert np.count_nonzero(read == 0) == dims.pixel_count % 2
    assert np.array_equal(perm, reference_schedule(keys, zero.size // 2)[0])

    rng = np.random.default_rng(sum(shape))
    secret = PlainImage.from_array(rng.integers(0, 256, shape, dtype=np.uint8))
    restored = decrypt_without_key(encrypt(secret, keys), perm, zero)
    assert np.array_equal(restored.pixels, secret.pixels)


@pytest.mark.parametrize("depth", [1, 3])
def test_one_pixel_changes_one_ciphertext_byte(depth):
    # the baseline diffusion of envelope version 1: with no plaintext
    # feedback, a changed pixel changes only the byte it is gathered to, so
    # NPCR (the share of ciphertext bytes that differ) is 1/N, not ~99.6%
    keys = default_keys()
    rng = np.random.default_rng(depth)
    pixels = rng.integers(0, 256, (depth, 64, 48), dtype=np.uint8)
    base = body(encrypt(PlainImage.from_array(pixels), keys))
    for d, row, col in [(0, 0, 0), (depth - 1, 63, 47), (depth // 2, 17, 30)]:
        changed = pixels.copy()
        changed[d, row, col] ^= 1 + int(rng.integers(255))
        differ = body(encrypt(PlainImage.from_array(changed), keys)) != base
        assert np.count_nonzero(differ) == 1
        assert differ.mean() == 1 / base.size
