"""Permutation-diffusion cipher over a flattened image byte vector.

The image is flattened (column-major, channel-planar) and zero-padded to an
even length 2N. Map 1 keys slot 0 (the first N bytes) and Map 2 slot 1.
The paper's split-half chain folds into one keystream XOR, one gather over
the whole vector and one more XOR:

    v = (v ^ X1)[R] ^ Y

Decryption is the scatter mirror and restores the plain image byte-for-byte.
Map 2's keys are made on a worker thread while Map 1's are made on the caller.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, MalformedEnvelopeError, PermutationError
from .maps import (MapId, MapParams, default_map1, default_map2, fill,
                   permutation_from_sequence, quantize_to_bytes)

ENVELOPE_MAGIC = b"CSE1"
ENVELOPE_VERSION = 1
_HEADER = struct.Struct(">4sBBIIB")  # magic, version, depth, height, width, pad


@dataclass(frozen=True)
class ImageDims:
    depth: int
    height: int
    width: int

    def __post_init__(self):
        if self.depth not in (1, 3):
            raise DimensionError(f"depth must be 1 or 3, got {self.depth}")
        if self.height < 1 or self.width < 1:
            raise DimensionError("height and width must be >= 1")

    @property
    def pixel_count(self) -> int:
        return self.depth * self.height * self.width


@dataclass(frozen=True)
class PlainImage:
    """Pixel matrix of shape (depth, height, width), dtype uint8."""

    dims: ImageDims
    pixels: np.ndarray

    def __post_init__(self):
        d = self.dims
        px = np.asarray(self.pixels, dtype=np.uint8).reshape(d.depth, d.height, d.width)
        object.__setattr__(self, "pixels", px)

    @classmethod
    def from_array(cls, arr) -> "PlainImage":
        arr = np.asarray(arr, dtype=np.uint8)
        if arr.ndim == 2:
            arr = arr[np.newaxis, :, :]
        if arr.ndim != 3:
            raise DimensionError("expected a 2D or 3D pixel array")
        d, h, w = arr.shape
        return cls(dims=ImageDims(depth=d, height=h, width=w), pixels=arr)


@dataclass(frozen=True)
class KeyMaterial:
    map1: MapParams
    map2: MapParams

    def __post_init__(self):
        if self.map1.map_id is not MapId.MAP1 or self.map2.map_id is not MapId.MAP2:
            raise ValueError("KeyMaterial requires (Map1, Map2) parameter pair")


def default_keys() -> KeyMaterial:
    return KeyMaterial(map1=default_map1(), map2=default_map2())


@dataclass(frozen=True)
class CipherEnvelope:
    dims: ImageDims
    pad: int
    body: bytes

    def __post_init__(self):
        count = self.dims.pixel_count
        if self.pad != count % 2:
            raise MalformedEnvelopeError(f"pad {self.pad} is wrong for {count} pixels")
        if len(self.body) != count + self.pad:
            raise MalformedEnvelopeError(
                f"body length {len(self.body)} != expected {count + self.pad}"
            )

    def to_bytes(self) -> bytes:
        d = self.dims
        header = _HEADER.pack(
            ENVELOPE_MAGIC, ENVELOPE_VERSION, d.depth, d.height, d.width, self.pad
        )
        return header + self.body

    @classmethod
    def from_bytes(cls, data: bytes) -> "CipherEnvelope":
        if len(data) < _HEADER.size:
            raise MalformedEnvelopeError("truncated header")
        magic, version, depth, height, width, pad = _HEADER.unpack_from(data)
        if magic != ENVELOPE_MAGIC:
            raise MalformedEnvelopeError(f"bad magic {magic!r}")
        if version != ENVELOPE_VERSION:
            raise MalformedEnvelopeError(f"unsupported version {version}")
        if depth not in (1, 3):
            raise MalformedEnvelopeError(f"bad depth byte {depth}")
        return cls(dims=ImageDims(depth, height, width), pad=pad, body=bytes(data[_HEADER.size:]))


def flatten(image: PlainImage) -> np.ndarray:
    """Column-major, channel-planar flatten: index = d*(H*W) + col*H + row."""
    return np.ascontiguousarray(image.pixels.transpose(0, 2, 1)).reshape(-1)


def unflatten(vec: np.ndarray, dims: ImageDims) -> PlainImage:
    px = np.asarray(vec, dtype=np.uint8).reshape(dims.depth, dims.width, dims.height)
    return PlainImage(dims=dims, pixels=px.transpose(0, 2, 1))


@dataclass(frozen=True)
class KeySchedule:
    """Keys for a padded vector of 2N bytes: encryption is `(v ^ xor1)[perm]
    ^ xor2`. `perm` is checked here, once, as a bijection over 2N and made
    read-only, so encrypt and decrypt do not check again."""

    xor1: np.ndarray
    perm: np.ndarray
    xor2: np.ndarray

    def __post_init__(self):
        size, perm = self.xor1.size, self.perm
        if perm.size != size:
            raise PermutationError(f"length mismatch: xor1 {size}, perm {perm.size}")
        if size and (perm.min() < 0 or perm.max() >= size):
            raise PermutationError("permutation index out of range")
        seen = np.zeros(size, dtype=bool)
        seen[perm] = True
        if not seen.all():
            raise PermutationError("permutation is not a bijection")
        perm.flags.writeable = False


def _map_keys(params: MapParams, n: int) -> tuple:
    """One map's keys for its slot of n bytes, from 4n iterates after the
    transient: segment 1's x- and y-bytes and argsort s0; the argsorts of
    segments 2-4 composed into C = s1[s2][s3] (int32 when 2n allows); and
    the y-bytes gathered through C. Returns (x_bytes, s0, C, y_bytes[C])."""
    index = np.int32 if 2 * n < 2**31 else np.intp
    xs, ys = np.empty(n), np.empty(n)
    state = fill(params, (params.x0, params.y0), xs, ys, skip=params.transient)
    x_bytes, y_bytes = quantize_to_bytes(xs), quantize_to_bytes(ys)
    del ys
    first = permutation_from_sequence(xs).astype(index, copy=False)
    composed = np.arange(n, dtype=index)
    for k in range(1, 4):
        state = fill(params, state, xs, start=params.transient + k * n)
        composed = composed[permutation_from_sequence(xs)]
    return x_bytes, first, composed, y_bytes[composed]


def build_key_schedule(keys: KeyMaterial, half_len: int) -> KeySchedule:
    """The schedule of a padded vector of 2N = 2 * half_len bytes. Gathers
    compose (`v[P][Q] == v[P[Q]]`), so the split-half chain
    `((v ^ X1)[P0] ^ X2)[P1][P2][P3]` (half swap in P0) is one gather
    `R = concat(b0[A] + N, a0[B])` and one mask `Y = concat(yA, yB)`, from
    Map 1's `_map_keys` (a0, A, yA) and Map 2's (b0, B, yB). Map 2's runs on
    a worker thread while Map 1's runs on the caller; the worker is joined
    before this returns or raises, and Map 1's error wins."""
    if half_len < 1:
        raise ValueError("half_len must be >= 1")
    n, map2 = half_len, []

    def run_map2():
        try:
            map2.append(_map_keys(keys.map2, n))
        except Exception as exc:  # raised below, after the join
            map2.append(exc)

    worker = threading.Thread(target=run_map2)
    worker.start()
    try:
        x1, a0, a, y1 = _map_keys(keys.map1, n)
    finally:
        worker.join()
    if isinstance(map2[0], Exception):
        raise map2[0]
    x2, b0, b, y2 = map2[0]
    b0 += n  # Map 2's first argsort indexes slot 1
    return KeySchedule(xor1=np.concatenate([x1, x2]),
                       perm=np.concatenate([b0[a], a0[b]]),
                       xor2=np.concatenate([y1, y2]))


def encrypt(image: PlainImage, keys: KeyMaterial) -> CipherEnvelope:
    flat = flatten(image)
    pad = flat.size % 2
    v = np.concatenate([flat, np.zeros(pad, dtype=np.uint8)])
    s = build_key_schedule(keys, v.size // 2)
    v = (v ^ s.xor1)[s.perm] ^ s.xor2
    return CipherEnvelope(dims=image.dims, pad=pad, body=v.tobytes())


def decrypt(envelope: CipherEnvelope, keys: KeyMaterial) -> PlainImage:
    v = np.frombuffer(envelope.body, dtype=np.uint8)
    s = build_key_schedule(keys, v.size // 2)
    out = np.empty_like(v)
    out[s.perm] = v ^ s.xor2  # the scatter undoes the gather
    out ^= s.xor1
    return unflatten(out[:envelope.dims.pixel_count], envelope.dims)


PERTURBATION = 1e-10  # the key change of key-sensitivity runs


def perturbed(params: MapParams, field: str) -> MapParams:
    """Copy of params with one real parameter nudged by PERTURBATION."""
    return replace(params, **{field: getattr(params, field) + PERTURBATION})
