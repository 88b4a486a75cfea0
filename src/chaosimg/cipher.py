"""Permutation-diffusion cipher over a flattened image byte vector.

The image is flattened (column-major, channel-planar) and zero-padded to an
even length 2N. Map 1 drives slot 0 (the first N bytes) and Map 2 slot 1;
the key schedule lays both maps' keys out over the whole vector, so that
encryption is one chain:

    v = ((v ^ X1)[P0] ^ X2)[P1][P2][P3]

X1 and X2 are the x- and y-derived keystreams, and P0..P3 gather from the
whole vector. P0 carries the half swap of the split-half scheme: each slot
gathers through the other map's first argsort, from the other slot.
Decryption is the scatter mirror and restores the plain image byte-for-byte.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, MalformedEnvelopeError, PermutationError
from .maps import (
    MapId,
    MapParams,
    default_map1,
    default_map2,
    fill,
    permutation_from_sequence,
    quantize_to_bytes,
)

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


def diffuse_xor(data: np.ndarray, keystream: np.ndarray) -> np.ndarray:
    data = np.asarray(data, dtype=np.uint8)
    keystream = np.asarray(keystream, dtype=np.uint8)
    if data.shape != keystream.shape:
        raise PermutationError(
            f"length mismatch: data {data.size}, keystream {keystream.size}"
        )
    return data ^ keystream


def _check_perm(size: int, parts) -> tuple:
    """Check that the index arrays `parts`, laid end to end, are a bijection
    over range(size), and return them as arrays."""
    parts = tuple(np.asarray(p) for p in parts)
    length = sum(p.size for p in parts)
    if length != size:
        raise PermutationError(f"length mismatch: data {size}, perm {length}")
    seen = np.zeros(size, dtype=bool)
    for p in parts:
        if p.size and (p.min() < 0 or p.max() >= size):
            raise PermutationError("permutation index out of range")
        seen[p] = True
    if not seen.all():
        raise PermutationError("permutation is not a bijection")
    return parts


def _gather(data: np.ndarray, parts) -> np.ndarray:
    """data[parts[0]], data[parts[1]], ... laid end to end."""
    return np.concatenate([data[p] for p in parts])


def _scatter(data: np.ndarray, parts) -> np.ndarray:
    """Inverse of _gather: each part receives the next run of data."""
    out = np.empty_like(data)
    start = 0
    for p in parts:
        out[p] = data[start:start + p.size]
        start += p.size
    return out


def permute(data: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Gather: out[i] = data[perm[i]]."""
    data = np.asarray(data, dtype=np.uint8)
    return _gather(data, _check_perm(data.size, (perm,)))


def inverse_permute(data: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Scatter: out[perm[i]] = data[i]; inverse of permute."""
    data = np.asarray(data, dtype=np.uint8)
    return _scatter(data, _check_perm(data.size, (perm,)))


@dataclass(frozen=True)
class KeySchedule:
    """Key material for a padded vector of 2N bytes.

    `xor1` and `xor2` are keystreams of 2N bytes: Map 1's in slot 0 (the
    first N bytes), Map 2's in slot 1. `perms` holds P0..P3, each a pair of
    per-slot index arrays that gather from the whole vector. Each
    permutation is checked here, once, as a bijection over 2N and made
    read-only, so that encrypt and decrypt apply them without checking again.
    """

    xor1: np.ndarray
    xor2: np.ndarray
    perms: tuple

    def __post_init__(self):
        for perm in self.perms:
            for part in _check_perm(self.xor1.size, perm):
                part.flags.writeable = False


def build_key_schedule(keys: KeyMaterial, half_len: int) -> KeySchedule:
    """The schedule of a padded vector of 2 * half_len bytes.

    Each map makes one continuous post-transient run of 4 * half_len
    iterates, filled one segment at a time into the same buffer. Segment 1
    gives the map's slot of both keystreams (x and y) and its first argsort;
    segments 2-4 (x only) give its re-permutations. The half swap is folded
    into P0: slot 0 gathers through Map 2's first argsort from slot 1, and
    slot 1 through Map 1's from slot 0.
    """
    if half_len < 1:
        raise ValueError("half_len must be >= 1")
    n = half_len
    xor1, xor2 = np.empty(2 * n, dtype=np.uint8), np.empty(2 * n, dtype=np.uint8)
    sorts = []
    for slot, params in enumerate((keys.map1, keys.map2)):
        xs, ys = np.empty(n), np.empty(n)
        state = fill(params, (params.x0, params.y0), xs, ys, skip=params.transient)
        xor1[slot * n:(slot + 1) * n] = quantize_to_bytes(xs)
        xor2[slot * n:(slot + 1) * n] = quantize_to_bytes(ys)
        del ys
        sorts.append([permutation_from_sequence(xs)])
        for k in range(1, 4):
            state = fill(params, state, xs, start=params.transient + k * n)
            sorts[slot].append(permutation_from_sequence(xs))
    (a0, *a), (b0, *b) = sorts
    for perm in (b0, *b):
        perm += n  # Map 2's argsorts index slot 1
    return KeySchedule(xor1=xor1, xor2=xor2, perms=((b0, a0), *zip(a, b)))


def encrypt(image: PlainImage, keys: KeyMaterial) -> CipherEnvelope:
    flat = flatten(image)
    pad = flat.size % 2
    v = np.concatenate([flat, np.zeros(pad, dtype=np.uint8)])
    s = build_key_schedule(keys, v.size // 2)
    v = diffuse_xor(_gather(diffuse_xor(v, s.xor1), s.perms[0]), s.xor2)
    for perm in s.perms[1:]:
        v = _gather(v, perm)
    return CipherEnvelope(dims=image.dims, pad=pad, body=v.tobytes())


def decrypt(envelope: CipherEnvelope, keys: KeyMaterial) -> PlainImage:
    v = np.frombuffer(envelope.body, dtype=np.uint8)
    s = build_key_schedule(keys, v.size // 2)
    for perm in reversed(s.perms[1:]):
        v = _scatter(v, perm)
    v = diffuse_xor(_scatter(diffuse_xor(v, s.xor2), s.perms[0]), s.xor1)
    return unflatten(v[:envelope.dims.pixel_count], envelope.dims)


def perturbed(params: MapParams, field: str, delta: float = 1e-10) -> MapParams:
    """Copy of params with one real parameter nudged by delta (key-sensitivity runs)."""
    return replace(params, **{field: getattr(params, field) + delta})
