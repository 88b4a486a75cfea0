"""Split-half permutation-diffusion cipher over a flattened image byte vector.

Encryption pipeline (each half is driven by its own map):
  flatten (column-major, channel-planar) -> split into halves P1/P2
  -> XOR with the x-derived keystream -> permute with argsort of x
  -> swap the halves (keys stay with their slot) -> XOR with the y-derived
  keystream -> three further re-permutations -> concatenate.
Decryption is the exact mirror and restores the plain image byte-for-byte.
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
class HalfSchedule:
    """Key material for one half-slot: two keystreams and four permutations.

    Each permutation is checked here, once, and made read-only, so that
    encrypt and decrypt can apply them without checking again.
    """

    xor1: np.ndarray
    xor2: np.ndarray
    perm1: np.ndarray
    reperms: tuple  # three PermutationVectors applied in order

    def __post_init__(self):
        for perm in (self.perm1, *self.reperms):
            _check_perm(self.xor1, perm).flags.writeable = False


@dataclass(frozen=True)
class CipherEnvelope:
    dims: ImageDims
    pad: int
    body: bytes

    def __post_init__(self):
        if self.pad not in (0, 1):
            raise MalformedEnvelopeError(f"pad must be 0 or 1, got {self.pad}")
        if len(self.body) != self.dims.pixel_count + self.pad:
            raise MalformedEnvelopeError("body length does not match dims + pad")

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
        if pad not in (0, 1):
            raise MalformedEnvelopeError(f"bad pad byte {pad}")
        body = data[_HEADER.size:]
        expected = depth * height * width + pad
        if len(body) != expected:
            raise MalformedEnvelopeError(
                f"body length {len(body)} != expected {expected}"
            )
        return cls(dims=ImageDims(depth, height, width), pad=pad, body=bytes(body))


def flatten(image: PlainImage) -> np.ndarray:
    """Column-major, channel-planar flatten: index = d*(H*W) + col*H + row."""
    return np.ascontiguousarray(image.pixels.transpose(0, 2, 1)).reshape(-1)


def unflatten(vec: np.ndarray, dims: ImageDims) -> PlainImage:
    px = np.asarray(vec, dtype=np.uint8).reshape(dims.depth, dims.width, dims.height)
    return PlainImage(dims=dims, pixels=px.transpose(0, 2, 1))


def split_halves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Split into equal halves, zero-padding one byte if the length is odd."""
    v = np.asarray(v, dtype=np.uint8)
    if v.size == 0:
        raise ValueError("empty input vector")
    pad = v.size % 2
    if pad:
        v = np.concatenate([v, np.zeros(1, dtype=np.uint8)])
    half = v.size // 2
    return v[:half].copy(), v[half:].copy(), pad


def diffuse_xor(data: np.ndarray, keystream: np.ndarray) -> np.ndarray:
    data = np.asarray(data, dtype=np.uint8)
    keystream = np.asarray(keystream, dtype=np.uint8)
    if data.shape != keystream.shape:
        raise PermutationError(
            f"length mismatch: data {data.size}, keystream {keystream.size}"
        )
    return data ^ keystream


def _check_perm(data: np.ndarray, perm: np.ndarray) -> np.ndarray:
    perm = np.asarray(perm)
    if perm.size != data.size:
        raise PermutationError(
            f"length mismatch: data {data.size}, perm {perm.size}"
        )
    seen = np.zeros(perm.size, dtype=bool)
    if perm.size and (perm.min() < 0 or perm.max() >= perm.size):
        raise PermutationError("permutation index out of range")
    seen[perm] = True
    if not seen.all():
        raise PermutationError("permutation is not a bijection")
    return perm


def _scatter(data: np.ndarray, perm: np.ndarray) -> np.ndarray:
    out = np.empty_like(data)
    out[perm] = data
    return out


def permute(data: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Gather: out[i] = data[perm[i]]."""
    data = np.asarray(data, dtype=np.uint8)
    return data[_check_perm(data, perm)]


def inverse_permute(data: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Scatter: out[perm[i]] = data[i]; inverse of permute."""
    data = np.asarray(data, dtype=np.uint8)
    return _scatter(data, _check_perm(data, perm))


def _half_schedule(params: MapParams, half_len: int) -> HalfSchedule:
    # one continuous post-transient run of 4*half_len iterates, filled one
    # segment at a time into the same buffer:
    # segment 1 -> keystreams + first permutation (x and y),
    # segments 2-4 -> re-perms (x only)
    xs, ys = np.empty(half_len), np.empty(half_len)
    state = fill(params, (params.x0, params.y0), xs, ys, skip=params.transient)
    xor1, xor2 = quantize_to_bytes(xs), quantize_to_bytes(ys)
    del ys
    perms = [permutation_from_sequence(xs)]
    for k in range(1, 4):
        state = fill(params, state, xs, start=params.transient + k * half_len)
        perms.append(permutation_from_sequence(xs))
    return HalfSchedule(xor1=xor1, xor2=xor2, perm1=perms[0], reperms=tuple(perms[1:]))


def build_key_schedule(
    keys: KeyMaterial, half_len: int
) -> tuple[HalfSchedule, HalfSchedule]:
    """Schedules of the two half-slots: Map 1 drives the first, Map 2 the second."""
    if half_len < 1:
        raise ValueError("half_len must be >= 1")
    return _half_schedule(keys.map1, half_len), _half_schedule(keys.map2, half_len)


def encrypt(image: PlainImage, keys: KeyMaterial) -> CipherEnvelope:
    p1, p2, pad = split_halves(flatten(image))
    s1, s2 = build_key_schedule(keys, p1.size)

    d1 = diffuse_xor(p1, s1.xor1)
    d2 = diffuse_xor(p2, s2.xor1)
    q1 = d1[s1.perm1]
    q2 = d2[s2.perm1]
    # swap moves the data between slots; each slot keeps its own map's keys
    c1 = diffuse_xor(q2, s1.xor2)
    c2 = diffuse_xor(q1, s2.xor2)
    for k in range(3):
        c1 = c1[s1.reperms[k]]
        c2 = c2[s2.reperms[k]]
    body = np.concatenate([c1, c2]).tobytes()
    return CipherEnvelope(dims=image.dims, pad=pad, body=body)


def decrypt(envelope: CipherEnvelope, keys: KeyMaterial) -> PlainImage:
    body = np.frombuffer(envelope.body, dtype=np.uint8)
    if body.size != envelope.dims.pixel_count + envelope.pad or body.size % 2:
        raise MalformedEnvelopeError("body length inconsistent with dims and pad")
    half = body.size // 2
    s1, s2 = build_key_schedule(keys, half)

    c1, c2 = body[:half], body[half:]
    for k in (2, 1, 0):
        c1 = _scatter(c1, s1.reperms[k])
        c2 = _scatter(c2, s2.reperms[k])
    q2 = diffuse_xor(c1, s1.xor2)
    q1 = diffuse_xor(c2, s2.xor2)
    p1 = diffuse_xor(_scatter(q1, s1.perm1), s1.xor1)
    p2 = diffuse_xor(_scatter(q2, s2.perm1), s2.xor1)
    vec = np.concatenate([p1, p2])
    if envelope.pad:
        vec = vec[:-1]
    return unflatten(vec, envelope.dims)


def perturbed(params: MapParams, field: str, delta: float = 1e-10) -> MapParams:
    """Copy of params with one real parameter nudged by delta (key-sensitivity runs)."""
    return replace(params, **{field: getattr(params, field) + delta})
