"""Permutation-diffusion cipher over a flattened image byte vector.

The image is flattened (column-major, channel-planar) and zero-padded to an
even length 2N. Map 1 keys slot 0 (the first N bytes) and Map 2 slot 1.
The paper's split-half chain folds into one keystream XOR, one gather over
the whole vector and one more XOR:

    v = (v ^ X1)[R] ^ Y

Decryption is the scatter mirror and restores the plain image byte-for-byte.
Map 1's orbit, the slower of the two, is iterated on a worker thread; the
caller iterates Map 2 and makes both maps' keys.
"""

from __future__ import annotations

import queue
import struct
import threading
from dataclasses import dataclass

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


def _segments(params: MapParams, next_buffer, ys: np.ndarray):
    """Iterate the map from its seed through the four segments of its slot
    of len(ys) bytes, each written into a buffer from next_buffer() and
    yielded; a None buffer ends the orbit early. Segment 1's y values also
    go into ys. Divergence indices count from the seed."""
    state, skip, start = (params.x0, params.y0), params.transient, 0
    for _ in range(4):
        xs = next_buffer()
        if xs is None:
            return
        state = fill(params, state, xs, ys, skip=skip, start=start)
        ys, skip, start = None, 0, start + skip + len(xs)
        yield xs


def _fold(keys: list, xs: np.ndarray, index) -> None:
    """Fold a map's next segment into its keys, in orbit order, after its
    y-bytes: segment 1 adds its x-bytes and argsort s0, and the argsorts of
    segments 2-4 are composed into C = s1[s2][s3] as they come, making
    [y_bytes, x_bytes, s0, C]."""
    if len(keys) == 1:
        keys.append(quantize_to_bytes(xs))
    s = permutation_from_sequence(xs).astype(index, copy=False)
    keys.append(s if len(keys) < 4 else keys.pop()[s])


def _both_maps(keys: KeyMaterial, n: int) -> tuple:
    """Both maps' keys for slots of n bytes, each as [y_bytes, x_bytes, s0,
    C]. A worker thread only iterates Map 1, into a ring of two buffers that
    the caller allocated: it hands each full one over on `full` and takes a
    free one from `free`. The caller iterates Map 2 into one reused buffer
    and folds each map's segments as they come, so with the kernel every
    array is allocated on the caller and none in the worker's malloc arena."""
    index = np.int32 if 2 * n < 2**31 else np.intp
    full, free = queue.SimpleQueue(), queue.SimpleQueue()
    free.put(np.empty(n))
    free.put(np.empty(n))
    xs2, ys1, ys2, keys1, keys2 = np.empty(n), np.empty(n), np.empty(n), [], []

    def iterate_map1():
        try:
            for xs in _segments(keys.map1, free.get, ys1):
                full.put(xs)
        except BaseException as exc:  # raised on the caller
            full.put(exc)

    def map1_segments():
        for _ in range(4):
            xs = full.get()
            if isinstance(xs, BaseException):
                raise xs
            yield xs

    worker, map1_xs = threading.Thread(target=iterate_map1), map1_segments()
    worker.start()
    try:
        for k, xs in enumerate(_segments(keys.map2, lambda: xs2, ys2)):
            if k == 0:  # the y-bytes first, so that ys is freed before the argsort
                keys2.append(quantize_to_bytes(ys2))
                del ys2
            _fold(keys2, xs, index)
            xs = next(map1_xs)
            if k == 0:  # the worker has filled ys1 with this segment
                keys1.append(quantize_to_bytes(ys1))
                del ys1
            _fold(keys1, xs, index)
            free.put(xs)
    except Exception:
        # Map 1's orbit runs to its end, so that its error, if any, is the
        # one raised whatever the timing
        for xs in map1_xs:
            free.put(xs)
        raise
    finally:
        free.put(None)  # a worker still waiting for a buffer ends
        worker.join()
    return keys1, keys2


def build_key_schedule(keys: KeyMaterial, half_len: int) -> KeySchedule:
    """The schedule of a padded vector of 2N = 2 * half_len bytes. Gathers
    compose (`v[P][Q] == v[P[Q]]`), so the split-half chain
    `((v ^ X1)[P0] ^ X2)[P1][P2][P3]` (half swap in P0) is one gather
    `R = concat(b0[A] + N, a0[B])` and one mask `Y = concat(y1[A], y2[B])`,
    from Map 1's keys (x1, y1, a0, A) and Map 2's (x2, y2, b0, B).

    Map 1's orbit, the slower, is iterated on a worker thread, and all else
    on the caller, between Map 2's segments. The worker is joined before
    this returns or raises, and if both maps fail, Map 1's error is raised.
    """
    if half_len < 1:
        raise ValueError("half_len must be >= 1")
    n = half_len
    (y1, x1, a0, a), (y2, x2, b0, b) = _both_maps(keys, n)
    b0 += n  # Map 2's first argsort indexes slot 1
    return KeySchedule(xor1=np.concatenate([x1, x2]),
                       perm=np.concatenate([b0[a], a0[b]]),
                       xor2=np.concatenate([y1[a], y2[b]]))


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
