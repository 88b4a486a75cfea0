"""Permutation-diffusion cipher over a flattened image byte vector.

The image is flattened (column-major, channel-planar) and zero-padded to
an even length 2N. Map 1 keys slot 0 (the first N bytes) and Map 2 slot 1.
The paper's split-half chain folds into one keystream XOR, one gather over
the whole vector and one more XOR, `v = (v ^ X1)[P] ^ Y`. The flatten is
itself a gather, `v = raster[L]` from the image's Netpbm raster (height,
width, depth) and the zero pad byte, so the whole cipher is one gather and
one XOR:

    c = raster[R] ^ K,    R = L[P],    K = X1[P] ^ Y

Decryption is the scatter mirror, `raster[R] = c ^ K`, and restores the
plain image byte-for-byte. Both run in the kernel's byte loops when it is
built (`_gather_xor`, `_scatter_xor`). In `build_key_schedule` one loop on
the caller iterates Map 2 and folds each map's segments into its keys,
Map 2's segment and then Map 1's, segment 1 with its y values; each fold's
argsort consumes its segment's buffer, which then carries the other map's
next segment. Each slot's part of (R, K) is then written by one rule,
through the other map's keys and the other slot's part of L (`_slot`), so
P, X1 and Y are never made. No index pass makes an intp copy of its index.
Map 1's orbit, the slower of the two, runs on a kernel thread
(`chaos_orbit_start`) while the caller keys Map 2, at every slot length;
without the kernel, the caller iterates both and no thread is started.

`encrypt` and `decrypt` take (R, K) from `_schedule`, which holds the most
recent pair: a call with the same key bits and image dims as the call
before it reuses that pair instead of building it again. The held pair is
key-equivalent for images of its dims, and it stays in memory (10N bytes)
until a call with another key or dims replaces it.
"""

from __future__ import annotations

import ctypes
import itertools
import struct
from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import DimensionError, DivergenceError, MalformedEnvelopeError, PermutationError
from .maps import (BLOCK, MapId, MapParams, default_map1, default_map2, fill,
                   permutation_from_sequence, quantize_to_bytes)

ENVELOPE_MAGIC = b"CSE1"
ENVELOPE_VERSION = 1
_HEADER = struct.Struct(">4sBBIIB")  # magic, version, depth, height, width, pad
ENVELOPE_HEADER_SIZE = _HEADER.size


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
    """Pixel matrix of shape (depth, height, width), dtype uint8. Pixels of
    another dtype must be bool, integer or float whole numbers in 0..255
    (else ValueError): a cast would wrap a 16-bit 300 to 44 and truncate
    1.7 to 1."""

    dims: ImageDims
    pixels: np.ndarray

    def __post_init__(self):
        d = self.dims
        px = np.asarray(self.pixels)
        if px.dtype != np.uint8:
            # strings, objects and complex numbers fail the dtype test, and
            # NaN fails the range test, with no warning
            if not (px.dtype.kind in "biuf" and ((px >= 0) & (px <= 255)).all()
                    and np.array_equal(px.astype(np.uint8), px)):
                raise ValueError("pixel values must be whole numbers in 0..255")
            px = px.astype(np.uint8)
        object.__setattr__(self, "pixels", px.reshape(d.depth, d.height, d.width))

    @classmethod
    def from_array(cls, arr) -> "PlainImage":
        arr = np.asarray(arr)
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
        dims, pad = _unpack_header(data)
        return cls(dims=dims, pad=pad, body=bytes(data[_HEADER.size:]))


def _unpack_header(data: bytes) -> tuple[ImageDims, int]:
    if len(data) < _HEADER.size:
        raise MalformedEnvelopeError("truncated header")
    magic, version, depth, height, width, pad = _HEADER.unpack_from(data)
    if magic != ENVELOPE_MAGIC:
        raise MalformedEnvelopeError(f"bad magic {magic!r}")
    if version != ENVELOPE_VERSION:
        raise MalformedEnvelopeError(f"unsupported version {version}")
    if depth not in (1, 3):
        raise MalformedEnvelopeError(f"bad depth byte {depth}")
    return ImageDims(depth, height, width), pad


def envelope_length(header: bytes) -> int:
    """The length, header and body, of the envelope that `header` (its first
    ENVELOPE_HEADER_SIZE bytes or more) states. A bad header raises as in
    `CipherEnvelope.from_bytes`."""
    dims, pad = _unpack_header(header)
    return _HEADER.size + dims.pixel_count + pad


def _segments(params: MapParams, buffers, ys: np.ndarray):
    """Iterate the map from its seed through the four segments of its slot
    of len(ys) values, each written into the next of `buffers` and yielded.
    A buffer is free again once the segment's fold has consumed it, so both
    maps' orbits can take turns in one (`build_key_schedule`). Segment 1's y
    values also go into ys. Divergence indices count from the seed."""
    state, skip, start = (params.x0, params.y0), params.transient, 0
    for xs in itertools.islice(buffers, 4):
        state = fill(params, state, xs, ys, skip=skip, start=start)
        ys, skip, start = None, 0, start + skip + len(xs)
        yield xs


def _taken(lib, at, buffers):
    """Map 1's segments from the kernel's thread of the handle at `at`, one
    `chaos_orbit_take` each: it gives the thread the buffer of the caller's
    last Map 2 segment, for its next one, and returns once segment k is in
    buffers[k % 2], which is yielded."""
    for k in range(4):
        bad = lib.chaos_orbit_take(at)
        if bad >= 0:
            raise DivergenceError(bad)
        yield buffers[k % 2]


def _fold(keys: list, xs: np.ndarray, ys: list) -> None:
    """Fold a map's next segment into its keys, in orbit order: segment 1
    adds the bytes of the y values it pops from `ys`, freed before its
    argsort, its x-bytes and argsort s0, and the argsorts of segments 2-4
    are composed into C = s1[s2][s3] as they come, each written over the
    new argsort's array: [y_bytes, x_bytes, s0, C]. The argsort consumes
    the values of `xs`, so the buffer is free for the next segment."""
    if ys:
        keys.append(quantize_to_bytes(ys.pop()))
        keys.append(quantize_to_bytes(xs))
    s = permutation_from_sequence(xs)
    if len(keys) == 4:
        _compose(keys.pop(), s)
    keys.append(s)


def build_key_schedule(keys: KeyMaterial, dims: ImageDims) -> tuple[np.ndarray, np.ndarray]:
    """The read-only pair (R, K) with which an image of `dims` encrypts as
    `raster[R] ^ K`, over its padded vector of 2N < 2**31 bytes (else
    DimensionError). Gathers compose (`v[P][Q] == v[P[Q]]`), so the chain
    `((v ^ X1)[P0] ^ X2)[P1][P2][P3]` (half swap in P0) of the flattened
    vector `v = raster[L]` (`_layout`) is one gather and one mask. Slot 0
    has Map 1's keys (y, x, s0, C) and slot 1 Map 2's, and each slot reads
    the other through the other map's s0' composed with its own C: with
    p = s0'[C], R = L'[p] and K = x'[p] ^ y[C], where L' is the other
    slot's part of L (`_slot`). L is built after the orbits are dropped,
    and the p of both slots are checked, once, as a bijection.

    One loop makes both maps' keys: the caller iterates Map 2's segment k
    and folds it, segment 1 with its y values, which consumes its values,
    then folds Map 1's segment k. With the kernel, Map 1's orbit runs on the
    kernel's thread meanwhile, and two orbit buffers, ping-pong, carry the
    orbits: the thread starts on one, takes each that Map 2's fold has
    consumed for Map 1's next segment, and hands each back full for Map 1's
    fold and Map 2's next segment. Every array is the caller's, so none is
    in the thread's malloc arena, whose pages glibc would keep after they
    are freed. The thread is joined before this returns or raises; an
    interrupt stops it at its next segment. Without the kernel (one orbit
    buffer then), or where no thread can start, the caller iterates Map 1
    too. Either way the bytes are the same, and if both maps fail, Map 1's
    error is raised.
    """
    n = (dims.pixel_count + 1) // 2
    if 2 * n >= 2**31:  # R is int32; refused before anything is allocated
        raise DimensionError(f"{dims} pads to {2 * n} bytes; the cipher takes fewer than 2**31")
    lib, m1 = kernel.library(), keys.map1
    # the orbit buffers before the y buffers, which are freed first, so that
    # glibc can trim those from the top of the heap; and the zeroed handle from
    # ctypes, since numpy would keep a small array's block in its cache,
    # where it pins the top of the heap (each cost 1 MB of peak RSS when a
    # 256² gray encrypt came before a 512² RGB one)
    buffers = [np.empty(n) for _ in range(1 if lib is None else 2)]
    ys1, ys2, keys1, keys2 = [np.empty(n)], [np.empty(n)], [], []
    handle = None if lib is None else ctypes.create_string_buffer(lib.chaos_orbit_size())
    at = None if handle is None else kernel.address(handle)
    map1 = _segments(m1, itertools.cycle(buffers), ys1[0])  # unless the thread starts
    try:  # the start too: an interrupt raised as it returns is joined below
        if at is not None and not lib.chaos_orbit_start(
                at, m1.r, m1.x0, m1.y0, m1.transient,
                *map(kernel.address, (ys1[0], *buffers)), n):
            map1 = _taken(lib, at, buffers)
        for xs in _segments(keys.map2, itertools.cycle(buffers[::-1]), ys2[0]):
            _fold(keys2, xs, ys2)
            _fold(keys1, next(map1), ys1)
    except Exception:
        # Map 1's orbit runs to its end, so that its error, if any, is the
        # one raised whatever the timing
        for _ in map1:
            pass
        raise
    finally:
        if at is not None:  # called directly: no Python code runs first, so no interrupt
            lib.chaos_orbit_join(at)
    del xs, buffers, map1  # the orbits and their buffers go before L and the pair
    layout = _layout(dims, 2 * n)
    R, K, seen = np.empty(2 * n, np.int32), np.empty(2 * n, np.uint8), np.zeros(2 * n, np.uint8)
    for own, other, (y, _, _, c), (_, x, s0, _) in ((slice(n), slice(n, None), keys1, keys2),
                                                    (slice(n, None), slice(n), keys2, keys1)):
        _slot(c, s0, x, y, layout[other], R[own], K[own], seen[other])
    if not seen.all():
        raise PermutationError("permutation is not a bijection")
    R.flags.writeable = K.flags.writeable = False
    return R, K


def _compose(src: np.ndarray, index: np.ndarray) -> None:
    """index[:] = src[index] for `_fold`, over int32 arrays that do not
    overlap, with no intp copy: in the kernel, or BLOCK values at a time."""
    lib = kernel.library()
    if lib is not None:
        lib.chaos_gather_in_place(kernel.address(src), kernel.address(index), index.size)
        return
    for start in range(0, index.size, BLOCK):
        block = index[start:start + BLOCK]
        block[...] = src[block]


def _slot(c: np.ndarray, s0: np.ndarray, x: np.ndarray, y: np.ndarray, layout: np.ndarray,
          r: np.ndarray, k: np.ndarray, seen: np.ndarray) -> None:
    """One slot of the key schedule, over the keys `_fold` made: with
    p = s0[c], r[:] = layout[p], k[:] = x[p] ^ y[c] and seen[p] = 1, where
    layout (int32, as r) and seen are the other slot's part of L and of the
    bijection check. In the kernel, or BLOCK values at a time."""
    lib = kernel.library()
    if lib is not None:
        address = kernel.address
        lib.chaos_slot(address(c), address(s0), address(x), address(y), address(layout),
                       address(r), address(k), address(seen), c.size)
        return
    for start in range(0, c.size, BLOCK):
        block = c[start:start + BLOCK]
        p = s0[block]
        k[start:start + BLOCK] = x[p] ^ y[block]
        r[start:start + BLOCK] = layout[p]
        seen[p] = 1


def _layout(dims: ImageDims, size: int) -> np.ndarray:
    """L, int32, with `raster[L]` the flattened, padded vector of
    an image of `dims` (index d*(H*W) + col*H + row) from its raster of
    `size` bytes (index row*(W*D) + col*D + d, then the pad byte)."""
    d, h, w = dims.depth, dims.height, dims.width
    layout = np.empty(size, np.int32)
    layout[-1] = size - 1  # the pad byte, if any; a pixel's index otherwise
    ds, cols, rows = (np.arange(k, dtype=np.int32) for k in (d, w, h))
    np.add((ds[:, None] + cols * d)[:, :, None], rows * (w * d),
           out=layout[:dims.pixel_count].reshape(d, w, h))
    return layout


def _raster(image: PlainImage, size: int) -> np.ndarray:
    """The pixels in Netpbm order (height, width, depth), zero-padded to
    `size` bytes: a view of pixels that `netpbm.read_image` made, unless
    padded."""
    px = image.pixels.transpose(1, 2, 0)
    if px.size == size:  # a strided view, such as a column slice, is copied
        return np.ascontiguousarray(px.reshape(-1))
    raster = np.zeros(size, np.uint8)
    np.copyto(raster[:px.size].reshape(px.shape), px)
    return raster


def _loop(index: np.ndarray, *arrays: np.ndarray):
    """The kernel, if it is built, or None for numpy, to run a gather or
    scatter by `index` over the byte `arrays`. Raises ValueError unless all
    are C-contiguous and of one length, `index` is int32 and `arrays` are
    uint8. That `index` is a permutation is not checked here:
    `build_key_schedule` checks R."""
    if not all(a.size == index.size and a.flags.c_contiguous
               and a.dtype == (np.int32 if a is index else np.uint8) for a in (index, *arrays)):
        raise ValueError("gather and scatter: C-contiguous uint8 arrays, int32 index, one length")
    return kernel.library()


def _gather_xor(src: np.ndarray, index: np.ndarray, key: np.ndarray) -> np.ndarray:
    """`src[index] ^ key`, for bytes and a permutation `index` (`_loop`).
    Without the kernel it indexes, which casts the int32 index to intp a
    chunk at a time, where `np.take` would first copy all of it."""
    lib = _loop(index, src, key)
    if lib is None:
        out = src[index]
        out ^= key
        return out
    out = np.empty_like(src)
    lib.chaos_gather_xor(src.ctypes.data, index.ctypes.data, key.ctypes.data,
                         out.ctypes.data, out.size)
    return out


def _scatter_xor(src: np.ndarray, index: np.ndarray, key: np.ndarray) -> np.ndarray:
    """`out` with `out[index] = src ^ key`, the inverse of `_gather_xor`."""
    lib = _loop(index, src, key)
    out = np.empty_like(src)
    if lib is None:
        out[index] = src ^ key
    else:
        lib.chaos_scatter_xor(src.ctypes.data, index.ctypes.data, key.ctypes.data,
                              out.ctypes.data, out.size)
    return out


# The tag of a held pair: the bits of the key's ten map parameters and two
# transients, and the image dims. It compares bits, not values, because
# KeyMaterial equality takes -0.0 for 0.0.
_TAG = struct.Struct("=10d5q")
_held = (None, None)  # (tag, (R, K)) of the most recent `_schedule` call


def _schedule(keys: KeyMaterial, dims: ImageDims) -> tuple[np.ndarray, np.ndarray]:
    """`build_key_schedule(keys, dims)`, held: a call with the same tag as
    the call before returns its pair. A miss drops the held pair before it
    builds the new one, so two are never alive at once, and a build that
    raises leaves nothing held. There is no lock: `_held` is read once and
    assigned whole, so threads that miss together each build, and return,
    their own pair."""
    global _held
    m1, m2 = keys.map1, keys.map2
    tag = _TAG.pack(m1.r, m1.a, m1.b, m1.x0, m1.y0, m2.r, m2.a, m2.b, m2.x0, m2.y0,
                    m1.transient, m2.transient, dims.depth, dims.height, dims.width)
    held = _held
    if held[0] == tag:
        return held[1]
    _held = held = (None, None)  # no reference to the old pair is left
    pair = build_key_schedule(keys, dims)
    _held = (tag, pair)
    return pair


def encrypt(image: PlainImage, keys: KeyMaterial) -> CipherEnvelope:
    """The envelope of `image`, in one gather from its raster. Its pair
    (R, K) is the one the previous `encrypt` or `decrypt` used if that call
    had the same key and dims, and is built otherwise (`_schedule`)."""
    dims = image.dims
    index, key = _schedule(keys, dims)
    body = _gather_xor(_raster(image, index.size), index, key)
    return CipherEnvelope(dims=dims, pad=index.size - dims.pixel_count, body=body.tobytes())


def decrypt(envelope: CipherEnvelope, keys: KeyMaterial) -> PlainImage:
    """The plain image of `envelope`, scattered straight into raster order,
    with its pair taken as in `encrypt`: an encrypt followed by its decrypt
    builds one pair."""
    dims = envelope.dims
    index, key = _schedule(keys, dims)
    raster = _scatter_xor(np.frombuffer(envelope.body, dtype=np.uint8), index, key)
    pixels = raster[:dims.pixel_count].reshape(dims.height, dims.width, dims.depth)
    return PlainImage(dims=dims, pixels=pixels.transpose(2, 0, 1))
