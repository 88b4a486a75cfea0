"""Permutation-diffusion cipher over a flattened image byte vector.

The image is flattened (column-major, channel-planar) and zero-padded to an
even length 2N. Map 1 keys slot 0 (the first N bytes) and Map 2 slot 1.
The paper's split-half chain folds into one keystream XOR, one gather over
the whole vector and one more XOR:

    v = (v ^ X1)[R] ^ Y

Decryption is the scatter mirror and restores the plain image byte-for-byte.
One loop on the caller iterates Map 2 and folds each map's segments into
its keys, Map 2's segment and then Map 1's. The slot length only chooses
who iterates Map 1's orbit, the slower of the two: a worker thread from
`_SERIAL_BELOW` values per slot on, and the caller below it, where no
thread is started.

`encrypt` and `decrypt` take their schedule from `_schedule`, which holds
the most recent one: a call with the same key bits and slot length as the
call before it reuses that schedule instead of building it again. The
held schedule is key-equivalent, and it stays in memory (12N bytes) until
a call with another key or slot length replaces it.
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


def flatten(image: PlainImage) -> np.ndarray:
    """Column-major, channel-planar flatten: index = d*(H*W) + col*H + row."""
    return np.ascontiguousarray(image.pixels.transpose(0, 2, 1)).reshape(-1)


def unflatten(vec: np.ndarray, dims: ImageDims) -> PlainImage:
    px = np.asarray(vec, dtype=np.uint8).reshape(dims.depth, dims.width, dims.height)
    return PlainImage(dims=dims, pixels=px.transpose(0, 2, 1))


@dataclass(frozen=True)
class KeySchedule:
    """Keys for a padded vector of 2N bytes: encryption is `(v ^ xor1)[perm]
    ^ xor2`. `perm` is checked here, once, as a bijection over 2N, so
    encrypt and decrypt do not check again. All three arrays are made
    read-only, so a schedule that `_schedule` holds cannot be changed."""

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
        for array in (self.xor1, perm, self.xor2):
            array.flags.writeable = False


def _segments(params: MapParams, next_buffer, ys: np.ndarray):
    """Iterate the map from its seed through the four segments of its slot
    of len(ys) bytes, each written into a buffer from next_buffer() and
    yielded; a None buffer ends the orbit early. Segment 1's y values also
    go into ys. Divergence indices count from the seed. The map runs on the
    thread that advances the generator (`build_key_schedule` says which)."""
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


# Slot lengths below this are keyed without the worker. On a 2-vCPU Xeon
# the worker saved at most about 1 ms there when the host was idle, and
# nothing when it was busy: its start, handoffs and join each wait for the
# other vCPU to be scheduled, so a small encrypt's time varied up to 1.6x
# from one 30 s benchmark run to the next.
_SERIAL_BELOW = 8192


def build_key_schedule(keys: KeyMaterial, half_len: int) -> KeySchedule:
    """The schedule of a padded vector of 2N = 2 * half_len bytes. Gathers
    compose (`v[P][Q] == v[P[Q]]`), so the split-half chain
    `((v ^ X1)[P0] ^ X2)[P1][P2][P3]` (half swap in P0) is one gather
    `R = concat(b0[A] + N, a0[B])` and one mask `Y = concat(y1[A], y2[B])`,
    from Map 1's keys (x1, y1, a0, A) and Map 2's (x2, y2, b0, B).

    One loop makes both maps' keys: the caller iterates Map 2's segment k
    into one reused buffer and folds it, then folds Map 1's segment k and
    returns its buffer to `free`, even if the fold raised. The slot length
    only chooses who iterates Map 1. Below `_SERIAL_BELOW` values the
    caller does, from a ring of one buffer, and no thread is started. From
    it on a worker thread does, and nothing else: it takes each buffer from
    a ring of two that the caller allocated and hands it over full on
    `full`, so with the kernel every array is allocated on the caller and
    none in the worker's malloc arena; the worker is joined before this
    returns or raises. Either way the bytes are the same, and if both maps
    fail, Map 1's error is raised.
    """
    if half_len < 1:
        raise ValueError("half_len must be >= 1")
    n = half_len
    index = np.int32 if 2 * n < 2**31 else np.intp
    threaded = n >= _SERIAL_BELOW
    full, free = queue.SimpleQueue(), queue.SimpleQueue()
    for _ in range(2 if threaded else 1):
        free.put(np.empty(n))
    xs2, ys1, ys2, keys1, keys2 = np.empty(n), np.empty(n), np.empty(n), [], []
    orbit1 = _segments(keys.map1, free.get, ys1)

    def iterate_map1():
        try:
            for xs in orbit1:
                full.put(xs)
        except BaseException as exc:  # raised on the caller
            full.put(exc)

    def map1_segments():
        for _ in range(4):
            xs = full.get()
            if isinstance(xs, BaseException):
                raise xs
            yield xs

    if threaded:
        worker = threading.Thread(target=iterate_map1)
        worker.start()
    map1_xs = map1_segments() if threaded else orbit1
    try:
        for k, xs in enumerate(_segments(keys.map2, lambda: xs2, ys2)):
            if k == 0:  # the y-bytes first, so that ys is freed before the argsort
                keys2.append(quantize_to_bytes(ys2))
                del ys2
            _fold(keys2, xs, index)
            xs = next(map1_xs)
            try:
                if k == 0:  # Map 1's segment 1 has filled ys1
                    keys1.append(quantize_to_bytes(ys1))
                    del ys1
                _fold(keys1, xs, index)
            finally:  # with a ring of one, Map 1's orbit needs it back to go on
                free.put(xs)
    except Exception:
        # Map 1's orbit runs to its end, so that its error, if any, is the
        # one raised whatever the timing
        for xs in map1_xs:
            free.put(xs)
        raise
    finally:
        if threaded:
            free.put(None)  # a worker still waiting for a buffer ends
            worker.join()
    del xs, xs2, free  # the orbits' buffers go before the schedule's arrays are made
    (y1, x1, a0, a), (y2, x2, b0, b) = keys1, keys2
    b0 += n  # Map 2's first argsort indexes slot 1
    return KeySchedule(xor1=np.concatenate([x1, x2]),
                       perm=np.concatenate([b0[a], a0[b]]),
                       xor2=np.concatenate([y1[a], y2[b]]))


# The tag of a schedule: the bits of the key's ten map parameters and two
# transients, and the slot length. It compares bits, not values, because
# KeyMaterial equality takes -0.0 for 0.0.
_TAG = struct.Struct("=10d3q")
_held = (None, None)  # (tag, schedule) of the most recent `_schedule` call


def _schedule(keys: KeyMaterial, half_len: int) -> KeySchedule:
    """`build_key_schedule(keys, half_len)`, or the schedule of the call
    before if its tag is the same. A miss drops the held schedule before it
    builds the new one, so two are never alive at once, and a build that
    raises leaves nothing held. There is no lock: `_held` is read once and
    assigned whole, so threads that miss together each build, and return,
    their own schedule."""
    global _held
    m1, m2 = keys.map1, keys.map2
    tag = _TAG.pack(m1.r, m1.a, m1.b, m1.x0, m1.y0, m2.r, m2.a, m2.b, m2.x0, m2.y0,
                    m1.transient, m2.transient, half_len)
    held = _held
    if held[0] == tag:
        return held[1]
    _held = held = (None, None)  # no reference to the old schedule is left
    schedule = build_key_schedule(keys, half_len)
    _held = (tag, schedule)
    return schedule


def encrypt(image: PlainImage, keys: KeyMaterial) -> CipherEnvelope:
    """The envelope of `image`. Its schedule is the one the previous
    `encrypt` or `decrypt` used if that call had the same key and padded
    length, and is built otherwise (`_schedule`)."""
    flat = flatten(image)
    pad = flat.size % 2
    v = np.concatenate([flat, np.zeros(pad, dtype=np.uint8)])
    s = _schedule(keys, v.size // 2)
    v = (v ^ s.xor1)[s.perm] ^ s.xor2
    return CipherEnvelope(dims=image.dims, pad=pad, body=v.tobytes())


def decrypt(envelope: CipherEnvelope, keys: KeyMaterial) -> PlainImage:
    """The plain image of `envelope`, with its schedule taken as in
    `encrypt`: an encrypt followed by its decrypt builds one schedule."""
    v = np.frombuffer(envelope.body, dtype=np.uint8)
    s = _schedule(keys, v.size // 2)
    out = np.empty_like(v)
    out[s.perm] = v ^ s.xor2  # the scatter undoes the gather
    out ^= s.xor1
    return unflatten(out[:envelope.dims.pixel_count], envelope.dims)
