"""Two 2D chaotic maps, their iteration from a seed (`fill`), byte
quantization and argsort-derived permutation vectors.

Map 1:  x' = sin(x) + cos(y),  y' = y - r*tanh(x)
Map 2:  x' = x + y^2 - a*r,    y' = b*x^2   (then wrapped into [-pi, pi))

Both maps update simultaneously: every right-hand side uses the previous
state. Map 2 diverges rapidly without bounding, so each raw update is
reduced modulo 2*pi into [-pi, pi); Map 1 needs no reduction (x is bounded
by construction and y enters only through the 2*pi-periodic cosine).
"""

from __future__ import annotations

import ctypes
import enum
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import DivergenceError, InvalidStateError

TWO_PI = 2.0 * math.pi
MAX_TRANSIENT = 10_000_000  # bounds the burn-in work an untrusted key can ask for
BLOCK = 65_536  # values per temporary in the quantizer and the argsort


class MapId(enum.Enum):
    MAP1 = 1
    MAP2 = 2


@dataclass(frozen=True)
class MapParams:
    """Control parameters and seed of one chaotic map.

    `a` and `b` are Map 2 parameters and are ignored by Map 1.
    `transient` is the number of burn-in iterations discarded before any
    output is drawn, at most MAX_TRANSIENT.
    """

    map_id: MapId
    r: float
    a: float = 0.0
    b: float = 0.0
    x0: float = 0.1
    y0: float = 0.1
    transient: int = 1000

    def __post_init__(self):
        if not 0 <= self.transient <= MAX_TRANSIENT:
            raise ValueError(
                f"transient must be in [0, {MAX_TRANSIENT:,}], got {self.transient}"
            )
        for name in ("r", "a", "b", "x0", "y0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"parameter {name} must be finite")


def default_map1() -> MapParams:
    return MapParams(map_id=MapId.MAP1, r=17.0)


def default_map2() -> MapParams:
    return MapParams(map_id=MapId.MAP2, r=2.35, a=0.5, b=0.3)


StepFn = Callable[[float, float], tuple[float, float]]


def step_function(params: MapParams) -> StepFn:
    """One simultaneous update of the selected map, as a plain
    `(x, y) -> (x', y')` function that checks nothing.

    The reference definition of both maps: `_kernel.c` repeats them in C
    and is tested bit for bit against this oracle.
    """
    sin, cos, tanh, pi, two_pi = math.sin, math.cos, math.tanh, math.pi, TWO_PI
    r, ar, b = params.r, params.a * params.r, params.b
    if params.map_id is MapId.MAP1:
        return lambda x, y: (sin(x) + cos(y), y - r * tanh(x))
    return lambda x, y: ((x + y * y - ar + pi) % two_pi - pi,
                         (b * x * x + pi) % two_pi - pi)


def fill(
    params: MapParams,
    state: tuple[float, float],
    xs: np.ndarray,
    ys: np.ndarray | None = None,
    skip: int = 0,
    start: int = 0,
) -> tuple[float, float]:
    """Iterate the map from `state`, discard `skip` states, and write the x
    (and, if `ys` is given, the y) of the next len(xs) states into the
    buffers. Returns the last state, from which a further fill continues.

    The buffers are writeable C-contiguous float64 arrays of equal length
    >= 1, and `skip + len(xs)` is below 2**63. Runs the compiled kernel
    when it is available and a Python loop over `step_function` otherwise;
    both give the same bytes. Raises DivergenceError(start + i) when
    iteration i after `state` is non-finite, so a caller that resumes an
    orbit passes the number of iterations already made as `start`.
    """
    if len(xs) < 1 or (ys is not None and len(ys) != len(xs)):
        raise ValueError("fill needs buffers of equal length >= 1")
    if not 0 <= skip < 2**63 - len(xs):  # the kernel counts in 64 bits
        raise ValueError(f"transient or skip out of range: {skip}")
    fn = kernel.fill_function()
    if fn is None:
        return _fill_orbit(params, state, xs, ys, skip, start)
    last = (ctypes.c_double * 2)(*state)
    map_number = 1 if params.map_id is MapId.MAP1 else 2
    bad = fn(map_number, params.r, params.a * params.r, params.b, last, skip,
             _address(xs), None if ys is None else _address(ys), len(xs))
    if bad >= 0:
        raise DivergenceError(start + bad)
    return last[0], last[1]


def _address(buf: np.ndarray) -> int:
    if buf.dtype != np.float64 or not (buf.flags.c_contiguous and buf.flags.writeable):
        raise ValueError("fill buffers must be writeable C-contiguous float64 arrays")
    return buf.ctypes.data


def _fill_orbit(params, state, xs, ys, skip, start=0) -> tuple[float, float]:
    """`fill` in Python: the kernel's oracle and its fallback."""
    advance, isfinite = step_function(params), math.isfinite
    x, y = state
    out_x, out_y = memoryview(xs), memoryview(np.empty(len(xs)) if ys is None else ys)
    for i in range(-skip, len(xs)):  # the transient runs at i < 0
        x, y = advance(x, y)
        if not (isfinite(x) and isfinite(y)):
            raise DivergenceError(start + skip + i)
        if i >= 0:
            out_x[i], out_y[i] = x, y
    return x, y


def quantize_to_bytes(values) -> np.ndarray:
    """Map reals to bytes: mod(round(1e12 * v), 256).

    Round is half-away-from-zero and the modulo is mathematical (result in
    [0, 256)), so e.g. -1e-12 quantizes to 255. The truncating int64 cast
    of copysign(|v| * 1e12 + 0.5, v) is the rounded integer, and storing it
    into uint8 keeps its low byte, the integer mod 256. From |1e12 * v| >=
    2**61 on, every float is a multiple of 512 and so quantizes to 0; |v| is
    clamped to 2**62 / 1e12 first, so the product never overflows and the
    cast stays exact. Temporaries hold at most BLOCK values.
    """
    arr = np.asarray(values, dtype=float)
    out = np.empty(arr.shape, dtype=np.uint8)
    arr, flat = arr.reshape(-1), out.reshape(-1)
    for start in range(0, arr.size, BLOCK):
        block = arr[start:start + BLOCK]
        q = np.abs(block)
        if not math.isfinite(q.max()):  # max propagates NaN
            raise InvalidStateError("non-finite value in quantizer input")
        np.minimum(q, 2.0**62 / 1e12, out=q)
        q *= 1e12
        q += 0.5
        flat[start:start + BLOCK] = np.copysign(q, block, out=q).astype(np.int64)
    return out


def permutation_from_sequence(values) -> np.ndarray:
    """`np.argsort(values, kind="stable")`, as int32 below 2**31 values.

    A value's float bits, with -0.0 folded into +0.0 and a negative's
    magnitude bits flipped, are an int64 key that orders like the values.
    Its low b = (n-1).bit_length() bits are replaced by the index, so the
    words are distinct and sort by (key prefix, index). Values that share a
    prefix can differ, so the members of such runs are sorted again, stably
    by value. Keys are made BLOCK values at a time.
    """
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ValueError("empty input")
    n, b = arr.size, (arr.size - 1).bit_length()
    words = np.arange(n, dtype=np.int64)
    for start in range(0, n, BLOCK):
        key = (arr[start:start + BLOCK] + 0.0).view(np.int64)  # -0.0 + 0.0 is +0.0
        key ^= (key >> 63) & (2**63 - 1)
        key &= -1 << b
        words[start:start + BLOCK] |= key
    del key  # from here on: the words, the result and a prefix mask
    words.sort()
    perm = np.empty(n, dtype=np.int32 if n < 2**31 else np.intp)
    np.bitwise_and(words, (1 << b) - 1, out=perm, casting="unsafe")
    words >>= b
    at, = (words[1:] == words[:-1]).nonzero()  # neighbours sharing a key prefix
    if at.size:
        member = np.zeros(n, dtype=bool)
        member[at] = member[at + 1] = True
        run = perm[member]
        perm[member] = run[np.argsort(arr[run], kind="stable")]
    # NaN and +-inf keys lie beyond every finite key, at the two ends
    if not (math.isfinite(arr[perm[0]]) and math.isfinite(arr[perm[-1]])):
        raise InvalidStateError("non-finite value in permutation input")
    return perm
