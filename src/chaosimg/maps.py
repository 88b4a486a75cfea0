"""Two 2D chaotic maps, sequence generation, byte quantization and
argsort-derived permutation vectors.

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
from collections import deque
from collections.abc import Generator
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter

import numpy as np

from . import kernel
from .errors import DivergenceError, InvalidStateError

TWO_PI = 2.0 * math.pi
MAX_TRANSIENT = 10_000_000  # bounds the burn-in work an untrusted key can ask for


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


@dataclass(frozen=True)
class ChaoticSequence:
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError("xs and ys must have equal length")

    def __len__(self) -> int:
        return len(self.xs)


def orbit(
    params: MapParams, x: float, y: float
) -> Generator[tuple[float, float], tuple[float, float] | None, None]:
    """Successive states of the selected map after (x, y), without end.

    The reference definition of both maps: `_kernel.c` repeats them in C
    and is tested bit for bit against this oracle. Sending a state restarts
    the orbit from it, so `g.send(s)` returns the state after `s`. Raises
    DivergenceError(i) when a state becomes non-finite, `i` counting the
    iterations since the last (re)start.
    """
    sin, cos, tanh, isfinite = math.sin, math.cos, math.tanh, math.isfinite
    map1 = params.map_id is MapId.MAP1
    r, ar, b, pi = params.r, params.a * params.r, params.b, math.pi
    i = 0
    while True:
        if map1:
            x, y = sin(x) + cos(y), y - r * tanh(x)
        else:
            x, y = (x + y * y - ar + pi) % TWO_PI - pi, (b * x * x + pi) % TWO_PI - pi
        if not (isfinite(x) and isfinite(y)):
            raise DivergenceError(i)
        i += 1
        sent = yield x, y
        if sent is not None:
            (x, y), i = sent, 0


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
    >= 1, and `skip + len(xs)` is below 2**63. Runs the compiled kernel when it is available and `orbit`
    otherwise; both give the same bytes. Raises DivergenceError(start + i)
    when iteration i after `state` is non-finite, so a caller that resumes
    an orbit passes the number of iterations already made as `start`.
    """
    if len(xs) < 1 or (ys is not None and len(ys) != len(xs)):
        raise ValueError("fill needs buffers of equal length >= 1")
    if not 0 <= skip < 2**63 - len(xs):  # the kernel counts in 64 bits
        raise ValueError(f"transient or skip out of range: {skip}")
    fn = kernel.fill_function()
    if fn is None:
        try:
            return _fill_orbit(params, state, xs, ys, skip)
        except DivergenceError as exc:
            raise DivergenceError(start + exc.iteration) from None
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


def _fill_orbit(params, state, xs, ys, skip) -> tuple[float, float]:
    """`fill` in Python: the kernel's oracle and its fallback."""
    states = orbit(params, *state)
    deque(islice(states, skip), maxlen=0)
    n = len(xs) - 1  # the last state is drawn on its own, to return it
    if ys is None:
        xs[:n] = np.fromiter(map(itemgetter(0), islice(states, n)), float, n)
    else:
        xy = np.fromiter(chain.from_iterable(islice(states, n)), float, 2 * n)
        xs[:n], ys[:n] = xy[0::2], xy[1::2]
    x, y = next(states)
    xs[n] = x
    if ys is not None:
        ys[n] = y
    return x, y


def step(state: tuple[float, float], params: MapParams) -> tuple[float, float]:
    """One simultaneous update of the selected map."""
    x, y = state
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidStateError(f"non-finite state ({x}, {y})")
    return next(orbit(params, x, y))


def generate_sequence(params: MapParams, length: int) -> ChaoticSequence:
    """Iterate the selected map from (x0, y0), discard `transient` states,
    record the next `length` states.

    Deterministic for fixed params. Raises DivergenceError naming the
    iteration index if the state ever becomes non-finite (unreachable for
    Map 2 given the wrap, possible for pathological Map 1 parameters).
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    xs, ys = np.empty(length), np.empty(length)
    fill(params, (params.x0, params.y0), xs, ys, skip=params.transient)
    return ChaoticSequence(xs=xs, ys=ys)


def quantize_to_bytes(values) -> np.ndarray:
    """Map reals to bytes: mod(round(1e12 * v), 256).

    Round is half-away-from-zero and the modulo is mathematical (result in
    [0, 256)), so e.g. -1e-12 quantizes to 255. From |1e12 * v| >= 2**61 on,
    every float is a multiple of 512 and so quantizes to 0; a product that
    overflows to inf does too.
    """
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidStateError("non-finite value in quantizer input")
    out = np.abs(arr, out=np.empty_like(arr))
    with np.errstate(over="ignore"):
        out *= 1e12
    out += 0.5
    np.floor(out, out=out)
    out[out >= 2.0**61] = 0.0
    np.copysign(out, arr, out=out)
    np.remainder(out, 256.0, out=out)
    return out.astype(np.uint8)


def permutation_from_sequence(values) -> np.ndarray:
    """Index permutation that sorts `values` ascending, ties kept stable.

    Without ties the ascending order is unique, so the faster unstable sort
    gives the same permutation; the stable sort runs only when the sorted
    values hold an equal neighbour pair.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("empty input")
    if not np.all(np.isfinite(arr)):
        raise InvalidStateError("non-finite value in permutation input")
    perm = np.argsort(arr)
    ordered = arr[perm]
    if np.any(ordered[1:] == ordered[:-1]):
        perm = np.argsort(arr, kind="stable")
    return perm
