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

import enum
import math
from collections import deque
from collections.abc import Generator, Iterator
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter

import numpy as np

from .errors import DivergenceError, InvalidStateError

TWO_PI = 2.0 * math.pi


class MapId(enum.Enum):
    MAP1 = 1
    MAP2 = 2


@dataclass(frozen=True)
class MapParams:
    """Control parameters and seed of one chaotic map.

    `a` and `b` are Map 2 parameters and are ignored by Map 1.
    `transient` is the number of burn-in iterations discarded before any
    output is drawn.
    """

    map_id: MapId
    r: float
    a: float = 0.0
    b: float = 0.0
    x0: float = 0.1
    y0: float = 0.1
    transient: int = 1000

    def __post_init__(self):
        if self.transient < 0:
            raise ValueError("transient must be non-negative")
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

    The one place either map formula is written. Sending a state restarts
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


def post_transient(params: MapParams) -> Iterator[tuple[float, float]]:
    """The orbit from (x0, y0) with its first `transient` states consumed."""
    states = orbit(params, params.x0, params.y0)
    deque(islice(states, params.transient), maxlen=0)
    return states


def draw(states: Iterator[tuple[float, float]], length: int) -> ChaoticSequence:
    """The next `length` states of an orbit."""
    flat = chain.from_iterable(islice(states, length))
    xy = np.fromiter(flat, float, 2 * length).reshape(length, 2)
    return ChaoticSequence(xs=xy[:, 0], ys=xy[:, 1])


def draw_xs(states: Iterator[tuple[float, float]], length: int) -> np.ndarray:
    """The x of the next `length` states of an orbit; y is not stored."""
    return np.fromiter(map(itemgetter(0), islice(states, length)), float, length)


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
    return draw(post_transient(params), length)


def quantize_to_bytes(values) -> np.ndarray:
    """Map reals to bytes: mod(round(1e12 * v), 256).

    Round is half-away-from-zero and the modulo is mathematical (result in
    [0, 256)), so e.g. -1e-12 quantizes to 255.
    """
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidStateError("non-finite value in quantizer input")
    scaled = arr * 1e12
    rounded = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    return (rounded % 256.0).astype(np.uint8)


def permutation_from_sequence(values) -> np.ndarray:
    """Index permutation that sorts `values` ascending, ties kept stable."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("empty input")
    if not np.all(np.isfinite(arr)):
        raise InvalidStateError("non-finite value in permutation input")
    return np.argsort(arr, kind="stable")
