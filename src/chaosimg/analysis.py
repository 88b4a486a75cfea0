"""Dynamics validation (bifurcation sweeps, Lyapunov exponents, phase
points) and cipher-quality metrics (MSE, PSNR, histogram, chi-square
uniformity, adjacent-pixel correlation), plus their CSV serializers.

Every map iteration runs in the compiled kernel when it is loaded: the
sweeps, the phase points and the Lyapunov transient through `maps.fill`,
the Lyapunov steps through `chaos_lyapunov`. Without it, both fall back
to Python loops over `maps.step_function` that give the same bits. The
kernel's `chaos_format_rows` also formats the bifurcation and phase CSVs,
BLOCK rows at a time, in the bytes of `_write_csv`, which formats the
rows it refuses and every CSV without the kernel, in one pass.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import replace
from typing import Iterable

import numpy as np

from . import kernel
from .cipher import PlainImage
from .errors import DimensionError, DivergenceError, TrajectoryCollapseError
from .maps import BLOCK, MapParams, StepFn, fill, step_function
from .outfile import open_over

PEAK = 255.0
CHI2_BINS = 256

# most float values a bifurcation sweep or a phase run may hold, and most
# steps of a Lyapunov estimate
MAX_VALUES = 10_000_000
# most map iterates a bifurcation sweep may run, its transients included:
# about 2 s for Map 2 and 7 s for Map 1 in the kernel
MAX_ITERATES = 10 * MAX_VALUES

# the Lyapunov estimate's distance between the reference and its companion
D0 = 1e-8

# most bytes of one CSV row that `chaos_format_rows` writes: two fields of
# at most 18 bytes, such as -1.23456789012e-16, a comma and CRLF
ROW_BYTES = 39


def mse(img_a: PlainImage, img_b: PlainImage) -> float:
    """Mean squared byte difference over all D*H*W positions."""
    if img_a.dims != img_b.dims:
        raise DimensionError(f"dims differ: {img_a.dims} vs {img_b.dims}")
    da = img_a.pixels.astype(np.float64)
    db = img_b.pixels.astype(np.float64)
    return float(np.mean((da - db) ** 2))


def psnr(mse_value: float) -> float:
    """10*log10(255^2 / MSE); returns +inf for MSE = 0."""
    if mse_value < 0:
        raise ValueError("MSE must be non-negative")
    if mse_value == 0:
        return math.inf
    return 10.0 * math.log10(PEAK * PEAK / mse_value)


def histogram(img: PlainImage) -> np.ndarray:
    """256 intensity bins; bins sum to the pixel count."""
    return np.bincount(img.pixels.reshape(-1), minlength=256)


def chi_square_uniformity(hist) -> float:
    """Chi-square statistic of a 256-bin histogram against the uniform law."""
    hist = np.asarray(hist, dtype=np.float64)
    n = hist.sum()
    if n <= 0:
        raise ValueError("zero-count histogram")
    expected = n / CHI2_BINS
    return float(((hist - expected) ** 2 / expected).sum())


def adjacent_correlation(img: PlainImage, direction: str) -> float:
    """Pearson correlation over adjacent pixel pairs, per direction."""
    px = img.pixels.astype(np.float64)
    if direction == "horizontal":
        if img.dims.width < 2:
            raise DimensionError("need >= 2 pixels horizontally")
        a, b = px[:, :, :-1], px[:, :, 1:]
    elif direction == "vertical":
        if img.dims.height < 2:
            raise DimensionError("need >= 2 pixels vertically")
        a, b = px[:, :-1, :], px[:, 1:, :]
    else:
        raise ValueError(f"unknown direction {direction!r}")
    a = a.reshape(-1)
    b = b.reshape(-1)
    if a.std() == 0 or b.std() == 0:
        raise ValueError("correlation undefined: zero variance in pair coordinates")
    return float(np.corrcoef(a, b)[0, 1])


def _check_size(count: float, what: str, limit: int = MAX_VALUES) -> None:
    if not count <= limit:
        raise ValueError(f"{count:,} {what} requested; the limit is {limit:,}")


def _r_grid(r_min: float, r_max: float, r_step: float, samples: int,
            transient: int) -> np.ndarray:
    """The r grid, sized before anything is allocated or iterated: its
    `samples` values per r must stay within MAX_VALUES, and its
    `transient + samples` iterates per r within MAX_ITERATES."""
    if not all(map(math.isfinite, (r_min, r_max, r_step))):
        raise ValueError("r_min, r_max and r_step must be finite")
    if r_min > r_max:
        raise ValueError("r_min must be <= r_max")
    if r_step <= 0:
        raise ValueError("r_step must be positive")
    steps = (r_max - r_min) / r_step + 1e-9
    count = int(steps) + 1 if math.isfinite(steps) else math.inf
    _check_size(count * samples, "bifurcation sweep values")
    _check_size(count * (transient + samples), "bifurcation sweep iterates", MAX_ITERATES)
    return r_min + np.arange(count) * r_step


Sweep = tuple[np.ndarray, np.ndarray]


def bifurcation_sweep(
    params: MapParams,
    r_min: float,
    r_max: float,
    r_step: float,
    samples: int,
) -> Sweep:
    """x samples after `params.transient` iterations, for each r on the grid.

    Returns flat `(r, x)` arrays, `samples` rows per r in grid order.
    Output stays rectangular: a divergent r contributes `samples` rows with
    x = NaN instead of aborting the sweep; every other x is finite.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    grid = _r_grid(r_min, r_max, r_step, samples, params.transient)
    xs = np.empty((grid.size, samples))
    for k, r in enumerate(grid.tolist()):
        p = replace(params, r=r)
        try:
            fill(p, (p.x0, p.y0), xs[k], skip=p.transient)
        except DivergenceError:  # the row may be partly written
            xs[k] = math.nan
    return np.repeat(grid, samples), xs.reshape(-1)


def lyapunov_from_step(step_fn: StepFn, state0: tuple[float, float], steps: int) -> float:
    """Largest Lyapunov exponent by two-trajectory renormalization.

    A companion trajectory offset by D0 is advanced alongside the reference
    and rescaled back to distance D0 after every step; the estimate is the
    mean of ln(d1/D0). Raises DivergenceError(i) when d1 after step i is
    not finite, as when either trajectory is or dx*dx + dy*dy overflows (d1
    above about 1.3e154), and TrajectoryCollapseError(i) when it is zero.
    The oracle of the kernel's `chaos_lyapunov`, which repeats it line by line.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x, y = state0
    cx, cy = x + D0, y
    acc = 0.0
    for i in range(steps):
        x, y = step_fn(x, y)
        cx, cy = step_fn(cx, cy)
        dx, dy = cx - x, cy - y
        d1 = math.sqrt(dx * dx + dy * dy)
        if not math.isfinite(d1):
            raise DivergenceError(i)
        if d1 == 0.0:
            raise TrajectoryCollapseError(i)
        acc += math.log(d1 / D0)
        scale = D0 / d1
        cx, cy = x + dx * scale, y + dy * scale
    return acc / steps


def lyapunov_exponent(params: MapParams, steps: int) -> float:
    """Lyapunov estimate for one of the two built-in maps, from (x0, y0)
    after `transient` iterations. The transient runs through `fill`; the
    steps run in the kernel's `chaos_lyapunov`, a C copy of
    `lyapunov_from_step` that gives the same bits, and otherwise through
    `lyapunov_from_step` over `step_function`. A DivergenceError counts its
    iteration from (x0, y0), a TrajectoryCollapseError its step from the
    end of the transient."""
    if steps < 1000:
        raise ValueError("steps must be >= 1000")
    _check_size(steps, "Lyapunov steps")
    state = (params.x0, params.y0)
    if params.transient:
        state = fill(params, state, np.empty(1), skip=params.transient - 1)
    lib = kernel.library()
    if lib is None:
        try:
            return lyapunov_from_step(step_function(params), state, steps)
        except DivergenceError as exc:
            bad = exc.iteration
    else:
        out = ctypes.c_double()  # the estimate, or the failing step's distance
        bad = lib.chaos_lyapunov(params.map_id.value, params.r, params.a * params.r, params.b,
                                 *state, D0, steps, ctypes.byref(out))
        if bad < 0:
            return out.value
        if out.value == 0.0:
            raise TrajectoryCollapseError(bad)
    raise DivergenceError(params.transient + bad)


def phase_points(params: MapParams, count: int) -> np.ndarray:
    """Post-transient (x, y) iterate pairs for scatter plotting; shape (count, 2)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    _check_size(2 * count, "phase run values")
    xs, ys = np.empty(count), np.empty(count)
    fill(params, (params.x0, params.y0), xs, ys, skip=params.transient)
    return np.column_stack([xs, ys])


def _lines(rows: Iterable[Iterable], spec: str = ".12g") -> str:
    return "".join([f"{a:{spec}},{b:{spec}}\r\n" for a, b in rows])


def _write_csv(path, header: str, rows: Iterable[Iterable], spec: str = ".12g") -> None:
    """The header line and one line of two fields per row, formatted with
    `spec` and written at once. The bytes are csv.writer's in the excel
    dialect: CRLF line ends, and no field needs quoting."""
    text = f"{header}\r\n{_lines(rows, spec)}".encode()
    with open_over(path) as fh:
        fh.write(text)


def _write_columns(path, header: str, a: np.ndarray, b: np.ndarray) -> None:
    """`_write_csv(path, header, zip(a.tolist(), b.tolist()))`, the same
    bytes, for two float columns of one length: the kernel's
    `chaos_format_rows` formats and writes BLOCK rows at a time, and a block
    in which it refuses a value is formatted by `_write_csv`'s expression
    instead."""
    lib = kernel.library()
    if lib is None:
        _write_csv(path, header, zip(a.tolist(), b.tolist()))
        return
    n = len(a)
    pairs = np.empty((min(n, BLOCK), 2))
    text = bytearray(ROW_BYTES * len(pairs))
    with open_over(path) as fh:
        fh.write(f"{header}\r\n".encode())
        for start in range(0, n, BLOCK):
            stop = min(start + BLOCK, n)
            block = pairs[:stop - start]
            block[:, 0], block[:, 1] = a[start:stop], b[start:stop]
            size = lib.chaos_format_rows(kernel.address(block), len(block), kernel.address(text))
            fh.write(memoryview(text)[:size] if size >= 0 else _lines(block.tolist()).encode())


def write_bifurcation_csv(path, sweep: Sweep) -> None:
    _write_columns(path, "r,x", *sweep)


def write_phase_csv(path, points: np.ndarray) -> None:
    _write_columns(path, "x,y", points[:, 0], points[:, 1])


def write_lyapunov_csv(path, rows: list[tuple[float, float]]) -> None:
    _write_csv(path, "r,lambda", rows)


def write_histogram_csv(path, hist) -> None:
    _write_csv(path, "value,count", enumerate(np.asarray(hist).tolist()), spec="d")
