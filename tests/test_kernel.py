"""The compiled kernel against its oracles: `maps.step_function`,
`analysis.bifurcation_sweep`'s Python loop and `analysis.lyapunov_from_step`
for the map loops, numpy's gather and scatter for the cipher's byte loops;
and the build flags that make the two paths round alike."""

import ctypes
import hashlib
import math
import os
import re
import shutil
import stat
import subprocess
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaosimg import analysis, cipher, kernel, maps
from chaosimg.cipher import (ImageDims, KeyMaterial, PlainImage, build_key_schedule,
                             default_keys, encrypt)
from chaosimg.analysis import bifurcation_sweep, lyapunov_exponent
from chaosimg.errors import DivergenceError, TrajectoryCollapseError
from chaosimg.maps import MapId, MapParams, default_map1, default_map2, fill, step_function
from test_cipher import GOLDEN_DIGESTS, GOLDEN_IMAGES, GOLDEN_KEY_SETS, golden_keys


def outcome(run, params, transient, length, with_ys):
    """Buffers and last state as bytes, or the divergence index."""
    xs = np.empty(length)
    ys = np.empty(length) if with_ys else None
    try:
        last = run(params, (params.x0, params.y0), xs, ys, transient)
    except DivergenceError as exc:
        return ("diverged", exc.iteration)
    return xs.tobytes(), ys.tobytes() if with_ys else None, np.array(last).tobytes()


moderate = st.floats(-100, 100)
finite = st.one_of(moderate, st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(
    map_id=st.sampled_from(MapId),
    r=finite, a=finite, b=finite, x0=finite, y0=finite,
    transient=st.integers(0, 50),
    length=st.integers(1, 2000),
    with_ys=st.booleans(),
)
def test_kernel_matches_oracle(compiled, map_id, r, a, b, x0, y0, transient, length, with_ys):
    params = MapParams(map_id, r, a=a, b=b, x0=x0, y0=y0, transient=transient)
    assert outcome(fill, params, transient, length, with_ys) == outcome(
        maps._fill_orbit, params, transient, length, with_ys
    )


def test_default_orbits_match_oracle(compiled):
    for params in (maps.default_map1(), default_map2()):
        a = outcome(fill, params, params.transient, 20000, True)
        assert a == outcome(maps._fill_orbit, params, params.transient, 20000, True)


def ulps_around(value, count):
    """The doubles within `count` ulps of a nonzero value, in order of magnitude."""
    bits = int(np.array(value).view(np.int64))
    return np.arange(bits - count, bits + count + 1, dtype=np.int64).view(np.float64)


# Map 2's first wrap input is x0 + pi when a = 0 and y0 = 0. Seeds x0 near
# k*2*pi - pi sweep it across the multiples of 2*pi, where the kernel's
# exact subtractions start and stop (|k| <= 3) and, at |k| = 4, hand over
# to fmod; then +-0.0 seeds, and wrap inputs near +-1e300 in x and in y.
WRAP_SEEDS = [(float(x0), 0.0, 0.3) for k in range(-5, 6)
              for x0 in ulps_around(k * maps.TWO_PI - math.pi, 64)]
WRAP_SEEDS += [(0.0, 0.0, 0.3), (-0.0, -0.0, 0.3), (0.0, -0.0, -0.0), (-math.pi, 0.0, 0.0),
               (1e300, 0.0, 0.3), (-1e300, 0.0, 0.3), (1.0, 0.0, 1e300), (1.0, 0.0, -1e300)]


def test_wrap_seeds_hit_the_multiples_of_two_pi():
    inputs = {x0 + math.pi for x0, _, _ in WRAP_SEEDS}
    # -10*pi is not x0 + pi for any double x0: 11*pi would need 54 bits
    assert all(k * maps.TWO_PI in inputs for k in range(-4, 6))


@pytest.mark.parametrize("length", [1, 3])
def test_map2_wrap_matches_oracle_at_multiples_of_two_pi(compiled, length):
    for x0, y0, b in WRAP_SEEDS:
        params = MapParams(MapId.MAP2, 2.35, a=0.0, b=b, x0=x0, y0=y0, transient=0)
        assert outcome(fill, params, 0, length, True) == outcome(
            maps._fill_orbit, params, 0, length, True
        ), (x0, y0, b)


def first_divergence(params):
    advance, state, i = step_function(params), (params.x0, params.y0), 0
    while True:
        state = advance(*state)
        if not (math.isfinite(state[0]) and math.isfinite(state[1])):
            return i
        i += 1


# (r, transient, half_len): Map 1 at r = 1e308 diverges at iteration 2 and
# at r = 1e307 at iteration 253, here in segment 1, in the transient, and in
# re-permutation segments 2, 3 and 4
DIVERGING = [
    (1e308, 0, 5), (1e308, 5, 4), (1e308, 0, 2), (1e308, 0, 1), (1e307, 0, 64),
    (1e307, 100, 60),
]


@pytest.mark.parametrize("path", ["compiled", "python_only"])
@pytest.mark.parametrize("r, transient, half_len", DIVERGING)
def test_divergence_index_counts_from_seed(request, path, r, transient, half_len):
    request.getfixturevalue(path)
    params = MapParams(MapId.MAP1, r, transient=transient)
    keys = KeyMaterial(map1=params, map2=default_map2())
    with pytest.raises(DivergenceError) as info:
        build_key_schedule(keys, ImageDims(1, 1, 2 * half_len))
    assert info.value.iteration == first_divergence(params)


def sweep_outcome(params, r_min, r_max, r_step, samples):
    """The sweep's (r, x) bytes, or the ValueError's message."""
    try:
        r, x = bifurcation_sweep(params, r_min, r_max, r_step, samples)
    except ValueError as exc:
        return ("refused", str(exc))
    return r.tobytes(), x.tobytes()


def sweep_oracle(*args):
    """`sweep_outcome` with no kernel: the Python loop over `_fill_orbit`."""
    with mock.patch.object(kernel, "library", lambda: None):
        return sweep_outcome(*args)


@settings(max_examples=200, deadline=None)
@given(
    map_id=st.sampled_from(MapId),
    r_min=finite, a=finite, b=finite, x0=finite, y0=finite,
    rows=st.integers(1, 8),
    r_step=st.one_of(st.floats(1e-3, 10), st.floats(1e-3, 1e308)),
    transient=st.integers(0, 50),
    samples=st.integers(1, 300),
)
# GOLDEN_CSV_DIGESTS' grid, shortened: Map 1 at r = 1e307 diverges at
# iteration 253, inside its row
@example(map_id=MapId.MAP1, r_min=17.0, a=0.0, b=0.0, x0=0.1, y0=0.1, rows=2,
         r_step=1e307 - 17.0, transient=0, samples=300)
def test_sweep_kernel_matches_oracle(compiled, map_id, r_min, a, b, x0, y0, rows, r_step,
                                     transient, samples):
    params = MapParams(map_id, 1.0, a=a, b=b, x0=x0, y0=y0, transient=transient)
    args = (params, r_min, r_min + (rows - 1) * r_step, r_step, samples)
    assert sweep_outcome(*args) == sweep_oracle(*args)


# Map 1 at r = 1e307 diverges at iteration 253, after 253 of its 300 samples
# are written, and Map 2 at b = 1.85e307 at r >= 2.325 in its samples, after
# a transient of 100
DIVERGENT_SWEEPS = [
    ((replace(default_map1(), transient=0), 17.0, 1e307, 1e307 - 17.0, 300), [False, True]),
    ((replace(default_map2(), b=1.85e307, transient=100), 2.3, 2.4, 0.025, 200),
     [False, True, True, True, True]),
]


@pytest.mark.parametrize("args, divergent", DIVERGENT_SWEEPS)
def test_divergent_sweep_rows_are_nan_on_both_paths(compiled, args, divergent):
    samples = args[-1]
    outcome = sweep_outcome(*args)
    assert outcome == sweep_oracle(*args)
    xs = np.frombuffer(outcome[1]).reshape(-1, samples)
    assert np.isnan(xs).all(axis=1).tolist() == divergent
    assert np.isfinite(xs[~np.array(divergent)]).all()


def lyapunov_outcome(params, steps):
    """The estimate's bits, or the error and its index."""
    try:
        return np.float64(lyapunov_exponent(params, steps)).tobytes()
    except DivergenceError as exc:
        return ("diverged", exc.iteration)
    except TrajectoryCollapseError as exc:
        return ("collapsed", exc.step)


def lyapunov_oracle(params, steps):
    """`lyapunov_outcome` with no kernel: the transient through the Python
    `fill` loop, the steps through `lyapunov_from_step` over `step_function`."""
    with mock.patch.object(kernel, "library", lambda: None):
        return lyapunov_outcome(params, steps)


@settings(max_examples=200, deadline=None)
@given(
    map_id=st.sampled_from(MapId),
    r=finite, a=finite, b=finite, x0=finite, y0=finite,
    transient=st.integers(0, 50),
    steps=st.integers(1000, 3000),
)
def test_lyapunov_kernel_matches_oracle(compiled, map_id, r, a, b, x0, y0, transient, steps):
    params = MapParams(map_id, r, a=a, b=b, x0=x0, y0=y0, transient=transient)
    assert lyapunov_outcome(params, steps) == lyapunov_oracle(params, steps)


# Map 1 at r = 1e307 diverges in the transient at iteration 253; Map 2 at
# b = 1.85e307 leaves its transient of 100 and diverges at iteration 208,
# where b*x*x first overflows; Map 2 at r = 1e308 collapses at step 1;
# Map 1 at r = 1e163 keeps finite states, but dx*dx + dy*dy overflows at
# the first step after its transient of 1000
LYAPUNOV_FAILURES = [
    (replace(default_map1(), r=1e307), ("diverged", 253)),
    (replace(default_map2(), b=1.85e307, transient=100), ("diverged", 208)),
    (replace(default_map2(), r=1e308), ("collapsed", 1)),
    (replace(default_map1(), r=1e163), ("diverged", 1000)),
]


@pytest.mark.parametrize("params, expected", LYAPUNOV_FAILURES)
def test_lyapunov_failures_match_oracle(compiled, params, expected):
    assert lyapunov_outcome(params, 3000) == lyapunov_oracle(params, 3000) == expected


@pytest.mark.parametrize("name", list(GOLDEN_DIGESTS))
def test_fallback_reproduces_golden_digests(python_only, monkeypatch, name):
    calls, fill_orbit = [], maps._fill_orbit

    def counted(*args):
        calls.append(args[0].map_id)
        return fill_orbit(*args)

    monkeypatch.setattr(maps, "_fill_orbit", counted)
    image, key_set = name.split("/")
    keys = default_keys() if key_set == "default" else golden_keys(GOLDEN_KEY_SETS[key_set])
    env = encrypt(PlainImage.from_array(GOLDEN_IMAGES[image]()), keys)
    assert hashlib.sha256(env.to_bytes()).hexdigest() == GOLDEN_DIGESTS[name]
    assert calls  # the schedule was built by the Python loop, not taken as held


def test_fallback_fill_without_ys_allocates_no_y_buffer(python_only):
    params, n = default_map2(), maps.BLOCK
    xs, xs_with_ys = np.empty(n), np.empty(n)
    tracemalloc.start()
    try:
        last = fill(params, (0.1, 0.1), xs, skip=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * 8 * n
    assert last == fill(params, (0.1, 0.1), xs_with_ys, np.empty(n), skip=10)
    assert xs.tobytes() == xs_with_ys.tobytes()


def test_kernel_active_when_a_compiler_is_on_path():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    assert kernel.library() is not None


def test_cache_is_private_and_reused(compiled, monkeypatch, tmp_path):
    shared = tmp_path / "xdg" / "chaosimg"
    shared.mkdir(parents=True, mode=0o755)
    shared.chmod(0o755)
    monkeypatch.setenv("XDG_CACHE_HOME", str(shared.parent))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    try:
        kernel.library.cache_clear()
        assert kernel.library() is not None  # built in the fallback dir
        assert list(shared.iterdir()) == []
        private = tmp_path / "tmp" / f"chaosimg-{os.getuid()}"
        assert stat.S_IMODE(private.stat().st_mode) == 0o700
        [lib] = private.iterdir()  # no temporary file left behind
        assert lib.name.startswith("kernel-") and lib.suffix == ".so"
        monkeypatch.setattr(kernel, "_compiler", lambda: None)
        kernel.library.cache_clear()
        assert kernel.library() is not None  # loaded, not built
    finally:
        kernel.library.cache_clear()


def test_no_compiler_makes_no_cache_directory(monkeypatch, tmp_path):
    for name in ("xdg", "tmp"):
        (tmp_path / name).mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    monkeypatch.setattr(kernel, "_compiler", lambda: None)
    kernel.library.cache_clear()
    try:
        assert kernel.library() is None
    finally:
        kernel.library.cache_clear()
    assert list(tmp_path.glob("*/*")) == []


def cached_kernel(directory, mode):
    """A copy of this process's kernel in `directory`, made with `mode`."""
    directory.mkdir(parents=True)
    directory.chmod(mode)
    built = Path(kernel.library()._name)
    shutil.copy(built, directory / built.name)


def test_cached_kernel_loads_without_a_compiler(compiled, monkeypatch, tmp_path):
    cached_kernel(tmp_path / "chaosimg", 0o700)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(kernel, "_compiler", lambda: None)
    kernel.library.cache_clear()
    try:
        lib = kernel.library()
        assert lib is not None and Path(lib._name).parent == tmp_path / "chaosimg"
    finally:
        kernel.library.cache_clear()


def test_cached_kernel_in_a_shared_directory_is_refused(compiled, monkeypatch, tmp_path):
    cached_kernel(tmp_path / "xdg" / "chaosimg", 0o755)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    monkeypatch.setattr(kernel, "_compiler", lambda: None)
    kernel.library.cache_clear()
    try:
        assert kernel.library() is None
    finally:
        kernel.library.cache_clear()
    assert not (tmp_path / "tmp").exists()


def test_kernel_allocates_nothing():
    # tracemalloc cannot see malloc, so the peak tests would miss a loop's
    # allocation: every buffer comes from the caller
    assert not re.search(r"\b(malloc|calloc|realloc|alloca)\s*\(", kernel.SOURCE.read_text())


def test_flags_keep_both_paths_rounding_alike():
    # a fused or reassociated dx*dx + dy*dy changes the Lyapunov distance's
    # bits; x86-64 without -march never fuses, so only this test would see
    # the first flag go (aarch64 fuses at -O2)
    assert "-ffp-contract=off" in kernel.FLAGS
    assert not [f for f in kernel.FLAGS
                if f in ("-ffast-math", "-Ofast") or f.startswith("-march")]


def compiler() -> str:
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    return cc


def test_kernel_compiles_without_warnings(tmp_path):
    done = subprocess.run([compiler(), *kernel.FLAGS, "-Wall", "-Wextra", "-Werror", "-x", "c",
                           str(kernel.SOURCE), "-o", str(tmp_path / "kernel.so"), "-lm"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_orbit_thread_is_race_free_under_thread_sanitizer(tmp_path):
    # tests/orbit_stress.c runs 1,000 start/give/take/join cycles with the
    # kernel compiled in, under ThreadSanitizer
    cc, sanitize = compiler(), ["-fsanitize=thread", "-g", "-O1", "-pthread"]
    probe = tmp_path / "probe"
    made = subprocess.run([cc, *sanitize, "-x", "c", "-", "-o", str(probe)],
                          input="int main(void) { return 0; }", capture_output=True, text=True,
                          timeout=120)
    if made.returncode != 0 or subprocess.run([str(probe)], capture_output=True).returncode:
        pytest.skip("no ThreadSanitizer (libtsan) that builds and runs here")
    stress = tmp_path / "stress"
    made = subprocess.run([cc, *sanitize, "-ffp-contract=off", "-I", str(kernel.SOURCE.parent),
                           str(Path(__file__).with_name("orbit_stress.c")), "-o", str(stress),
                           "-lm"], capture_output=True, text=True, timeout=120)
    assert made.returncode == 0, made.stderr
    done = subprocess.run([str(stress)], capture_output=True, text=True, timeout=300,
                          env={**os.environ, "TSAN_OPTIONS": "halt_on_error=1"})
    assert done.returncode == 0 and "ThreadSanitizer" not in done.stderr, done.stderr


def test_sha256_matches_hashlib():
    assert kernel._sha256(b"chaos") == hashlib.sha256(b"chaos").hexdigest()


@pytest.mark.parametrize("path", ["compiled", "python_only"])
def test_fill_rejects_bad_arguments(request, path):
    request.getfixturevalue(path)
    params = default_map2()
    for skip in (-1, 2**63, 2**64 + 5):  # 2**64 + 5 would wrap to 5 in C
        with pytest.raises(ValueError):
            fill(params, (0.1, 0.1), np.empty(4), skip=skip)
    with pytest.raises(ValueError):
        fill(params, (0.1, 0.1), np.empty(0))
    with pytest.raises(ValueError):
        fill(params, (0.1, 0.1), np.empty(4), np.empty(3))
    with pytest.raises(ValueError):
        fill(params, (0.1, 0.1), np.empty(8)[::2])
    with pytest.raises(ValueError):
        fill(params, (0.1, 0.1), np.empty(4, dtype=np.float32))
    with pytest.raises(ValueError):
        fill(params, (0.1, 0.1), np.empty(4, dtype=np.int64))
    read_only = np.empty(4)
    read_only.flags.writeable = False
    with pytest.raises(ValueError):
        fill(params, (0.1, 0.1), read_only)
    with pytest.raises(ValueError):
        fill(params, (0.1, 0.1), np.empty(4), read_only)


@pytest.mark.parametrize("size", [1, 2, 7, 4096, 100_003])
def test_gather_and_scatter_loops_match_numpy(compiled, size):
    # the kernel's gather and scatter against their numpy fallback
    rng = np.random.default_rng(size)
    src, key = rng.integers(0, 256, (2, size), dtype=np.uint8)
    index = rng.permutation(size).astype(np.int32)
    gathered = cipher._gather_xor(src, index, key)
    scattered = cipher._scatter_xor(src, index, key)
    assert gathered.tobytes() == (src[index] ^ key).tobytes()
    expected = np.empty_like(src)
    expected[index] = src ^ key
    assert scattered.tobytes() == expected.tobytes()
    with mock.patch.object(kernel, "library", lambda: None):
        assert cipher._gather_xor(src, index, key).tobytes() == gathered.tobytes()
        assert cipher._scatter_xor(src, index, key).tobytes() == scattered.tobytes()
    assert cipher._scatter_xor(gathered, index, key).tobytes() == src.tobytes()


@pytest.mark.parametrize("size", [1, 2, 7, 4096, maps.BLOCK + 3])
def test_index_loops_match_numpy(compiled, size):
    # the kernel's in-place gather and slot loop against their numpy
    # fallback, which works BLOCK values at a time; the gather is written
    # over its own index, and the slot loop reads through its s0, neither
    # of which need be a permutation, so that `seen` marks what p reaches
    rng = np.random.default_rng(size)
    src, c = (rng.permutation(size).astype(np.int32) for _ in range(2))
    index, s0 = rng.integers(0, size, (2, size), dtype=np.int32)
    layout = rng.integers(-2**31, 2**31, size, dtype=np.int32)
    x, y = rng.integers(0, 256, (2, size), dtype=np.uint8)
    p = s0[c]
    expected_seen = np.zeros(size, np.uint8)
    expected_seen[p] = 1
    expected = [src[index], layout[p], x[p] ^ y[c], expected_seen]
    for library in (kernel.library, lambda: None):
        with mock.patch.object(kernel, "library", library):
            composed = index.copy()
            cipher._compose(src, composed)
            r, (k, seen) = np.zeros(size, np.int32), np.zeros((2, size), np.uint8)
            cipher._slot(c, s0, x, y, layout, r, k, seen)
        for got, want in zip((composed, r, k, seen), expected, strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def exported_functions(source: str) -> dict[str, str]:
    """Name -> return type of each function that `source` defines at file
    scope without `static`."""
    pattern = re.compile(r"^(?!static\b)([A-Za-z_][\w ]*?[\w*])\s*\**\s*\b(\w+)\(", re.M)
    return {name: ret for ret, name in pattern.findall(source)}


def test_every_export_is_typed(compiled):
    # an untyped function would take and return C ints, which truncate
    # 64-bit pointers
    exports = exported_functions(kernel.SOURCE.read_text())
    restypes = {"long long": ctypes.c_longlong, "void": None}
    assert {name: restypes[ret] for name, ret in exports.items()} == {
        name: restype for name, (restype, _) in kernel._SIGNATURES.items()}
    for name, (restype, argtypes) in kernel._SIGNATURES.items():
        fn = getattr(kernel.library(), name)
        assert (fn.restype, fn.argtypes) == (restype, argtypes)


def test_kernel_without_128_bit_integers_formats_no_row(compiled, monkeypatch, tmp_path):
    # built as by a compiler without unsigned __int128: every other loop is
    # there and gives the same bytes, and the CSV writers format in Python
    monkeypatch.setattr(kernel, "FLAGS", (*kernel.FLAGS, "-U__SIZEOF_INT128__"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    kernel.library.cache_clear()
    try:
        lib = kernel.library()
        assert lib is not None  # it has every function in _SIGNATURES
        pairs, out = np.full((1, 2), 0.5), bytearray(analysis.ROW_BYTES)
        assert lib.chaos_format_rows(kernel.address(pairs), 1, kernel.address(out)) == -1
        env = encrypt(PlainImage.from_array(GOLDEN_IMAGES["gray64x48"]()),
                      golden_keys(GOLDEN_KEY_SETS["k1"]))
        assert hashlib.sha256(env.to_bytes()).hexdigest() == GOLDEN_DIGESTS["gray64x48/k1"]
        points = analysis.phase_points(default_map1(), 100)
        analysis.write_phase_csv(tmp_path / "got.csv", points)
        oracle = b"x,y\r\n" + analysis._lines(points.tolist()).encode()
        assert (tmp_path / "got.csv").read_bytes() == oracle
    finally:
        kernel.library.cache_clear()


@pytest.mark.parametrize("path", ["compiled", "python_only"])
def test_gather_and_scatter_refuse_what_the_kernel_does_not_check(request, path):
    request.getfixturevalue(path)
    src, key, index = np.zeros(8, np.uint8), np.zeros(8, np.uint8), np.arange(8, dtype=np.int32)
    bad = [(src[:7], index, key), (src, index, key[:7]), (src, index[:7], key),
           (np.zeros(16, np.uint8)[::2], index, key), (src, np.arange(16, dtype=np.int32)[::2], key),
           (src.astype(np.int32), index, key), (src, index, key.astype(np.int64)),
           (src, index.astype(np.int64), key)]
    for loop in (cipher._gather_xor, cipher._scatter_xor):
        for args in bad:
            with pytest.raises(ValueError):
                loop(*args)
