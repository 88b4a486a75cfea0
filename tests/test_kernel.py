"""The compiled map kernel against its pure-Python oracle, `maps.step_function`."""

import hashlib
import math
import os
import shutil
import stat
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosimg import kernel, maps
from chaosimg.cipher import KeyMaterial, PlainImage, build_key_schedule, default_keys, encrypt
from chaosimg.errors import DivergenceError
from chaosimg.maps import MapId, MapParams, default_map2, fill, step_function
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
        build_key_schedule(keys, half_len)
    assert info.value.iteration == first_divergence(params)


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
    assert kernel.fill_function() is not None


def test_cache_is_private_and_reused(compiled, monkeypatch, tmp_path):
    shared = tmp_path / "xdg" / "chaosimg"
    shared.mkdir(parents=True, mode=0o755)
    shared.chmod(0o755)
    monkeypatch.setenv("XDG_CACHE_HOME", str(shared.parent))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    try:
        kernel.fill_function.cache_clear()
        assert kernel.fill_function() is not None  # built in the fallback dir
        assert list(shared.iterdir()) == []
        private = tmp_path / "tmp" / f"chaosimg-{os.getuid()}"
        assert stat.S_IMODE(private.stat().st_mode) == 0o700
        [lib] = private.iterdir()  # no temporary file left behind
        assert lib.name.startswith("kernel-") and lib.suffix == ".so"
        monkeypatch.setattr(kernel, "_compiler", lambda: None)
        kernel.fill_function.cache_clear()
        assert kernel.fill_function() is not None  # loaded, not built
    finally:
        kernel.fill_function.cache_clear()


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
