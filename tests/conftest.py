import errno
import math
import threading
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from chaosimg import cipher, kernel
from chaosimg.cipher import PlainImage
from chaosimg.keyfile import parse_key_text
from chaosimg.maps import MapParams

DEFAULT_KEY_TEXT = """\
map1.r=17.0
map1.x0=0.1
map1.y0=0.1
map2.r=2.35
map2.a=0.5
map2.b=0.3
map2.x0=0.1
map2.y0=0.1
transient=1000
"""

# the 2x2 golden vector, frozen from the straight-line hand-trace oracle (run
# before the build): grayscale rows [[1,2],[3,4]] under the default keys
GOLDEN_PLAIN = np.array([[1, 2], [3, 4]], dtype=np.uint8)
GOLDEN_BODY = bytes([156, 253, 31, 163])
GOLDEN_ENVELOPE = bytes.fromhex("4353453101010000000200000002009cfd1fa3")

# chi-square critical value, df=255, alpha=0.05 (frozen from the inverse CDF)
CHI2_CRIT_DF255_P05 = 293.25

PERTURBATION = 1e-10  # the key change of key-sensitivity runs


def perturbed(params: MapParams, field: str, ulp: bool = False) -> MapParams:
    """Copy of params with one real parameter nudged by PERTURBATION, or
    with `ulp`, moved to the next float up."""
    value = getattr(params, field)
    return replace(params, **{field: math.nextafter(value, math.inf) if ulp
                              else value + PERTURBATION})


@pytest.fixture(autouse=True)
def cold_schedule_memo():
    """Every test starts with no key schedule held, so the first encrypt or
    decrypt of each test builds its schedule (`cipher._schedule`)."""
    cipher._held = (None, None)


@pytest.fixture(scope="module")
def compiled():
    if kernel.library() is None:
        pytest.skip("the kernel cannot be built here")


@pytest.fixture
def reload():
    """Looks the kernel up anew, as a new process would under the test's
    environment and patches; the next test looks it up anew as well."""
    def reloaded():
        kernel.library.cache_clear()
        return kernel.library()
    yield reloaded
    kernel.library.cache_clear()


@pytest.fixture
def python_only(monkeypatch, tmp_path, reload):
    """No compiler and an empty cache, so the one cached loader,
    `kernel.library`, finds no kernel: `fill` and `lyapunov_exponent` run
    their Python loops, and the CSV writers format in Python."""
    monkeypatch.setattr(kernel, "_compiler", lambda: None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert reload() is None


def on_the_fallback():
    """A context in which `kernel.library` finds no kernel, so that a block
    runs the Python loops: the switch for a test that compares the paths
    within one call, where `path` runs a whole test on each."""
    return mock.patch.object(kernel, "library", lambda: None)


def no_thread_starts(monkeypatch):
    """Refuse every thread that a build asks for, as at the process's
    thread limit: the kernel's `chaos_orbit_start` returns EAGAIN, and
    `threading.Thread.start` raises on any thread but the test's own (which
    starts `run_bounded`'s helper)."""
    caller, start = threading.current_thread(), threading.Thread.start

    def refused(thread):
        if threading.current_thread() is not caller:
            raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", refused)
    lib = kernel.library()
    if lib is not None:
        monkeypatch.setattr(lib, "chaos_orbit_start", lambda *args: errno.EAGAIN)


@pytest.fixture(params=["compiled", "python_only"])
def path(request, monkeypatch):
    """The one switch between the kernel and its fallback: runs a test on
    the kernel ("compiled") and on the Python loops that are its oracle and
    fallback ("python_only"). "serial-compiled", given as an indirect
    parameter, is the kernel with every thread start refused
    (`no_thread_starts`), so the key schedule iterates Map 1 on the caller;
    the fallback starts no thread, so it has no serial twin."""
    fixture = {"compiled": "compiled", "python_only": "python_only",
               "serial-compiled": "compiled"}[request.param]
    request.getfixturevalue(fixture)
    if request.param == "serial-compiled":
        no_thread_starts(monkeypatch)
    return request.param


def traced_peak(run, *args):
    """`run(*args)`'s result and the peak in bytes of what tracemalloc saw
    it allocate."""
    tracemalloc.start()
    try:
        return run(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def default_key_text():
    return DEFAULT_KEY_TEXT


@pytest.fixture
def default_keys_from_file():
    return parse_key_text(DEFAULT_KEY_TEXT)


def random_image(rng, max_side=64):
    d = int(rng.choice([1, 3]))
    h = int(rng.integers(1, max_side + 1))
    w = int(rng.integers(1, max_side + 1))
    return PlainImage.from_array(
        rng.integers(0, 256, size=(d, h, w), dtype=np.uint8)
    )


def cipher_as_image(envelope):
    """The envelope's body as an image, its pad byte dropped, for statistics."""
    d = envelope.dims
    body = np.frombuffer(envelope.body, dtype=np.uint8)[:d.pixel_count]
    return PlainImage.from_array(body.reshape(d.depth, d.height, d.width))


def structured_image(size=256):
    """Smooth gradient plus geometric shapes on a dark background,
    emulating a medical scan."""
    i, j = np.mgrid[0:size, 0:size]
    c = size / 2
    rad2 = (i - c) ** 2 + (j - c) ** 2
    img = (20 + 180 * np.exp(-rad2 / (2 * (size / 6) ** 2))).astype(np.uint8)
    img[rad2 < (size // 8) ** 2] = 230
    img[size // 8: size // 4, size // 8: size // 2] = 90
    return PlainImage.from_array(img)
