import math
from dataclasses import replace

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
def python_only(monkeypatch, tmp_path):
    """No compiler and an empty cache, so the one cached loader,
    `kernel.library`, finds no kernel: `fill` and `lyapunov_exponent` run
    their Python loops, and the CSV writers format in Python."""
    monkeypatch.setattr(kernel, "_compiler", lambda: None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    kernel.library.cache_clear()
    assert kernel.library() is None
    yield
    kernel.library.cache_clear()


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
