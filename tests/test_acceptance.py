"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from chaosimg.analysis import (
    adjacent_correlation,
    bifurcation_sweep,
    chi_square_uniformity,
    histogram,
    lyapunov_exponent,
    lyapunov_from_step,
    mse,
    psnr,
    write_bifurcation_csv,
)
from chaosimg.cipher import (
    CipherEnvelope,
    KeyMaterial,
    PlainImage,
    decrypt,
    default_keys,
    encrypt,
)
from chaosimg.maps import MapId, MapParams, default_map1, default_map2, fill, step_function
from chaosimg.netpbm import read_image, write_image
from conftest import CHI2_CRIT_DF255_P05, perturbed, random_image, structured_image

GOLDEN_PLAIN = np.array([[1, 2], [3, 4]], dtype=np.uint8)
GOLDEN_BODY = bytes([156, 253, 31, 163])
GOLDEN_ENVELOPE = bytes.fromhex("4353453101010000000200000002009cfd1fa3")


def report(criterion: str, passed: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}")
    assert passed, criterion


def random_key_material(rng) -> KeyMaterial:
    transient = int(rng.integers(0, 50))
    return KeyMaterial(
        map1=MapParams(
            map_id=MapId.MAP1,
            r=float(rng.uniform(10, 20)),
            x0=float(rng.uniform(-1, 1)),
            y0=float(rng.uniform(-1, 1)),
            transient=transient,
        ),
        map2=MapParams(
            map_id=MapId.MAP2,
            r=float(rng.uniform(1, 4)),
            a=float(rng.uniform(0.1, 1.0)),
            b=float(rng.uniform(0.1, 1.0)),
            x0=float(rng.uniform(-1, 1)),
            y0=float(rng.uniform(-1, 1)),
            transient=transient,
        ),
    )


def cipher_as_image(envelope: CipherEnvelope) -> PlainImage:
    body = np.frombuffer(envelope.body, dtype=np.uint8)
    d = envelope.dims
    return PlainImage.from_array(
        body[: d.pixel_count].reshape(d.depth, d.height, d.width)
    )


def test_criterion_1_round_trip_exactness():
    rng = np.random.default_rng(101)
    key_sets = [random_key_material(rng) for _ in range(5)]
    start = time.monotonic()
    ok = True
    for n in range(100):
        img = random_image(rng, max_side=64)
        keys = key_sets[n % 5]
        out = decrypt(encrypt(img, keys), keys)
        if not np.array_equal(out.pixels, img.pixels):
            ok = False
            break
    elapsed = time.monotonic() - start
    report("1 round-trip exactness (100 images, 5 key sets)", ok and elapsed < 10.0)


def test_criterion_2_published_psnr_rows():
    rows = [
        (20175.720, 5.082),
        (24481.361, 4.242),
        (18993.713, 5.345),
        (21600.828, 4.786),
    ]
    ok = all(abs(psnr(m) - p) <= 0.001 for m, p in rows)
    report("2 published MSE->PSNR rows within 0.001 dB", ok)


def test_criterion_3_cipher_statistics():
    plain = structured_image(256)
    start = time.monotonic()
    env = encrypt(plain, default_keys())
    cipher_img = cipher_as_image(env)

    chi2 = chi_square_uniformity(histogram(cipher_img))
    m = mse(plain, cipher_img)
    p = psnr(m)
    corr_h = adjacent_correlation(cipher_img, "horizontal")
    corr_v = adjacent_correlation(cipher_img, "vertical")
    elapsed = time.monotonic() - start

    ok = (
        chi2 < CHI2_CRIT_DF255_P05
        and p < 10.0
        and m > 1e4
        and abs(corr_h) < 0.1
        and abs(corr_v) < 0.1
        and elapsed < 5.0
    )
    report(
        f"3 cipher statistics (chi2={chi2:.1f}, mse={m:.0f}, psnr={p:.2f}, "
        f"corr=({corr_h:.3f},{corr_v:.3f}))",
        ok,
    )


def test_criterion_4_key_sensitivity():
    plain = structured_image(256)
    keys = default_keys()
    env = encrypt(plain, keys)
    fields = [
        ("map1", "r"), ("map1", "x0"), ("map1", "y0"),
        ("map2", "r"), ("map2", "a"), ("map2", "b"),
        ("map2", "x0"), ("map2", "y0"),
    ]
    ok = True
    worst = 1.0
    for which, field in fields:
        if which == "map1":
            wrong = KeyMaterial(map1=perturbed(keys.map1, field), map2=keys.map2)
        else:
            wrong = KeyMaterial(map1=keys.map1, map2=perturbed(keys.map2, field))
        garbled = decrypt(env, wrong)
        mismatch = float(np.mean(garbled.pixels != plain.pixels))
        worst = min(worst, mismatch)
        if mismatch <= 0.95:
            ok = False
    report(f"4 key sensitivity at 1e-10 (worst mismatch {worst:.4f})", ok)


def test_criterion_5_dynamics():
    lam1 = lyapunov_exponent(default_map1(), steps=10_000)
    lam1b = lyapunov_exponent(default_map1(), steps=20_000)
    stable = abs(lam1b - lam1) / abs(lam1) < 0.05

    lam_contract = lyapunov_from_step(
        lambda x, y: (0.5 * x, 0.5 * y), (0.3, 0.2), steps=5000
    )
    contract_ok = abs(lam_contract - math.log(0.5)) <= 1e-3

    x, y = step_function(default_map1())(0.0, math.pi / 2)
    # pi/2 is not representable in doubles: y is bit-exact, x within one ulp
    fixed_ok = (y == math.pi / 2) and abs(x) < 1e-15

    p = MapParams(map_id=MapId.MAP2, r=2.35, a=0.5, b=0.3, transient=0)
    xs, ys = np.empty(1_000_000), np.empty(1_000_000)
    fill(p, (p.x0, p.y0), xs, ys, skip=p.transient)
    bounded = (
        np.isfinite(xs).all()
        and np.isfinite(ys).all()
        and xs.min() >= -math.pi
        and xs.max() < math.pi
        and ys.min() >= -math.pi
        and ys.max() < math.pi
    )
    report(
        f"5 dynamics (lambda1={lam1:.3f}>0, stable={stable}, "
        f"contraction={lam_contract:.5f}, fixed point, Map2 bounded 1e6)",
        lam1 > 0 and stable and contract_ok and fixed_ok and bool(bounded),
    )


def test_criterion_6_bifurcation_sweep(tmp_path):
    start = time.monotonic()
    points = bifurcation_sweep(default_map1(), 0.0, 20.0, 0.05, samples=200)
    out = tmp_path / "bifurcation.csv"
    write_bifurcation_csv(out, points)
    elapsed = time.monotonic() - start

    points2 = bifurcation_sweep(default_map1(), 0.0, 20.0, 0.05, samples=200)
    deterministic = all(np.array_equal(a, b) for a, b in zip(points, points2))

    r, x = points
    xs = x[np.abs(r - 17.0) < 1e-9]
    bins = np.histogram(xs, bins=100, range=(-2, 2))[0]
    occupied = int((bins > 0).sum())
    report(
        f"6 bifurcation sweep ({elapsed:.1f}s, r=17 slice occupies {occupied}/100 bins)",
        elapsed < 30.0 and deterministic and len(xs) == 200 and occupied >= 50,
    )


def test_criterion_7_golden_vectors():
    keys = default_keys()
    img = PlainImage.from_array(GOLDEN_PLAIN)
    env = encrypt(img, keys)
    golden_ok = env.body == GOLDEN_BODY and env.to_bytes() == GOLDEN_ENVELOPE

    dec = decrypt(CipherEnvelope.from_bytes(GOLDEN_ENVELOPE), keys)
    decrypt_ok = np.array_equal(dec.pixels.reshape(2, 2), GOLDEN_PLAIN)

    raw = env.to_bytes()
    header_ok = (
        raw[:4] == b"CSE1"
        and raw[4] == 1
        and raw[5] == 1
        and raw[6:10] == (2).to_bytes(4, "big")
        and raw[10:14] == (2).to_bytes(4, "big")
        and raw[14] == 0
    )

    rng = np.random.default_rng(107)
    netpbm_ok = all(
        np.array_equal(read_image(write_image(im)).pixels, im.pixels)
        for im in (random_image(rng, max_side=16) for _ in range(20))
    )
    report(
        "7 golden vectors, envelope layout, Netpbm round-trip",
        golden_ok and decrypt_ok and header_ok and netpbm_ok,
    )
