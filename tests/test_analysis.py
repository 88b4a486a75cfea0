import csv
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from chaosimg import analysis
from chaosimg.analysis import (
    CHI2_CRIT_DF255_P05,
    adjacent_correlation,
    bifurcation_sweep,
    chi_square_uniformity,
    histogram,
    lyapunov_exponent,
    lyapunov_from_step,
    mse,
    phase_points,
    psnr,
    write_bifurcation_csv,
    write_histogram_csv,
    write_lyapunov_csv,
    write_phase_csv,
)
from chaosimg.cipher import PlainImage, decrypt, default_keys, encrypt
from chaosimg.errors import DimensionError, DivergenceError
from chaosimg.maps import default_map1, default_map2, fill, step_function
from conftest import structured_image


def img_of(arr):
    return PlainImage.from_array(np.asarray(arr, dtype=np.uint8))


class TestMse:
    def test_identical(self):
        a = img_of([[1, 2], [3, 4]])
        assert mse(a, a) == 0.0

    def test_max_single_pixel(self):
        assert mse(img_of([[0]]), img_of([[255]])) == 65025.0

    def test_two_pixel_average(self):
        assert mse(img_of([[0, 0]]), img_of([[255, 0]])) == 32512.5

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            mse(img_of([[0]]), img_of([[0, 0]]))


class TestPsnr:
    def test_zero_db_at_peak_mse(self):
        assert psnr(65025.0) == 0.0

    def test_infinite_sentinel(self):
        assert psnr(0.0) == math.inf

    # the four published MSE -> PSNR rows; checks the 10*log10(255^2/MSE) relation
    @pytest.mark.parametrize(
        "mse_value,expected_db",
        [
            (20175.720, 5.082),
            (24481.361, 4.242),
            (18993.713, 5.345),
            (21600.828, 4.786),
        ],
    )
    def test_published_rows(self, mse_value, expected_db):
        assert psnr(mse_value) == pytest.approx(expected_db, abs=0.001)

    def test_strictly_decreasing(self):
        values = [psnr(v) for v in (10.0, 100.0, 1000.0, 65025.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            psnr(-1.0)


class TestHistogram:
    def test_all_zero(self):
        h = histogram(img_of(np.zeros((4, 4))))
        assert h[0] == 16 and h[1:].sum() == 0

    def test_each_value_once(self):
        h = histogram(img_of(np.arange(256).reshape(16, 16)))
        assert (h == 1).all()

    def test_sums_to_pixel_count(self):
        rng = np.random.default_rng(10)
        img = img_of(rng.integers(0, 256, (3, 5, 7)))
        assert histogram(img).sum() == 105


class TestChiSquare:
    def test_uniform_is_zero(self):
        assert chi_square_uniformity(np.full(256, 4)) == 0.0

    def test_all_in_one_bin(self):
        # closed form: (256-1)^2/1 + 255*1 = 65280
        h = np.zeros(256, dtype=int)
        h[0] = 256
        assert chi_square_uniformity(h) == 65280.0

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        h = rng.integers(0, 100, 256)
        h[0] += 1  # ensure nonzero total
        assert chi_square_uniformity(h) >= 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chi_square_uniformity(np.zeros(256))


class TestAdjacentCorrelation:
    def test_ramp_is_one(self):
        img = img_of(np.tile(np.arange(32), (8, 1)))
        assert adjacent_correlation(img, "horizontal") == pytest.approx(1.0, abs=1e-9)

    def test_checkerboard_is_minus_one(self):
        i, j = np.mgrid[0:8, 0:8]
        img = img_of(((i + j) % 2) * 255)
        assert adjacent_correlation(img, "horizontal") == pytest.approx(-1.0, abs=1e-9)
        assert adjacent_correlation(img, "vertical") == pytest.approx(-1.0, abs=1e-9)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            adjacent_correlation(img_of(np.full((4, 4), 9)), "horizontal")

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            adjacent_correlation(img_of(np.eye(4) * 255), "diagonal")


class TestBifurcation:
    def test_degenerate_grid(self):
        r, x, diverged = bifurcation_sweep(
            replace(default_map1(), transient=100), 17.0, 17.0, 1.0, samples=7
        )
        assert len(r) == len(x) == len(diverged) == 7
        assert (r == 17.0).all() and not diverged.any()

    def test_row_count(self):
        r, x, diverged = bifurcation_sweep(
            replace(default_map1(), transient=10), 1.0, 10.0, 1.0, samples=200
        )
        assert len(r) == len(x) == len(diverged) == 10 * 200

    def test_chaotic_band_not_collapsed(self):
        _, xs, _ = bifurcation_sweep(default_map1(), 17.0, 17.0, 1.0, samples=200)
        bins = np.histogram(xs, bins=100, range=(-2, 2))[0]
        assert (bins > 0).sum() >= 50

    def test_divergent_r_row_is_nan_and_flagged(self):
        # Map 1 at r = 1e307 diverges at iteration 253, after 253 of its 300
        # samples are written; the whole row is still NaN and flagged
        r, x, diverged = bifurcation_sweep(
            replace(default_map1(), transient=0), 17.0, 1e307, 1e307 - 17.0, samples=300
        )
        assert (r[:300] == 17.0).all() and (r[300:] == 1e307).all()
        assert np.isfinite(x[:300]).all() and not diverged[:300].any()
        assert np.isnan(x[300:]).all() and diverged[300:].all()


class TestLyapunov:
    def test_analytic_contraction(self):
        lam = lyapunov_from_step(
            lambda x, y: (0.5 * x, 0.5 * y), (0.3, 0.2), steps=5000
        )
        assert lam == pytest.approx(math.log(0.5), abs=1e-3)

    def test_analytic_expansion_with_wrap(self):
        # doubling map kept bounded by the harness wrap; lambda = ln 2
        lam = lyapunov_from_step(
            lambda x, y: ((2 * x) % 1.0, (2 * y) % 1.0),
            (0.1234, 0.567),
            steps=20000,
        )
        assert lam == pytest.approx(math.log(2.0), abs=1e-2)

    def test_map1_positive_at_default_r(self):
        lam = lyapunov_exponent(default_map1(), steps=10_000)
        assert lam > 0

    def test_map2_positive_at_default_params(self):
        lam = lyapunov_exponent(default_map2(), steps=10_000)
        assert lam > 0

    def test_convergence_under_doubling(self):
        a = lyapunov_exponent(default_map1(), steps=10_000)
        b = lyapunov_exponent(default_map1(), steps=20_000)
        assert abs(b - a) / abs(a) < 0.05

    def test_divergence_in_transient_counts_like_fill(self):
        p = replace(default_map1(), r=1e307, transient=1000)
        with pytest.raises(DivergenceError) as seq_info:
            fill(p, (p.x0, p.y0), np.empty(1), skip=p.transient)
        with pytest.raises(DivergenceError) as lyap_info:
            lyapunov_exponent(p, steps=1000)
        assert lyap_info.value.iteration == seq_info.value.iteration == 253

    def test_divergence_after_transient_counts_from_the_seed(self, monkeypatch):
        # each step calls the function twice, so call 6 is the reference at step 3
        calls = itertools.count()
        monkeypatch.setattr(analysis, "step_function",
                            lambda p: lambda x, y: (x if next(calls) < 6 else math.inf, y))
        with pytest.raises(DivergenceError) as info:
            lyapunov_exponent(replace(default_map2(), transient=50), steps=1000)
        assert info.value.iteration == 50 + 3

    def test_divergence_of_the_companion_is_named(self):
        # the reference stays at 0 while the companion overflows to inf
        with pytest.raises(DivergenceError) as info:
            lyapunov_from_step(lambda x, y: (x * 1e200 * 1e200, y), (0.0, 0.0), steps=10)
        assert info.value.iteration == 0

    def test_transient_runs_outside_the_step_function(self, monkeypatch):
        calls = 0

        def counting(params):
            advance = step_function(params)

            def counted(x, y):
                nonlocal calls
                calls += 1
                return advance(x, y)

            return counted

        monkeypatch.setattr(analysis, "step_function", counting)
        lyapunov_exponent(replace(default_map2(), transient=10**6), steps=1000)
        assert calls == 2 * 1000


class TestPhasePoints:
    def test_count_one_is_first_post_transient(self):
        p = default_map1()
        pts = phase_points(p, 1)
        xs, ys = np.empty(1), np.empty(1)
        fill(p, (p.x0, p.y0), xs, ys, skip=p.transient)
        assert pts.shape == (1, 2)
        assert pts[0, 0] == xs[0] and pts[0, 1] == ys[0]

    def test_map1_x_bounded(self):
        pts = phase_points(default_map1(), 2000)
        assert np.abs(pts[:, 0]).max() <= 2.0

    def test_map2_in_wrap_range(self):
        pts = phase_points(default_map2(), 2000)
        assert (pts >= -math.pi).all() and (pts < math.pi).all()


class TestQualityReportAndCsv:
    def test_structured_cipher_statistics(self):
        plain = structured_image(128)
        keys = default_keys()
        cipher_img = decrypt_free_view(encrypt(plain, keys))
        hist = histogram(cipher_img)
        assert chi_square_uniformity(hist) < CHI2_CRIT_DF255_P05 * 2  # desk-scale smoke bound
        assert mse(plain, cipher_img) > 1e4
        assert hist.sum() == 128 * 128

    def test_csv_formats(self, tmp_path):
        pts = bifurcation_sweep(replace(default_map1(), transient=10), 17.0, 17.0, 1.0, samples=3)
        bif = tmp_path / "bif.csv"
        write_bifurcation_csv(bif, pts)
        rows = list(csv.reader(bif.read_text().splitlines()))
        assert rows[0] == ["r", "x"]
        assert len(rows) == 4
        # 12 significant digits
        assert rows[1][1] == f"{pts[1][0]:.12g}"

        ph = phase_points(default_map2(), 3)
        phf = tmp_path / "phase.csv"
        write_phase_csv(phf, ph)
        rows = list(csv.reader(phf.read_text().splitlines()))
        assert rows[0] == ["x", "y"] and len(rows) == 4

        lyf = tmp_path / "ly.csv"
        write_lyapunov_csv(lyf, [(17.0, 0.896)])
        rows = list(csv.reader(lyf.read_text().splitlines()))
        assert rows[0] == ["r", "lambda"] and rows[1][0] == "17"

        hf = tmp_path / "h.csv"
        write_histogram_csv(hf, histogram(structured_image(32)))
        rows = list(csv.reader(hf.read_text().splitlines()))
        assert rows[0] == ["value", "count"] and len(rows) == 257
        assert sum(int(r[1]) for r in rows[1:]) == 32 * 32


def decrypt_free_view(envelope):
    """Reinterpret cipher bytes as an image (dropping any pad) for statistics."""
    body = np.frombuffer(envelope.body, dtype=np.uint8)
    n = envelope.dims.pixel_count
    return PlainImage.from_array(
        body[:n].reshape(envelope.dims.depth, envelope.dims.height, envelope.dims.width)
    )
