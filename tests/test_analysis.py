import csv
import hashlib
import itertools
import math
import re
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosimg import analysis, kernel
from chaosimg.analysis import (
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
from chaosimg.maps import BLOCK, default_map1, default_map2, fill, step_function
from conftest import CHI2_CRIT_DF255_P05, structured_image


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
        r, x = bifurcation_sweep(
            replace(default_map1(), transient=100), 17.0, 17.0, 1.0, samples=7
        )
        assert len(r) == len(x) == 7
        assert (r == 17.0).all() and np.isfinite(x).all()

    def test_row_count(self):
        r, x = bifurcation_sweep(
            replace(default_map1(), transient=10), 1.0, 10.0, 1.0, samples=200
        )
        assert len(r) == len(x) == 10 * 200

    def test_chaotic_band_not_collapsed(self):
        _, xs = bifurcation_sweep(default_map1(), 17.0, 17.0, 1.0, samples=200)
        bins = np.histogram(xs, bins=100, range=(-2, 2))[0]
        assert (bins > 0).sum() >= 50

    @pytest.mark.parametrize("path", ["compiled", "python_only"])
    def test_overflowing_grid_is_refused(self, request, path):
        # the grid's last value, 3 * (max / 3), rounds past the largest float
        request.getfixturevalue(path)
        top = sys.float_info.max
        with pytest.raises(ValueError, match="overflows"):
            bifurcation_sweep(default_map1(), 0.0, top, top / 3, samples=1)

    def test_divergent_r_row_is_nan_and_flagged(self):
        # Map 1 at r = 1e307 diverges at iteration 253, after 253 of its 300
        # samples are written; the whole row is still NaN, the flag of a
        # divergent r
        r, x = bifurcation_sweep(
            replace(default_map1(), transient=0), 17.0, 1e307, 1e307 - 17.0, samples=300
        )
        assert (r[:300] == 17.0).all() and (r[300:] == 1e307).all()
        assert np.isfinite(x[:300]).all()
        assert np.isnan(x[300:]).all()


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

    def test_divergence_after_transient_counts_from_the_seed(self, python_only, monkeypatch):
        # each step calls the function twice, so call 6 is the reference at step 3
        calls = itertools.count()
        monkeypatch.setattr(analysis, "step_function",
                            lambda p: lambda x, y: (x if next(calls) < 6 else math.inf, y))
        with pytest.raises(DivergenceError) as info:
            lyapunov_exponent(replace(default_map2(), transient=50), steps=1000)
        assert info.value.iteration == 50 + 3

    def test_divergence_after_transient_counts_from_the_seed_on_the_kernel(self, compiled):
        # b*x*x first overflows at iteration 208 of this orbit, after the transient
        p = replace(default_map2(), b=1.85e307, transient=100)
        with pytest.raises(DivergenceError) as seq_info:
            fill(p, (p.x0, p.y0), np.empty(1000))
        with pytest.raises(DivergenceError) as lyap_info:
            lyapunov_exponent(p, steps=1000)
        assert lyap_info.value.iteration == seq_info.value.iteration == 208

    def test_divergence_of_the_companion_is_named(self):
        # the reference stays at 0 while the companion overflows to inf
        with pytest.raises(DivergenceError) as info:
            lyapunov_from_step(lambda x, y: (x * 1e200 * 1e200, y), (0.0, 0.0), steps=10)
        assert info.value.iteration == 0

    def test_transient_runs_outside_the_step_function(self, python_only, monkeypatch):
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

    def test_transient_runs_through_fill_on_the_kernel(self, compiled, monkeypatch):
        skips, states = [], []

        def recorded(params, state, xs, *args, skip=0):
            skips.append(skip)
            states.append(fill(params, state, xs, *args, skip=skip))
            return states[-1]

        def unused(params):
            raise AssertionError("the kernel path stepped a map in Python")

        p = replace(default_map2(), transient=10**6)
        monkeypatch.setattr(analysis, "fill", recorded)
        monkeypatch.setattr(analysis, "step_function", unused)
        lam = lyapunov_exponent(p, steps=1000)
        assert skips == [10**6 - 1]
        assert lam == lyapunov_from_step(step_function(p), states[0], 1000)


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

    @pytest.mark.parametrize("path", ["compiled", "python_only"])
    def test_csv_bytes_are_csv_writers(self, request, tmp_path, path):
        # the writers' text against csv.writer in the excel dialect; the
        # kernel refuses 1e-320, 123456789012345.0, 2.5e300, 1e300 and 1e-300
        request.getfixturevalue(path)
        values = [0.1, -0.0, 1e-320, 123456789012345.0, 2.5e300, math.inf, -math.inf, math.nan]
        points = np.array([values, values[::-1]]).T
        hist = histogram(structured_image(16))
        lyapunov = [(17.0, 0.896), (1e300, 1e-300)]
        cases = [
            (write_bifurcation_csv, (points[:, 0], points[:, 1]), ["r", "x"], points.tolist()),
            (write_phase_csv, points, ["x", "y"], points.tolist()),
            (write_lyapunov_csv, lyapunov, ["r", "lambda"], lyapunov),
            (write_histogram_csv, hist, ["value", "count"], None),
        ]
        for write, data, header, rows in cases:
            expected = tmp_path / "expected.csv"
            with open(expected, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                if rows is None:
                    writer.writerows([str(v), str(int(c))] for v, c in enumerate(hist))
                else:
                    writer.writerows([f"{a:.12g}", f"{b:.12g}"] for a, b in rows)
            write(tmp_path / "got.csv", data)
            assert (tmp_path / "got.csv").read_bytes() == expected.read_bytes(), write.__name__


# SHA-256 of analysis CSVs, pinned from the Python formatter before the
# kernel formatted any: 3000-row phase runs of the default maps, and a Map 1
# sweep over r = 17 and the divergent r = 1e307, whose 80,000 rows (40,000
# of them NaN) span two BLOCKs
GOLDEN_CSV_DIGESTS = {
    "phase/map1": "bbc6f6b209edea32c922abd39cec1913864b8ba08bfb7e0af9e8ab5b55d4750c",
    "phase/map2": "9c4d7a8c02be504f2e599ed62b20d48bd38da39c98701612540675d3e6198ab4",
    "bifurcate/map1": "2db712366197748a6d5faf557bcc6efb59bb92d901eee45381a969c372f88144",
}


def write_golden_csv(name, path):
    kind, map_name = name.split("/")
    params = default_map1() if map_name == "map1" else default_map2()
    if kind == "phase":
        write_phase_csv(path, phase_points(params, 3000))
    else:
        write_bifurcation_csv(path, bifurcation_sweep(replace(params, transient=0), 17.0, 1e307,
                                                      1e307 - 17.0, samples=40_000))


def kernel_lines(rows) -> bytes | None:
    """`chaos_format_rows` on rows of two floats: the CSV lines, or None
    where it refuses a value."""
    pairs = np.array(rows, dtype=np.float64).reshape(-1, 2)
    out = bytearray(analysis.ROW_BYTES * len(pairs))
    size = kernel.library().chaos_format_rows(kernel.address(pairs), len(pairs),
                                              kernel.address(out))
    return None if size < 0 else bytes(out[:size])


def refused(v: float) -> bool:
    """Whether the kernel leaves v to Python: finite and nonzero with |v|
    below 2**-53 or above 1e12 + 0.5."""
    return math.isfinite(v) and v != 0 and not 2.0**-53 <= abs(v) <= 1e12 + 0.5


def assert_kernel_matches_oracle(values):
    """Each value, in a row with its negation, formatted by the kernel as by
    `_lines`, or refused where `refused` says so."""
    for v in values:
        got = kernel_lines([v, -v])
        assert got == (None if refused(v) else analysis._lines([(v, -v)]).encode()), repr(v)


def ulps_around(value, count=3):
    below = above = value
    out = [value]
    for _ in range(count):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return out


def written(write, data, tmp_path) -> bytes:
    path = tmp_path / "written.csv"
    write(path, data)
    return path.read_bytes()


@pytest.mark.parametrize("path", ["compiled", "python_only"])
@pytest.mark.parametrize("name", list(GOLDEN_CSV_DIGESTS))
def test_csv_golden_digests(request, tmp_path, path, name):
    request.getfixturevalue(path)
    write_golden_csv(name, tmp_path / "golden.csv")
    digest = hashlib.sha256((tmp_path / "golden.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_CSV_DIGESTS[name]


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=40))
def test_kernel_formatter_matches_oracle(compiled, tmp_path_factory, rows):
    # st.floats() draws NaN of either sign, +-inf, +-0 and subnormals too
    for row in rows:
        got = kernel_lines(row)
        assert got == (None if any(map(refused, row)) else analysis._lines([row]).encode())
    tmp_path = tmp_path_factory.mktemp("csv")
    oracle = b"x,y\r\n" + analysis._lines(rows).encode()
    points = np.array(rows, dtype=np.float64)
    assert written(write_phase_csv, points, tmp_path) == oracle
    oracle = oracle.replace(b"x,y", b"r,x", 1)
    sweep = (points[:, 0].copy(), points[:, 1].copy())
    assert written(write_bifurcation_csv, sweep, tmp_path) == oracle


def test_kernel_formatter_exact_ties_round_half_to_even(compiled):
    ties = []
    for j, c, t in itertools.product(range(12), (1, 4, 9), (1, 3, 5, 7)):
        v = (c * 10**(11 - j) * 2**(j + 1) + t) / 2**(j + 1)  # exact: below 2**53
        digits = Fraction(v) * 10**j  # t is odd: 12 digits and a half
        assert digits.denominator == 2 and 10**11 <= digits < 10**12
        ties.append(v)
    assert_kernel_matches_oracle(ties)
    assert kernel_lines([1234567890.125, 1234567890.375]) == b"1234567890.12,1234567890.38\r\n"


def test_kernel_formatter_edge_values_match_oracle(compiled):
    negative_nan = np.frombuffer(np.uint64(0xFFF8_0000_0000_1234).tobytes(), np.float64)[0]
    # each with its negation: signed zeros, NaNs and infinities, subnormals,
    # and values that must be refused
    values = [0.0, math.nan, negative_nan, math.inf, 1e-320, 5e-324, 2.0**-54, 1e-17, 2e12, 1e300]
    for d in range(-17, 14):
        # the neighbours of each decade, and of the 12-digit tie below it:
        # the values above 9.999999999995 * 10**d carry into the decade
        values += ulps_around(10.0**d) + ulps_around(9.999999999995 * 10.0**d)
    for edge in (1e-5, 1e-4, 1e11, 1e12, 1e12 + 0.5, 999999999999.5, 2.0**-53):
        values += ulps_around(edge, 5)
    assert_kernel_matches_oracle(values)
    assert kernel_lines([999999999999.5, 999999999998.5]) == b"1e+12,999999999998\r\n"
    assert kernel_lines([9.9999999999995e-5, 9.999999999995e-5]) == b"0.0001,9.99999999999e-05\r\n"
    assert kernel_lines([negative_nan, -0.0]) == b"nan,-0\r\n"
    assert kernel_lines([0.5, 1e300]) is None and kernel_lines([5e-324, 0.5]) is None


def test_decimal_exponent_estimate_is_exact():
    # `format_g12` takes the decimal exponent of v, or one below it, as
    # ((k + 52) * A) >> B from v's binary exponent x = k + 52; it must be
    # floor(x * log10(2)) for each x of a value that it does not refuse at
    # once, from 2**-53 to 1e12 + 0.5
    a, b = map(int, re.search(r"\(\(k \+ 52\) \* (\d+)\) >> (\d+)",
                              kernel.SOURCE.read_text()).groups())
    lowest, highest = math.frexp(2.0**-53)[1] - 1, math.frexp(1e12 + 0.5)[1] - 1
    assert (lowest, highest) == (-53, 39)
    for x in range(lowest, highest + 1):
        # 10**e <= 2**x < 10**(e + 1), from the digits of 2**|x|
        exact = len(str(2**x)) - 1 if x >= 0 else -len(str(2**-x))
        assert (x * a) >> b == exact, x


def test_kernel_formatter_bulk_matches_oracle(compiled):
    # a million log-uniform values over every decade from 1e-16 to 1e12 and
    # half a decade beyond each end, where the kernel refuses; then the
    # neighbours of 12-digit ties, correctly rounded from their decimal
    # strings, of each decade's edges and of the refusal bounds
    rng = np.random.default_rng(31)
    decades = range(-16, 12)
    ties = [float(f"{n}5e{d - 12}") for d in decades
            for n in rng.integers(10**11, 10**12, 500).tolist()]
    edges = [scale * 10.0**d for d in range(-16, 13) for scale in (1.0, 9.999999999995)]
    neighbours = [u for t in ties for u in ulps_around(t)]
    neighbours += [u for e in edges + [2.0**-53, 1e12 + 0.5] for u in ulps_around(e, 5)]
    values = np.concatenate([10.0**rng.uniform(-16.5, 12.5, 1_000_000), neighbours])
    values *= rng.choice([-1.0, 1.0], values.size)
    magnitude = np.abs(values)  # all finite and nonzero: `refused` in bulk
    refuse = ~((2.0**-53 <= magnitude) & (magnitude <= 1e12 + 0.5))
    accepted = values[~refuse]
    rows = accepted[:accepted.size // 2 * 2].reshape(-1, 2)
    got = kernel_lines(rows)
    assert got is not None, "the kernel refused a value that it must format"
    got, expected = got.split(b"\r\n"), analysis._lines(rows.tolist()).encode().split(b"\r\n")
    wrong = [i for i, (g, e) in enumerate(zip(got, expected)) if g != e]
    assert not wrong, (rows[wrong[0]].tolist(), got[wrong[0]], expected[wrong[0]])
    assert len(got) == len(expected)
    for v in values[refuse].tolist():
        assert refused(v) and kernel_lines([v, 0.5]) is None, repr(v)


def test_refused_block_is_formatted_in_python(compiled, tmp_path):
    # the kernel formats the first BLOCK rows and refuses the second block,
    # which `_lines` formats instead
    points = phase_points(default_map2(), BLOCK + 10)
    points[BLOCK + 3, 1] = 1e300
    assert kernel_lines(points[:BLOCK]) is not None and kernel_lines(points[BLOCK:]) is None
    oracle = b"x,y\r\n" + analysis._lines(points.tolist()).encode()
    assert written(write_phase_csv, points, tmp_path) == oracle


@pytest.mark.parametrize("path", ["compiled", "python_only"])
def test_phase_csv_rows_of_any_float_layout(request, monkeypatch, tmp_path, path):
    # `phase_points`' rows are read where they lie; a strided, float32 or
    # read-only array is copied first, and the bytes are the same
    request.getfixturevalue(path)
    points = phase_points(default_map2(), 50)
    oracle = b"x,y\r\n" + analysis._lines(points.tolist()).encode()
    read_only = points.copy()
    read_only.flags.writeable = False
    strided = np.zeros((50, 5))
    strided[:, ::3] = points
    layouts = [points, np.asfortranarray(points), strided[:, ::3], read_only]
    for rows in layouts:
        assert written(write_phase_csv, rows, tmp_path) == oracle
    narrow = points.astype(np.float32)
    assert written(write_phase_csv, narrow, tmp_path) == (
        b"x,y\r\n" + analysis._lines(narrow.astype(np.float64).tolist()).encode())
    seen = []
    monkeypatch.setattr(analysis, "_write_columns", lambda path, header, a: seen.append(a))
    write_phase_csv(tmp_path / "rows.csv", points)
    assert seen[0] is points


@pytest.mark.parametrize("shape", [(4, 3), (4, 1), (8,), (2, 2, 2)])
def test_phase_csv_refuses_other_shapes(tmp_path, shape):
    with pytest.raises(ValueError, match="phase points"):
        write_phase_csv(tmp_path / "bad.csv", np.zeros(shape))
    assert not (tmp_path / "bad.csv").exists()


def decrypt_free_view(envelope):
    """Reinterpret cipher bytes as an image (dropping any pad) for statistics."""
    body = np.frombuffer(envelope.body, dtype=np.uint8)
    n = envelope.dims.pixel_count
    return PlainImage.from_array(
        body[:n].reshape(envelope.dims.depth, envelope.dims.height, envelope.dims.width)
    )
