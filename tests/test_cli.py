import csv
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import chaosimg
from chaosimg.analysis import (
    lyapunov_exponent,
    phase_points,
    write_lyapunov_csv,
    write_phase_csv,
)
from chaosimg.cipher import PlainImage
from chaosimg.cli import main
from chaosimg.errors import KeyFileError
from chaosimg.keyfile import parse_key_text
from chaosimg.maps import default_map2
from chaosimg.netpbm import read_image, write_image
from conftest import DEFAULT_KEY_TEXT

GOLDEN_ENVELOPE = bytes.fromhex("4353453101010000000200000002009cfd1fa3")


@pytest.fixture
def keyfile(tmp_path):
    p = tmp_path / "keys.txt"
    p.write_text(DEFAULT_KEY_TEXT)
    return p


@pytest.fixture
def golden_pgm(tmp_path):
    img = PlainImage.from_array(np.array([[1, 2], [3, 4]], dtype=np.uint8))
    p = tmp_path / "plain.pgm"
    p.write_bytes(write_image(img))
    return p


class TestKeyFile:
    def test_parses_defaults(self):
        keys = parse_key_text(DEFAULT_KEY_TEXT)
        assert keys.map1.r == 17.0
        assert keys.map2.a == 0.5
        assert keys.map1.transient == 1000

    def test_crlf_and_comments(self):
        text = "# comment\r\n" + DEFAULT_KEY_TEXT.replace("\n", "\r\n")
        assert parse_key_text(text).map2.b == 0.3

    def test_missing_key_named(self):
        text = DEFAULT_KEY_TEXT.replace("map2.b=0.3\n", "")
        with pytest.raises(KeyFileError, match="map2.b"):
            parse_key_text(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyFileError, match="unknown"):
            parse_key_text(DEFAULT_KEY_TEXT + "map3.r=1.0\n")

    def test_duplicate_rejected(self):
        with pytest.raises(KeyFileError, match="duplicate"):
            parse_key_text(DEFAULT_KEY_TEXT + "map1.r=17.0\n")

    def test_bad_number_rejected(self):
        with pytest.raises(KeyFileError):
            parse_key_text(DEFAULT_KEY_TEXT.replace("17.0", "seventeen"))
        with pytest.raises(KeyFileError):
            parse_key_text(DEFAULT_KEY_TEXT.replace("transient=1000", "transient=-1"))
        with pytest.raises(KeyFileError):
            parse_key_text(DEFAULT_KEY_TEXT.replace("17.0", "inf"))


class TestEncryptDecryptCommands:
    def test_golden_envelope(self, tmp_path, keyfile, golden_pgm):
        out = tmp_path / "c.cse"
        assert main(["encrypt", "--key", str(keyfile), "--in", str(golden_pgm),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == GOLDEN_ENVELOPE

    def test_missing_key_line_exit_2(self, tmp_path, golden_pgm, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(DEFAULT_KEY_TEXT.replace("map2.b=0.3\n", ""))
        code = main(["encrypt", "--key", str(bad), "--in", str(golden_pgm),
                     "--out", str(tmp_path / "c.cse")])
        assert code == 2
        assert "map2.b" in capsys.readouterr().err

    def test_non_utf8_key_file_exit_2(self, tmp_path, golden_pgm, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe" + DEFAULT_KEY_TEXT.encode())
        code = main(["encrypt", "--key", str(bad), "--in", str(golden_pgm),
                     "--out", str(tmp_path / "c.cse")])
        assert code == 2
        assert "utf-8" in capsys.readouterr().err

    def test_transient_beyond_64_bits_exit_2(self, tmp_path, golden_pgm, capsys):
        p = tmp_path / "k.txt"
        p.write_text(DEFAULT_KEY_TEXT.replace("transient=1000", f"transient={2**64}"))
        code = main(["encrypt", "--key", str(p), "--in", str(golden_pgm),
                     "--out", str(tmp_path / "c.cse")])
        assert code == 2
        assert "transient" in capsys.readouterr().err

    def test_huge_transient_exit_2_at_once(self, tmp_path, golden_pgm, capsys):
        p = tmp_path / "k.txt"
        p.write_text(DEFAULT_KEY_TEXT.replace("transient=1000", f"transient={10**12}"))
        start = time.monotonic()
        code = main(["encrypt", "--key", str(p), "--in", str(golden_pgm),
                     "--out", str(tmp_path / "c.cse")])
        assert code == 2 and time.monotonic() - start < 5
        assert "transient" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path, keyfile, golden_pgm):
        out1, out2 = tmp_path / "c1.cse", tmp_path / "c2.cse"
        main(["encrypt", "--key", str(keyfile), "--in", str(golden_pgm), "--out", str(out1)])
        main(["encrypt", "--key", str(keyfile), "--in", str(golden_pgm), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_decrypt_golden(self, tmp_path, keyfile, golden_pgm):
        env = tmp_path / "c.cse"
        env.write_bytes(GOLDEN_ENVELOPE)
        out = tmp_path / "d.pgm"
        assert main(["decrypt", "--key", str(keyfile), "--in", str(env),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == golden_pgm.read_bytes()

    def test_netpbm_number_too_long_exit_1(self, tmp_path, keyfile, capsys):
        src = tmp_path / "huge.pgm"
        src.write_bytes(b"P5 " + b"9" * 5000 + b" 1 255\n")
        code = main(["encrypt", "--key", str(keyfile), "--in", str(src),
                     "--out", str(tmp_path / "c.cse")])
        assert code == 1
        assert "width is above 4,294,967,295" in capsys.readouterr().err

    def test_decrypt_bad_magic_exit_1(self, tmp_path, keyfile):
        env = tmp_path / "c.cse"
        env.write_bytes(b"XXXX" + GOLDEN_ENVELOPE[4:])
        code = main(["decrypt", "--key", str(keyfile), "--in", str(env),
                     "--out", str(tmp_path / "d.pgm")])
        assert code == 1

    def test_wrong_key_garbles_but_writes(self, tmp_path, keyfile, golden_pgm):
        # file-level key-sensitivity check at a size where it is decisive
        rng = np.random.default_rng(20)
        big = PlainImage.from_array(rng.integers(0, 256, (64, 64), dtype=np.uint8))
        plain = tmp_path / "big.pgm"
        plain.write_bytes(write_image(big))
        env = tmp_path / "big.cse"
        main(["encrypt", "--key", str(keyfile), "--in", str(plain), "--out", str(env)])

        wrong = tmp_path / "wrong.txt"
        wrong.write_text(DEFAULT_KEY_TEXT.replace("map1.x0=0.1", "map1.x0=0.1000000001"))
        out = tmp_path / "d.pgm"
        assert main(["decrypt", "--key", str(wrong), "--in", str(env),
                     "--out", str(out)]) == 0
        garbled = read_image(out.read_bytes())
        mismatch = np.mean(garbled.pixels != big.pixels)
        assert mismatch > 0.95


class TestMetricsCommand:
    def test_identical(self, golden_pgm, capsys):
        assert main(["metrics", "--a", str(golden_pgm), "--b", str(golden_pgm)]) == 0
        out = capsys.readouterr().out
        assert "mse=0.000" in out and "psnr=inf" in out

    def test_peak_mse_zero_psnr(self, tmp_path, capsys):
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        a.write_bytes(write_image(PlainImage.from_array(np.zeros((2, 2), np.uint8))))
        b.write_bytes(write_image(PlainImage.from_array(np.full((2, 2), 255, np.uint8))))
        assert main(["metrics", "--a", str(a), "--b", str(b)]) == 0
        out = capsys.readouterr().out
        assert "mse=65025.000" in out and "psnr=0.000" in out

    def test_formula_relation(self, tmp_path, capsys):
        rng = np.random.default_rng(21)
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        a.write_bytes(write_image(PlainImage.from_array(
            rng.integers(0, 256, (16, 16), dtype=np.uint8))))
        b.write_bytes(write_image(PlainImage.from_array(
            rng.integers(0, 256, (16, 16), dtype=np.uint8))))
        main(["metrics", "--a", str(a), "--b", str(b)])
        out = capsys.readouterr().out
        mse_v = float(out.split("mse=")[1].splitlines()[0])
        psnr_v = float(out.split("psnr=")[1].splitlines()[0])
        assert psnr_v == pytest.approx(10 * np.log10(65025 / mse_v), abs=0.001)

    def test_dim_mismatch_exit_1(self, tmp_path, golden_pgm):
        other = tmp_path / "o.pgm"
        other.write_bytes(write_image(PlainImage.from_array(np.zeros((3, 3), np.uint8))))
        assert main(["metrics", "--a", str(golden_pgm), "--b", str(other)]) == 1


class TestAnalyzeCommand:
    def test_bifurcate_row_count(self, tmp_path):
        out = tmp_path / "b.csv"
        code = main(["analyze", "bifurcate", "--map", "1", "--r-min", "17",
                     "--r-max", "17", "--r-step", "1", "--samples", "5",
                     "--transient", "50", "--out", str(out)])
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["r", "x"] and len(rows) == 6

    def test_bifurcate_bad_range_exit_2(self, tmp_path):
        code = main(["analyze", "bifurcate", "--map", "1", "--r-min", "18",
                     "--r-max", "17", "--r-step", "1", "--out", str(tmp_path / "b.csv")])
        assert code == 2
        code = main(["analyze", "bifurcate", "--map", "1", "--r-min", "1",
                     "--r-max", "2", "--r-step", "0", "--out", str(tmp_path / "b.csv")])
        assert code == 2

    def test_bifurcate_too_large_exit_2(self, tmp_path, capsys):
        # 2e16 r values: refused before the grid is allocated
        out = tmp_path / "b.csv"
        code = main(["analyze", "bifurcate", "--map", "1", "--r-min", "0",
                     "--r-max", "20", "--r-step", "1e-15", "--samples", "10",
                     "--out", str(out)])
        assert code == 2
        assert "limit is 10,000,000" in capsys.readouterr().err
        assert not out.exists()
        code = main(["analyze", "bifurcate", "--map", "1", "--r-min", "0",
                     "--r-max", "1", "--r-step", "1", "--samples", "5000001",
                     "--out", str(out)])
        assert code == 2
        # (r_max - r_min) / r_step overflows to inf
        code = main(["analyze", "bifurcate", "--map", "1", "--r-min=-1e308",
                     "--r-max", "1e308", "--r-step", "1", "--samples", "1",
                     "--out", str(out)])
        assert code == 2

    def test_lyapunov_positive_at_r17(self, tmp_path):
        out = tmp_path / "l.csv"
        code = main(["analyze", "lyapunov", "--map", "1", "--r", "17.0",
                     "--steps", "2000", "--transient", "100", "--out", str(out)])
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["r", "lambda"] and len(rows) == 2
        assert float(rows[1][1]) > 0

    def test_lyapunov_collapse_exit_2(self, tmp_path, capsys):
        # at r = 1e308 the a*r offset swallows x + y^2, so both trajectories
        # land on the same state and their distance is exactly 0
        code = main(["analyze", "lyapunov", "--map", "2", "--r", "1e308",
                     "--out", str(tmp_path / "l.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "collapsed" in err and "undefined" in err

    def test_lyapunov_steps_bounded_exit_2(self, tmp_path, capsys):
        out = tmp_path / "l.csv"
        t0 = time.monotonic()
        code = main(["analyze", "lyapunov", "--map", "2", "--r", "2.35",
                     "--steps", "1000000000000", "--out", str(out)])
        assert code == 2
        assert time.monotonic() - t0 < 5
        assert "limit is 10,000,000" in capsys.readouterr().err
        assert not out.exists()

    def test_lyapunov_r_defaults_to_the_map_default(self, tmp_path):
        out, ref = tmp_path / "l.csv", tmp_path / "ref.csv"
        code = main(["analyze", "lyapunov", "--map", "2", "--steps", "1000",
                     "--out", str(out)])
        assert code == 0
        write_lyapunov_csv(ref, [(2.35, lyapunov_exponent(default_map2(), 1000))])
        assert out.read_bytes() == ref.read_bytes()

    def test_phase_rows(self, tmp_path):
        out = tmp_path / "p.csv"
        code = main(["analyze", "phase", "--map", "2", "--count", "10",
                     "--transient", "100", "--out", str(out)])
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["x", "y"] and len(rows) == 11

    def test_phase_too_large_exit_2(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code = main(["analyze", "phase", "--map", "2", "--count", "5000001",
                     "--out", str(out)])
        assert code == 2
        assert "limit is 10,000,000" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_phase_count_below_one_exit_2(self, tmp_path, capsys, count):
        out = tmp_path / "p.csv"
        code = main(["analyze", "phase", "--map", "2", "--count", count,
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "count must be >= 1" in err and "Traceback" not in err
        assert not out.exists()

    def test_phase_transient_bounded_exit_2(self, tmp_path, capsys):
        code = main(["analyze", "phase", "--map", "2", "--transient", "10000001",
                     "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert "transient" in capsys.readouterr().err

    def test_map_flags_default_to_the_map_defaults(self, tmp_path):
        out, ref = tmp_path / "p.csv", tmp_path / "ref.csv"
        assert main(["analyze", "phase", "--map", "2", "--count", "50", "--out", str(out)]) == 0
        write_phase_csv(ref, phase_points(default_map2(), 50))
        assert out.read_bytes() == ref.read_bytes()

    def test_histogram_of_encrypted_image(self, tmp_path, keyfile):
        rng = np.random.default_rng(22)
        img = PlainImage.from_array(rng.integers(0, 256, (64, 64), dtype=np.uint8))
        plain = tmp_path / "p.pgm"
        plain.write_bytes(write_image(img))
        env = tmp_path / "c.cse"
        dec = tmp_path / "c.pgm"
        main(["encrypt", "--key", str(keyfile), "--in", str(plain), "--out", str(env)])
        main(["decrypt", "--key", str(keyfile), "--in", str(env), "--out", str(dec)])
        out = tmp_path / "h.csv"
        assert main(["analyze", "histogram", "--in", str(dec), "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["value", "count"] and len(rows) == 257
        assert sum(int(r[1]) for r in rows[1:]) == 64 * 64

    def test_input_files_not_mutated(self, tmp_path, keyfile, golden_pgm):
        before = golden_pgm.read_bytes()
        main(["encrypt", "--key", str(keyfile), "--in", str(golden_pgm),
              "--out", str(tmp_path / "c.cse")])
        assert golden_pgm.read_bytes() == before


def test_module_entry_point(tmp_path, golden_pgm):
    src = str(Path(chaosimg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "chaosimg.cli", "metrics",
         "--a", str(golden_pgm), "--b", str(golden_pgm)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert "mse=0.000" in proc.stdout
