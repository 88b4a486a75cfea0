import argparse
import contextlib
import csv
import io
import itertools
import os
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaosimg
from chaosimg import cli
from chaosimg.analysis import (
    lyapunov_exponent,
    phase_points,
    write_lyapunov_csv,
    write_phase_csv,
)
from chaosimg.cipher import PlainImage
from chaosimg.cli import build_parser, main
from chaosimg.errors import KeyFileError
from chaosimg.keyfile import load_key_file, parse_key_text
from chaosimg.maps import default_map2
from chaosimg.netpbm import read_image, write_image
from chaosimg.outfile import open_over
from conftest import DEFAULT_KEY_TEXT, GOLDEN_ENVELOPE, GOLDEN_PLAIN


@pytest.fixture
def keyfile(tmp_path):
    p = tmp_path / "keys.txt"
    p.write_text(DEFAULT_KEY_TEXT)
    return p


@pytest.fixture
def golden_pgm(tmp_path):
    p = tmp_path / "plain.pgm"
    p.write_bytes(GOLDEN_PGM)
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

    # a byte that starts no character, a Latin-1 comment, a cut-off euro sign
    @pytest.mark.parametrize("head, tail, byte, offset", [
        (b"\xff\xfe", b"", 0xFF, 0),
        (b"", b"# caf\xe9\n", 0xE9, len(DEFAULT_KEY_TEXT) + 5),
        (b"", b"#\xe2\x82", 0xE2, len(DEFAULT_KEY_TEXT) + 1),
    ])
    def test_non_utf8_file_raises_key_file_error(self, tmp_path, head, tail, byte, offset):
        p = tmp_path / "k.txt"
        p.write_bytes(head + DEFAULT_KEY_TEXT.encode() + tail)
        with pytest.raises(KeyFileError) as info:
            load_key_file(p)
        assert str(info.value) == f"key file is not utf-8 text: byte {byte:#04x} at offset {offset}"


def padded_key(size: int) -> bytes:
    """A valid key file of `size` bytes: comment lines, then blank ones, before the key."""
    pad = size - len(DEFAULT_KEY_TEXT)
    return (b"#" * 63 + b"\n") * (pad // 64) + b"\n" * (pad % 64) + DEFAULT_KEY_TEXT.encode()


def envelope(version=1, depth=1, side=2, pad=0, body=GOLDEN_ENVELOPE[15:]) -> bytes:
    return struct.pack(">4sBBIIB", b"CSE1", version, depth, side, side, pad) + body


GOLDEN_PGM = write_image(PlainImage.from_array(GOLDEN_PLAIN))
ENCRYPT, DECRYPT = (f"{c} --key {{key}} --in {{in}} --out {{out}}" for c in ("encrypt", "decrypt"))
ARGV = {"encrypt": ENCRYPT, "decrypt": DECRYPT,
        "histogram": "analyze histogram --in {in} --out {out}"}
NO_FILE = "[Errno 2] No such file or directory: '{missing}'"
USAGE = "usage"  # argparse's SystemExit(2): its usage line, then "prog: error: message"
# (name, key file, message) of each key file that encrypt refuses with exit 2
KEY_FILES = [
    ("missing-name", DEFAULT_KEY_TEXT.replace("map2.b=0.3\n", ""),
     "missing required key(s): map2.b"),
    ("unknown-name", DEFAULT_KEY_TEXT + "map3.r=1.0\n", "line 10: unknown key 'map3.r'"),
    ("duplicate-name", DEFAULT_KEY_TEXT + "map1.r=17.0\n", "line 10: duplicate key 'map1.r'"),
    ("not-a-decimal", DEFAULT_KEY_TEXT.replace("0.3", "abc"), "key 'map2.b': not a decimal: 'abc'"),
    ("not-finite", DEFAULT_KEY_TEXT.replace("17.0", "inf"), "key 'map1.r': value must be finite"),
    ("transient-1e3", DEFAULT_KEY_TEXT.replace("1000", "1e3"),
     "key 'transient': not an integer: '1e3'"),
    *((f"transient-{t}", DEFAULT_KEY_TEXT.replace("1000", str(t)),
       f"transient must be in [0, 10,000,000], got {t}") for t in (-1, 10**12, 2**64)),
    ("not-utf8", b"\xff\xfe" + DEFAULT_KEY_TEXT.encode(),
     "key file is not utf-8 text: byte 0xff at offset 0"),
    ("over-64-kib", padded_key(65_537), "key file is longer than 65,536 bytes"),
]
# (name, --in bytes, message) of each Netpbm file that encrypt and histogram refuse with exit 1
NETPBM = [
    ("bad-magic", b"P2 2 2 255\n" + bytes(4), "bad magic b'P2', want P5 or P6 (byte offset 0)"),
    ("maxval-65535", b"P5 2 2 65535\n" + bytes(8),
     "unsupported maxval 65535 (only 8-bit) (byte offset 12)"),
    ("truncated-raster", b"P5 2 2 255\n" + bytes(3),
     "truncated raster: have 3 of 4 bytes (byte offset 14)"),
    ("width-0", b"P5 0 2 255\n" + bytes(4), "bad dimensions 0x2 (byte offset 2)"),
    ("no-whitespace-before-raster", b"P5 2 2 255#\n" + bytes(4),
     "expected single whitespace before raster (byte offset 10)"),
]
# (name, --in bytes, message) of each envelope that decrypt refuses with exit 1
ENVELOPES = [
    ("bad-magic", b"XXXX" + GOLDEN_ENVELOPE[4:], "bad magic b'XXXX'"),
    ("version-2", envelope(version=2), "unsupported version 2"),
    ("depth-2", envelope(depth=2), "bad depth byte 2"),
    ("10-byte-header", GOLDEN_ENVELOPE[:10], "truncated header"),
    ("wrong-pad", envelope(pad=1), "pad 1 is wrong for 4 pixels"),
    ("short-body", GOLDEN_ENVELOPE[:-1], "body length 3 != expected 4"),
    *((f"{n}-bytes-past-the-body", GOLDEN_ENVELOPE + bytes(n),
       "envelope is longer than the 19 bytes its header states") for n in (1, 5000)),
    # 3 (2**32 - 1)**2 + 1 bytes stated and 5 given: read no further than the file
    ("huge-stated-body", envelope(depth=3, side=2**32 - 1, pad=1, body=bytes(5)),
     f"body length 5 != expected {3 * (2**32 - 1)**2 + 1}"),
]
R_GRID = "--r-min 1 --r-max 2 --r-step 1"
# (name, argv after "analyze" less --out, message) of each analysis refused with exit 2
ANALYSES = [
    ("bifurcate-r-min-above-r-max", "bifurcate --r-min 18 --r-max 17 --r-step 1",
     "r_min must be <= r_max"),
    ("bifurcate-r-step-0", "bifurcate --r-min 1 --r-max 2 --r-step 0", "r_step must be positive"),
    # refused before the grid is allocated
    ("bifurcate-2e16-r-values", "bifurcate --r-min 0 --r-max 20 --r-step 1e-15 --samples 10",
     "200,000,000,000,000,010 bifurcation sweep values requested; the limit is 10,000,000"),
    ("bifurcate-samples-5000001", "bifurcate --r-min 0 --r-max 1 --r-step 1 --samples 5000001",
     "10,000,002 bifurcation sweep values requested; the limit is 10,000,000"),
    # (r_max - r_min) / r_step overflows to inf
    ("bifurcate-r-grid-overflows", "bifurcate --r-min=-1e308 --r-max 1e308 --r-step 1 --samples 1",
     "inf bifurcation sweep values requested; the limit is 10,000,000"),
    # one value per r, but 10^7 transient iterates for each of 10^6 r
    ("bifurcate-transient-iterates",
     "bifurcate --map 2 --r-min 0 --r-max 1000000 --r-step 1 --samples 1 --transient 10000000",
     "10,000,011,000,001 bifurcation sweep iterates requested; the limit is 100,000,000"),
    ("bifurcate-a-nan", f"bifurcate --map 2 --a nan {R_GRID}", "parameter a must be finite"),
    ("bifurcate-samples-0", f"bifurcate --samples 0 {R_GRID}", "samples must be >= 1"),
    # Map 1 has no a or b: a flag it would ignore is refused
    ("lyapunov-map-1-a-and-b", "lyapunov --map 1 --a 7 --b 9", "Map 1 has no --a or --b"),
    ("phase-map-1-b", "phase --map 1 --b 9", "Map 1 has no --b"),
    ("bifurcate-map-1-a", "bifurcate --map 1 --a 7 --r-min 17 --r-max 17 --r-step 1",
     "Map 1 has no --a"),
    # at r = 1e308 the a*r offset swallows x + y^2, so both trajectories land
    # on the same state and their distance is exactly 0
    ("lyapunov-collapse", "lyapunov --map 2 --r 1e308", "companion trajectory collapsed onto"
     " the reference at step 1; the Lyapunov exponent is undefined"),
    ("lyapunov-steps-10-12", "lyapunov --map 2 --steps 1000000000000",
     "1,000,000,000,000 Lyapunov steps requested; the limit is 10,000,000"),
    ("lyapunov-steps-999", "lyapunov --steps 999", "steps must be >= 1000"),
    ("lyapunov-r-nan", "lyapunov --r nan", "parameter r must be finite"),
    ("lyapunov-x0-inf", "lyapunov --x0 inf", "parameter x0 must be finite"),
    ("phase-count-5000001", "phase --map 2 --count 5000001",
     "10,000,002 phase run values requested; the limit is 10,000,000"),
    *((f"phase-count-{c}", f"phase --map 2 --count {c}", "count must be >= 1") for c in (0, -1)),
    ("phase-transient-10000001", "phase --map 2 --transient 10000001",
     "transient must be in [0, 10,000,000], got 10000001"),
]


def refusal(id, argv, code, message, key=DEFAULT_KEY_TEXT, data=GOLDEN_PGM):
    """A row of REFUSALS: `argv`, split at spaces, and `message` name its files as {key}
    (holding `key`), {in} (`data`), {b} (a 3x3 image), and {out} and {missing} (never made)."""
    return pytest.param(argv, code, message, key, data, id=id)


# every refusal that README's "Exit codes" names, but for running out of
# memory and the endless inputs, which the tests below check
REFUSALS = [
    *(refusal(f"encrypt-key-{name}", ENCRYPT, 2, why, key=key) for name, key, why in KEY_FILES),
    refusal("encrypt-key-missing-file", ENCRYPT.replace("{key}", "{missing}"), 1, NO_FILE),
    # Map 2's a*r overflows at iteration 0, and Map 1 at r = 1e307 diverges
    # at 253, whose error wins, as in the split-half reference
    *(refusal(f"{command}-key-diverging-map1-r-{r}", ARGV[command], 1,
              f"non-finite value at iteration {i}",
              key=DEFAULT_KEY_TEXT.replace("17.0", r).replace("2.35", "1e308").replace("0.5", "10"),
              data=data)
      for command, data in (("encrypt", GOLDEN_PGM), ("decrypt", GOLDEN_ENVELOPE))
      for r, i in (("17.0", 0), ("1e307", 253))),
    *(refusal(f"{command}-netpbm-{name}", ARGV[command], 1, why, data=data)
      for command in ("encrypt", "histogram") for name, data, why in NETPBM),
    refusal("encrypt-netpbm-width-of-5000-digits", ENCRYPT, 1,
            "width is above 4,294,967,295 (byte offset 3)",
            data=b"P5 " + b"9" * 5000 + b" 1 255\n"),
    refusal("encrypt-netpbm-header-over-1-mib", ENCRYPT, 1,
            "header does not end within 1,048,576 bytes (byte offset 1048576)",
            data=b"P5" + b" " * cli._MAX_HEADER + b"2 2 255\n" + bytes(4)),
    *(refusal(f"decrypt-{name}", DECRYPT, 1, why, data=data) for name, data, why in ENVELOPES),
    *(refusal(f"{command}-{what}-in", argv.replace("{in}", path), 1, message)
      for command, argv in ARGV.items() for what, path, message in (
          ("missing", "{missing}", NO_FILE), ("directory", ".", "[Errno 21] Is a directory: '.'"))),
    refusal("metrics-missing-b", "metrics --a {in} --b {missing}", 1, NO_FILE),
    refusal("metrics-dims-differ", "metrics --a {in} --b {b}", 1, "dims differ: ImageDims(depth=1,"
            " height=2, width=2) vs ImageDims(depth=1, height=3, width=3)"),
    *(refusal(name, f"analyze {argv} --out {{out}}", 2, why) for name, argv, why in ANALYSES),
    # the sweep takes r from its grid, so bifurcate has no --r flag
    refusal("bifurcate-r", "analyze bifurcate --r 99 --r-min 17 --r-max 17 --r-step 1 --out {out}",
            USAGE, "ambiguous option: --r could match --r-min, --r-max, --r-step"),
    refusal("lyapunov-steps-x", "analyze lyapunov --steps x --out {out}", USAGE,
            "argument --steps: invalid int value: 'x'"),
    refusal("encrypt-no-key", "encrypt --in {in} --out {out}", USAGE,
            "the following arguments are required: --key"),
    refusal("encrypt-extra-token", f"{ENCRYPT} extra", USAGE, "unrecognized arguments: extra"),
]


@pytest.mark.parametrize("argv, code, message, key, data", REFUSALS)
def test_refusal(tmp_path, capsys, argv, code, message, key, data):
    """The row's exit code and one exact line on stderr; no stdout, no --out, and within 5 s."""
    paths = {name: tmp_path / name for name in ("key", "in", "b", "out", "missing")}
    paths["key"].write_bytes(key if isinstance(key, bytes) else key.encode())
    paths["in"].write_bytes(data)
    paths["b"].write_bytes(write_image(PlainImage.from_array(np.zeros((3, 3), np.uint8))))
    args = [token.format(**paths) for token in argv.split()]
    start = time.monotonic()
    try:
        got = main(args)
    except SystemExit as exc:
        got = USAGE if exc.code == 2 else exc.code
    elapsed = time.monotonic() - start
    want = f"chaosimg: error: {message.format(**paths)}\n"
    if code == USAGE:
        parser = cli._parsers()[1][tuple(args[:2] if args[0] == "analyze" else args[:1])]
        want = want.replace("chaosimg:", f"{parser.format_usage()}{parser.prog}:", 1)
    assert (got, *capsys.readouterr()) == (code, "", want)
    assert not paths["out"].exists() and elapsed < 5


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

    def test_inputs_at_their_limits_are_read(self, tmp_path, golden_pgm):
        # a 64 KiB key file and a header 20 bytes short of 1 MiB: REFUSALS has longer ones
        key, src, env = tmp_path / "k.txt", tmp_path / "p.pgm", tmp_path / "c.cse"
        key.write_bytes(padded_key(65_536))
        src.write_bytes(b"P5" + b" " * (cli._MAX_HEADER - 20) + b"2 2 255\n" + bytes([1, 2, 3, 4]))
        assert main(["encrypt", "--key", str(key), "--in", str(src), "--out", str(env)]) == 0
        assert key.stat().st_size == 65_536 and env.read_bytes() == GOLDEN_ENVELOPE

    def test_out_of_memory_exit_1(self, tmp_path, keyfile, golden_pgm, capsys, monkeypatch):
        def exhausted(data):
            raise MemoryError
        monkeypatch.setattr(chaosimg.netpbm, "read_image", exhausted)
        code = main(["encrypt", "--key", str(keyfile), "--in", str(golden_pgm),
                     "--out", str(tmp_path / "c.cse")])
        assert code == 1
        assert capsys.readouterr().err == "chaosimg: error: out of memory\n"

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

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_reads_in_chunks(self, tmp_path, keyfile, monkeypatch, chunk):
        # a header that spans many reads, then bytes after the raster
        src = tmp_path / "p.pgm"
        src.write_bytes(b"P5 #c\n2\n#x\r 2 255\n" + bytes([1, 2, 3, 4]) + b"next image")
        env, out = tmp_path / "c.cse", tmp_path / "d.pgm"
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        assert main(["encrypt", "--key", str(keyfile), "--in", str(src), "--out", str(env)]) == 0
        assert env.read_bytes() == GOLDEN_ENVELOPE
        assert main(["decrypt", "--key", str(keyfile), "--in", str(env), "--out", str(out)]) == 0
        assert out.read_bytes() == b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4])

    @pytest.mark.parametrize("limit", [16, 112, 113, 123, 124, 1 << 20])
    def test_raster_read_past_the_header_limit(self, tmp_path, monkeypatch, limit):
        # a 113-byte image, then 10 bytes of another: the first read ends in
        # the raster, at its end, at the end of the file, or takes it all
        pixels = np.arange(100, dtype=np.uint8).reshape(10, 10)
        src = tmp_path / "p.pgm"
        src.write_bytes(write_image(PlainImage.from_array(pixels)) + b"next image")
        monkeypatch.setattr(cli, "_MAX_HEADER", limit)
        np.testing.assert_array_equal(cli._load_image(src).pixels[0], pixels)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_endless_stream_read_only_as_far_as_its_header_says(self, tmp_path, keyfile, capsys):
        pgm = b"P5 2 2 255\n" + bytes([1, 2, 3, 4])
        with endless_fifo(tmp_path / "pgm", pgm) as src:
            assert main(["encrypt", "--key", str(keyfile), "--in", str(src),
                         "--out", str(tmp_path / "c.cse")]) == 0
        assert (tmp_path / "c.cse").read_bytes() == GOLDEN_ENVELOPE
        with endless_fifo(tmp_path / "cse", GOLDEN_ENVELOPE) as src:
            assert main(["decrypt", "--key", str(keyfile), "--in", str(src),
                         "--out", str(tmp_path / "d.pgm")]) == 1
        assert "envelope is longer than the 19 bytes" in capsys.readouterr().err

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

    def run_metrics(self, tmp_path, capsys, pixels):
        """The name=value lines of `metrics` of an image with itself, in
        order; asserts exit 0."""
        path = tmp_path / "b.pgm"
        path.write_bytes(write_image(PlainImage.from_array(np.array(pixels, np.uint8))))
        assert main(["metrics", "--a", str(path), "--b", str(path)]) == 0
        return [line.split("=") for line in capsys.readouterr().out.splitlines()]

    def test_quality_lines_follow_mse_and_psnr(self, tmp_path, capsys):
        lines = self.run_metrics(tmp_path, capsys, [[1, 2], [3, 4]])
        assert [name for name, _ in lines] == ["mse", "psnr", "chi2", "corr_h", "corr_v"]
        assert lines[:2] == [["mse", "0.000"], ["psnr", "inf"]]

    def test_chi2_of_the_golden_image(self, tmp_path, capsys):
        # 4 pixels in 4 distinct bins, e = 4/256 expected per bin: 4 bins of
        # (1 - e)^2 / e and 252 bins of e, 252 in all
        lines = dict(self.run_metrics(tmp_path, capsys, [[1, 2], [3, 4]]))
        e = 4 / 256
        assert float(lines["chi2"]) == pytest.approx(4 * (1 - e) ** 2 / e + 252 * e, abs=5e-4)
        assert lines["chi2"] == "252.000"

    def test_checkerboard_correlations(self, tmp_path, capsys):
        i, j = np.mgrid[0:8, 0:8]
        lines = dict(self.run_metrics(tmp_path, capsys, ((i + j) % 2) * 255))
        assert lines["corr_h"] == "-1.000000" and lines["corr_v"] == "-1.000000"

    def test_undefined_correlation_is_nan(self, tmp_path, capsys):
        lines = dict(self.run_metrics(tmp_path, capsys, np.full((2, 2), 255)))
        assert lines["corr_h"] == lines["corr_v"] == "nan"
        assert lines["chi2"] == "1020.000"  # 4 pixels in one bin: 256 * 4 - 4
        one_wide = dict(self.run_metrics(tmp_path, capsys, [[0], [255], [0], [255]]))
        assert one_wide["corr_h"] == "nan" and one_wide["corr_v"] == "-1.000000"
        one_pixel = dict(self.run_metrics(tmp_path, capsys, [[7]]))
        assert one_pixel["corr_h"] == one_pixel["corr_v"] == "nan"


class TestAnalyzeCommand:
    def test_bifurcate_row_count(self, tmp_path):
        out = tmp_path / "b.csv"
        code = main(["analyze", "bifurcate", "--map", "1", "--r-min", "17",
                     "--r-max", "17", "--r-step", "1", "--samples", "5",
                     "--transient", "50", "--out", str(out)])
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["r", "x"] and len(rows) == 6

    @pytest.mark.parametrize("argv", ["lyapunov --a 7 --b 9", "phase --b 9",
                                      "bifurcate --a 7 --r-min 17 --r-max 17 --r-step 1"],
                             ids=["lyapunov", "phase", "bifurcate"])
    def test_map2_takes_a_and_b(self, tmp_path, argv):
        assert main(["analyze", *argv.split(), "--map", "2", "--out", str(tmp_path / "x")]) == 0

    def test_lyapunov_positive_at_r17(self, tmp_path):
        out = tmp_path / "l.csv"
        code = main(["analyze", "lyapunov", "--map", "1", "--r", "17.0",
                     "--steps", "2000", "--transient", "100", "--out", str(out)])
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["r", "lambda"] and len(rows) == 2
        assert float(rows[1][1]) > 0

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


class TestOutputFiles:
    def test_open_over_writes_over_and_cuts(self, tmp_path):
        p = tmp_path / "f"
        p.write_bytes(b"old bytes, more than the new")
        with open_over(p) as fh:
            assert p.read_bytes() == b"old bytes, more than the new"  # not emptied by the open
            fh.write(b"new")
        assert p.read_bytes() == b"new"

    @pytest.mark.parametrize("command", ["encrypt", "decrypt", "lyapunov", "histogram"])
    def test_longer_output_file_is_cut(self, tmp_path, keyfile, golden_pgm, command):
        env = tmp_path / "c.cse"
        assert main(["encrypt", "--key", str(keyfile), "--in", str(golden_pgm), "--out", str(env)]) == 0
        argv = {
            "encrypt": ["encrypt", "--key", str(keyfile), "--in", str(golden_pgm)],
            "decrypt": ["decrypt", "--key", str(keyfile), "--in", str(env)],
            "lyapunov": ["analyze", "lyapunov", "--map", "2", "--steps", "1000"],
            "histogram": ["analyze", "histogram", "--in", str(golden_pgm)],
        }[command]
        fresh, used = tmp_path / "fresh", tmp_path / "used"
        used.write_bytes(b"\xff" * 5000)
        assert main([*argv, "--out", str(fresh)]) == 0
        assert main([*argv, "--out", str(used)]) == 0
        assert used.read_bytes() == fresh.read_bytes()

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="needs a null device")
    def test_output_to_a_device(self, keyfile, golden_pgm):
        assert main(["encrypt", "--key", str(keyfile), "--in", str(golden_pgm),
                     "--out", os.devnull]) == 0
        assert main(["analyze", "phase", "--map", "2", "--count", "10", "--out", os.devnull]) == 0


@contextlib.contextmanager
def endless_fifo(path, head):
    """A named pipe at `path` that gives `head`, then zero bytes until its
    reader closes it."""
    os.mkfifo(path)

    def write():
        with contextlib.suppress(BrokenPipeError), open(path, "wb", buffering=0) as fh:
            fh.write(head)
            while True:
                fh.write(bytes(65536))

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    yield path
    writer.join(timeout=10)
    assert not writer.is_alive()


def run_python(*args, timeout=60):
    """A fresh interpreter that imports chaosimg from this source tree."""
    src = str(Path(chaosimg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


def test_module_entry_point(golden_pgm):
    proc = run_python("-m", "chaosimg.cli", "metrics", "--a", str(golden_pgm),
                      "--b", str(golden_pgm))
    assert proc.returncode == 0
    assert "mse=0.000" in proc.stdout


def test_import_loads_no_cli():
    # the benchmark's setup time is this import plus one small encrypt
    proc = run_python("-c", "import chaosimg, sys; "
                      "print(sorted({'argparse', 'gettext', 'chaosimg.cli'} & set(sys.modules)))")
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
@pytest.mark.parametrize("command", ["encrypt", "decrypt"])
def test_endless_input_exit_1(tmp_path, keyfile, command):
    limit = 600 * 2**20  # address space: the whole stream would not fit
    proc = run_python(
        "-c", "import resource, runpy; "
              f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
              "runpy.run_module('chaosimg.cli', run_name='__main__')",
        command, "--key", str(keyfile), "--in", "/dev/zero", "--out", str(tmp_path / "out"),
        timeout=10,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("chaosimg: error: bad magic"), proc.stderr


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_endless_header_exit_1(tmp_path, keyfile):
    limit = 600 * 2**20  # address space: the whole stream would not fit
    with endless_fifo(tmp_path / "pgm", b"P5 ") as src:  # a width token without end
        proc = run_python(
            "-c", "import resource, runpy; "
                  f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
                  "runpy.run_module('chaosimg.cli', run_name='__main__')",
            "encrypt", "--key", str(keyfile), "--in", str(src), "--out", str(tmp_path / "out"),
            timeout=10,
        )
    assert proc.returncode == 1
    assert proc.stderr.startswith(
        "chaosimg: error: header does not end within 1,048,576 bytes"), proc.stderr


class TestSharedParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_later_calls_match_the_first(self, tmp_path, keyfile, golden_pgm, capsys):
        def run(tag):
            """(exit code, stdout, stderr, output file bytes) of each call."""
            cse, pgm, csv_out = (tmp_path / f"{tag}.{ext}" for ext in ("cse", "pgm", "csv"))
            key, plain = str(keyfile), str(golden_pgm)
            calls = [
                (["encrypt", "--key", key, "--in", plain, "--out", str(cse)], cse),
                (["decrypt", "--key", key, "--in", str(cse), "--out", str(pgm)], pgm),
                (["metrics", "--a", plain, "--b", str(pgm)], None),
                (["analyze", "phase", "--map", "2", "--count", "20", "--out", str(csv_out)],
                 csv_out),
                (["encrypt", "--in", plain, "--out", str(cse)], None),  # no --key
            ]
            results = []
            for argv, out in calls:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                results.append((code, *capsys.readouterr(), out and out.read_bytes()))
            return results

        first, second = run("first"), run("second")
        assert second == first
        assert [r[0] for r in first] == [0, 0, 0, 0, 2]
        assert first[0][3] == GOLDEN_ENVELOPE
        for _, _, err, _ in (first[-1], second[-1]):
            assert err.startswith("usage: chaosimg encrypt [-h] --key KEY")
            assert "the following arguments are required: --key" in err

    def test_threads_get_their_own_values(self):
        def argv_and_values(i, j):
            """Thread i's argv in round j, and what `main`'s parse must give."""
            tag = f"{i}.{j}"
            return [
                (["encrypt", "--key", f"k{tag}", "--in", f"p{tag}", "--out", f"c{tag}"],
                 {"func": cli._cmd_encrypt, "key": f"k{tag}", "infile": f"p{tag}"}),
                (["decrypt", "--key", f"k{tag}", "--in", f"c{tag}", "--out", f"p{tag}"],
                 {"func": cli._cmd_decrypt, "key": f"k{tag}", "outfile": f"p{tag}"}),
                (["metrics", "--a", f"a{tag}", "--b", f"b{tag}"],
                 {"func": cli._cmd_metrics, "a": f"a{tag}", "b": f"b{tag}"}),
                (["analyze", "phase", "--map", "2", "--count", str(j + 1), "--out", f"o{tag}"],
                 {"func": cli._cmd_phase, "map": 2, "count": j + 1, "r": None}),
            ][i]

        done, wrong = [0] * 4, []

        def parse(i):
            for j in range(50):
                argv, want = argv_and_values(i, j)
                args = cli._parse(argv)
                got = {name: getattr(args, name) for name in want}
                if got != want:
                    wrong.append((argv, got))
                done[i] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=parse, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert done == [50] * 4 and wrong == []


# each command path's flags, as README documents them
_MAP = ["--map", "--a", "--b", "--x0", "--y0", "--transient"]
PATH_FLAGS = {
    ("encrypt",): ["--key", "--in", "--out"],
    ("decrypt",): ["--key", "--in", "--out"],
    ("metrics",): ["--a", "--b"],
    ("analyze", "bifurcate"): [*_MAP, "--r-min", "--r-max", "--r-step", "--samples", "--out"],
    ("analyze", "lyapunov"): [*_MAP, "--r", "--steps", "--out"],
    ("analyze", "phase"): [*_MAP, "--r", "--count", "--out"],
    ("analyze", "histogram"): ["--in", "--out"],
}
# "1" and "2" suit every flag, --map included; half the values are one of them
VALUES = st.one_of(st.sampled_from(["1", "2"]),
                   st.sampled_from(["7", "0.5", "-3", "1e3", "3.9", "x", "inf", "", "o.csv"]))


@st.composite
def flag_tokens(draw, flag):
    """One use of `flag`: with a value, as --flag=value, abbreviated (which
    may be ambiguous, as bifurcate's --r is), or with its value missing."""
    prefixes = [flag[:k] for k in range(3, len(flag) + 1)]
    name = draw(st.one_of(st.just(flag), st.sampled_from(prefixes)))
    value = draw(VALUES)
    return draw(st.sampled_from([[name, value]] * 4 + [[f"{name}={value}"]] * 2 + [[name]]))


@st.composite
def command_lines(draw):
    """An argv of one command path: each flag mostly once, sometimes missing
    or repeated, in any order, with now and then -h or an extra token."""
    path = draw(st.sampled_from(sorted(PATH_FLAGS)))
    items = [draw(flag_tokens(flag)) for flag in PATH_FLAGS[path]
             for _ in range(draw(st.sampled_from([1, 1, 1, 1, 0, 2])))]
    items += draw(st.lists(st.sampled_from(
        [["-h"], ["--help"], ["extra"], ["--bogus", "1"], ["-q"], ["--"], ["--map", "3"]]
    ), max_size=2))
    items = draw(st.permutations(items))
    return path, [*path, *itertools.chain.from_iterable(items)]


def parse_outcome(parse, argv):
    """(attributes or exit code, stdout, stderr) of `parse(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestDispatch:
    """`main` parses argv once, at the parser of its command path, with the
    whole tree's result."""

    def test_one_parse_per_call(self, tmp_path, keyfile, golden_pgm, monkeypatch, capsys):
        key, plain = str(keyfile), str(golden_pgm)
        cse, pgm, csv_out = (str(tmp_path / name) for name in ("c.cse", "p.pgm", "o.csv"))
        calls = [
            ["encrypt", "--key", key, "--in", plain, "--out", cse],
            ["decrypt", "--key", key, "--in", cse, "--out", pgm],
            ["metrics", "--a", plain, "--b", pgm],
            ["analyze", "bifurcate", "--r-min", "1", "--r-max", "2", "--r-step", "0.5",
             "--samples", "2", "--transient", "0", "--out", csv_out],
            ["analyze", "lyapunov", "--steps", "1000", "--out", csv_out],
            ["analyze", "phase", "--count", "3", "--out", csv_out],
            ["analyze", "histogram", "--in", pgm, "--out", csv_out],
        ]
        parse_known_args = argparse.ArgumentParser.parse_known_args
        parses = []

        def counted(self, *args, **kwargs):
            parses.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        for argv in calls:
            parses.clear()
            assert main(argv) == 0, capsys.readouterr().err
            assert parses == ["chaosimg " + " ".join(argv[:2 if argv[0] == "analyze" else 1])]

    @settings(max_examples=400, deadline=None)
    @given(case=command_lines())
    def test_parses_like_the_tree(self, case):
        path, argv = case
        want, want_out, want_err = parse_outcome(build_parser().parse_args, argv)
        got, out, err = parse_outcome(cli._parse, argv)
        if isinstance(want, dict):  # the sub-commands' names, which nothing reads
            assert want.pop("command") == path[0] and want.pop("analysis", path[-1]) == path[-1]
        assert (got, out) == (want, want_out)
        _, unrecognized, tokens = want_err.rpartition("error: unrecognized arguments: ")
        if not unrecognized:
            assert err == want_err
            return
        # the one difference: the sub-command's parser reports an extra token
        sub = cli._parsers()[1][path]
        assert want_err == f"{build_parser().format_usage()}chaosimg: {unrecognized}{tokens}"
        assert err == f"{sub.format_usage()}{sub.prog}: {unrecognized}{tokens}"
        assert err.startswith(f"usage: chaosimg {' '.join(path)} [-h]")

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--help", "encrypt"], ["analyze"], ["analyze", "-h"],
        ["analyze", "typo", "--out", "o"], ["encrpyt", "--key", "k"], ["-x", "encrypt"],
    ])
    def test_other_argv_goes_to_the_tree(self, argv):
        want = parse_outcome(build_parser().parse_args, argv)
        assert parse_outcome(cli._parse, argv) == want
        assert want[0] in (0, 2)
