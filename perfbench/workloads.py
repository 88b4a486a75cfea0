"""Seeded inputs and closed-loop operations of the three workloads.

Every workload is a list of operations that a single caller runs in order,
cyclically, each starting after the previous one returns. The program
sees only the files and arrays built here.

- cipher-large: library encrypt/decrypt of 512x512 RGB and 512x512 gray
  images. Map iteration and the stable argsorts dominate, and the
  key-schedule arrays set the peak memory.
- cli-small: `cli.main` encrypt/decrypt of 48 small P5/P6 files, plus a
  seeded share of hostile inputs. Fixed per-call costs (argparse, key
  file, Netpbm and envelope parsing, file IO, the transient) matter here.
- dynamics: `cli.main` analyze calls (Lyapunov, bifurcation, phase) and a
  cipher-quality chain (encrypt, histogram and metrics of the cipher
  view, decrypt). It uses `maps.step` and many short sequences.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_KEY = ((17.0, 0.1, 0.1), (2.35, 0.5, 0.3, 0.1, 0.1), 1000)
KEY_NAMES = ("map1.r", "map1.x0", "map1.y0", "map2.r", "map2.a", "map2.b",
             "map2.x0", "map2.y0", "transient")
ENVELOPE_HEADER = 15  # magic 4, version 1, depth 1, height 4, width 4, pad 1
# map iteration and the argsorts are most of the time of every encryption
CIPHER_MIX = (8000, 0)


@dataclass
class Op:
    kind: str                          # encrypt, decrypt, hostile, lyapunov, ...
    call: Callable[[], object]         # the timed call into the program
    check: Callable[[object], bool]    # untimed: is the result correct?
    nbytes: int = 0                    # plaintext bytes of an encrypt/decrypt


@dataclass
class Workload:
    ops: list[Op]                      # run in this order, cyclically
    memory_ops: list[Op]               # one encrypt and its decrypt, under tracemalloc
    # steps of the two loops of run.reference, which measures the host's
    # speed; the loops that resemble the workload's own work track it best
    reference_mix: tuple[int, int]
    probes: dict[str, Callable[[], str]] = field(default_factory=dict)


# -- shared helpers ------------------------------------------------------


def pnm_bytes(pixels: np.ndarray) -> bytes:
    """Binary Netpbm file of a (depth, height, width) uint8 array."""
    d, h, w = pixels.shape
    raster = pixels[0] if d == 1 else pixels.transpose(1, 2, 0)
    return b"P%d\n%d %d\n255\n" % (5 if d == 1 else 6, w, h) + raster.tobytes()


def pnm_pixels(data: bytes) -> np.ndarray | None:
    """(depth, height, width) array of a binary Netpbm file, None if malformed."""
    m = re.match(rb"(P[56])\s+(\d+)\s+(\d+)\s+255\s", data)
    if m is None:
        return None
    d, w, h = (1 if m[1] == b"P5" else 3), int(m[2]), int(m[3])
    raster = np.frombuffer(data, np.uint8, offset=m.end())
    if raster.size != d * h * w:
        return None
    return raster.reshape(h, w, d).transpose(2, 0, 1)


def key_text(spec) -> str:
    (r1, x1, y1), (r2, a, b, x2, y2), transient = spec
    values = (r1, x1, y1, r2, a, b, x2, y2)
    lines = [f"{n}={float(v)!r}" for n, v in zip(KEY_NAMES, values)]
    return "\n".join(lines + [f"transient={transient}"]) + "\n"


def near_default_key(rng):
    """The default key with each real parameter moved by at most 1e-3."""
    (r1, x1, y1), (r2, a, b, x2, y2), transient = DEFAULT_KEY
    d = rng.uniform(-1e-3, 1e-3, 8)
    return ((r1 + d[0], x1 + d[1], y1 + d[2]),
            (r2 + d[3], a + d[4], b + d[5], x2 + d[6], y2 + d[7]), transient)


def seeded_image(rng, depth, height, width) -> np.ndarray:
    """Gradient, a bright disc and noise: a scan-like image."""
    i, j = np.mgrid[0:height, 0:width]
    out = np.empty((depth, height, width), np.uint8)
    for c in range(depth):
        gi, gj = rng.uniform(0.1, 0.6, 2)
        ci, cj, rad = rng.uniform(0.2, 0.8, 3) * (height, width, min(height, width) / 2)
        img = 20 + gi * i * 256 / height + gj * j * 256 / width
        img[(i - ci) ** 2 + (j - cj) ** 2 < rad ** 2] = 220
        out[c] = np.clip(img + rng.normal(0, 8, img.shape), 0, 255).astype(np.uint8)
    return out


def cli_run(argv, capture=False):
    """`cli.main(argv)` with its console output captured; (exit code, stdout)."""
    from chaosimg import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue() if capture else ""


def _roundtrip_check(path: Path, plain: np.ndarray):
    def check(result):
        got = pnm_pixels(path.read_bytes())
        return result[0] == 0 and got is not None and np.array_equal(got, plain)
    return check


def _csv_rows(path: Path, header: str) -> list[list[float]] | None:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        return None
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


# -- cipher-large --------------------------------------------------------


def cipher_large(rng, work: Path) -> Workload:
    from chaosimg import cipher, keyfile, netpbm

    # largest first: when the time runs out mid-cycle, the ops that got one
    # more run are the ones that weigh most in the throughput. A 1024x1024
    # image would leave each op only two or three runs to take the best of.
    shapes = [(3, 512, 512), (1, 512, 512)]
    keys = [DEFAULT_KEY, near_default_key(rng)]
    ops = []
    for k, (shape, key) in enumerate(zip(shapes, keys)):
        plain = seeded_image(rng, *shape)
        src = pnm_bytes(plain)
        key_path = work / f"large{k}.key"
        key_path.write_text(key_text(key))
        blob = {}

        def enc(src=src, key_path=key_path):
            image = netpbm.read_image(src)
            return cipher.encrypt(image, keyfile.load_key_file(key_path)).to_bytes()

        def enc_check(data, n=plain.size, blob=blob):
            blob["env"] = data
            return len(data) == ENVELOPE_HEADER + n + n % 2

        def dec(key_path=key_path, blob=blob):
            envelope = cipher.CipherEnvelope.from_bytes(blob["env"])
            return netpbm.write_image(cipher.decrypt(envelope, keyfile.load_key_file(key_path)))

        def dec_check(data, plain=plain):
            got = pnm_pixels(data)
            return got is not None and np.array_equal(got, plain)

        ops += [Op("encrypt", enc, enc_check, plain.size), Op("decrypt", dec, dec_check, plain.size)]
    return Workload(ops=ops, memory_ops=ops[-2:], reference_mix=CIPHER_MIX)


# -- cli-small -----------------------------------------------------------

# hostile input kind -> (command, exit code the README promises)
HOSTILE = {
    "pnm-truncated-header": ("encrypt", 1),
    "pnm-bad-magic": ("encrypt", 1),
    "pnm-non-numeric-size": ("encrypt", 1),
    "pnm-bad-maxval": ("encrypt", 1),
    "pnm-truncated-raster": ("encrypt", 1),
    "env-bad-magic": ("decrypt", 1),
    "env-bad-version": ("decrypt", 1),
    "env-bad-length": ("decrypt", 1),
    "key-file-missing": ("encrypt", 1),
    "key-name-missing": ("encrypt", 2),
    "key-name-duplicate": ("encrypt", 2),
    "key-value-non-numeric": ("encrypt", 2),
}
HOSTILE_PER_PASS = 8


def _hostile_input(kind, rng, pnm: bytes, env: bytes, key: str) -> tuple[bytes, bytes | None]:
    """(input file bytes, key file bytes or None for a missing file)."""
    header_len = pnm.index(b"255\n") + 4
    lines = key.splitlines(keepends=True)
    pick = int(rng.integers(len(lines)))
    data, key_bytes = (env if kind.startswith("env") else pnm), key.encode()
    if kind == "pnm-truncated-header":
        data = pnm[:rng.integers(1, header_len)]
    elif kind == "pnm-bad-magic":
        data = [b"P2", b"P3", b"P4", b"P7", b"XX"][rng.integers(5)] + pnm[2:]
    elif kind == "pnm-non-numeric-size":
        data = re.sub(rb"^(P[56]\s+)\d+", rb"\1w1dth", pnm)
    elif kind == "pnm-bad-maxval":
        data = pnm[:header_len - 4] + b"65535\n" + pnm[header_len:]
    elif kind == "pnm-truncated-raster":
        data = pnm[:-int(rng.integers(1, len(pnm) - header_len + 1))]
    elif kind == "env-bad-magic":
        i = int(rng.integers(4))
        data = env[:i] + bytes([env[i] ^ int(rng.integers(1, 256))]) + env[i + 1:]
    elif kind == "env-bad-version":
        data = env[:4] + bytes([int(rng.choice([0, *range(128, 256)]))]) + env[5:]
    elif kind == "env-bad-length":
        k = int(rng.integers(1, len(env) - ENVELOPE_HEADER + 1))
        data = env[:-k] if rng.random() < 0.5 else env + bytes(k)
    elif kind == "key-file-missing":
        key_bytes = None
    elif kind == "key-name-missing":
        key_bytes = "".join(lines[:pick] + lines[pick + 1:]).encode()
    elif kind == "key-name-duplicate":
        key_bytes = "".join(lines + [lines[pick]]).encode()
    elif kind == "key-value-non-numeric":
        name = lines[pick].partition("=")[0]
        lines[pick] = f"{name}={''.join(rng.choice(list('abcxyz'), 4))}\n"
        key_bytes = "".join(lines).encode()
    return data, key_bytes


def cli_small(rng, work: Path) -> Workload:
    from chaosimg import cipher

    # a fixed spread of sizes (16-96 px sides, half of them RGB), jittered by
    # a pixel so parities and odd pixel counts vary: the seed moves contents,
    # keys, order and hostile inputs but not the size mix, which sets the
    # throughput and the latency tail
    n = 48
    sides = 16 + np.round(np.arange(n) * 80 / (n - 1)).astype(int)
    heights = np.clip(sides + rng.integers(-1, 2, n), 16, 96)
    widths = np.clip(sides[(7 * np.arange(n)) % n] + rng.integers(-1, 2, n), 16, 96)
    depths = np.empty(n, int)
    depths[np.argsort(heights * widths, kind="stable")] = [1, 3] * (n // 2)
    order = rng.permutation(n)
    heights, widths, depths = heights[order], widths[order], depths[order]
    key_paths = []
    for k, key in enumerate([DEFAULT_KEY] + [near_default_key(rng) for _ in range(3)]):
        key_paths.append(work / f"small{k}.key")
        key_paths[-1].write_text(key_text(key))

    ops = []
    for i in range(n):
        plain = seeded_image(rng, depths[i], heights[i], widths[i])
        src, env, out = work / f"in{i}.pnm", work / f"in{i}.cse", work / f"out{i}.pnm"
        src.write_bytes(pnm_bytes(plain))
        key = str(key_paths[i % len(key_paths)])
        ops.append(Op("encrypt", lambda a=["encrypt", "--key", key, "--in", str(src), "--out", str(env)]:
                      cli_run(a), lambda r: r[0] == 0, plain.size))
        ops.append(Op("decrypt", lambda a=["decrypt", "--key", key, "--in", str(env), "--out", str(out)]:
                      cli_run(a), _roundtrip_check(out, plain), plain.size))
    largest = 2 * int(np.argmax(depths * heights * widths))

    base_plain = seeded_image(rng, 1, 24, 31)
    base_pnm = pnm_bytes(base_plain)
    base_env = cipher.encrypt(cipher.PlainImage.from_array(base_plain), cipher.default_keys()).to_bytes()
    default_text = key_text(DEFAULT_KEY)
    kinds = list(HOSTILE)
    slots = np.sort(rng.choice(np.arange(1, n + 1), HOSTILE_PER_PASS, replace=False))
    for h, slot in enumerate(slots[::-1]):
        kind = kinds[int(rng.integers(len(kinds)))]
        command, code = HOSTILE[kind]
        data, key_bytes = _hostile_input(kind, rng, base_pnm, base_env, default_text)
        src, key = work / f"hostile{h}.in", work / f"hostile{h}.key"
        src.write_bytes(data)
        if key_bytes is not None:
            key.write_bytes(key_bytes)
        argv = [command, "--key", str(key), "--in", str(src), "--out", str(work / f"hostile{h}.out")]
        ops.insert(2 * int(slot), Op("hostile", lambda a=argv: cli_run(a), lambda r, c=code: r[0] == c))

    # a known defect: the parser raises UnicodeDecodeError instead of exiting
    # 1 or 2, so this input runs as a probe whose outcome is reported, not as
    # an op of the loop
    bad_key = work / "non-utf8.key"
    bad_key.write_bytes(b"\xff\xfe" + default_text.encode())
    probe_argv = ["encrypt", "--key", str(bad_key), "--in", str(work / "in0.pnm"),
                  "--out", str(work / "probe.cse")]
    memory_ops = [op for op in ops if op.kind != "hostile"][largest:largest + 2]
    return Workload(ops=ops, memory_ops=memory_ops, reference_mix=CIPHER_MIX,
                    probes={"key-file-non-utf8 (want exit 1 or 2)": lambda: _probe(probe_argv)})


def _probe(argv) -> str:
    try:
        return f"exit {cli_run(argv)[0]}"
    except Exception as exc:
        return f"raised {type(exc).__name__}"


# -- dynamics ------------------------------------------------------------


def dynamics(rng, work: Path) -> Workload:
    csv = work / "analysis.csv"
    ops = []

    def analyze(kind, argv, check):
        ops.append(Op(kind, lambda a=["analyze", *argv, "--out", str(csv)]: cli_run(a),
                      lambda r: r[0] == 0 and check(csv)))

    def state():
        return ["--x0", repr(0.1 + rng.uniform(-0.05, 0.05)), "--y0", repr(0.1 + rng.uniform(-0.05, 0.05))]

    def lyapunov_ok(path):
        rows = _csv_rows(path, "r,lambda")
        return rows is not None and len(rows) == 1 and math.isfinite(rows[0][1])

    def grid(lo, hi, n):
        """One r from each of n equal strata of [lo, hi): the seed moves the
        values but not their spread, on which the cost of an op depends."""
        return [float(r) for r in lo + (np.arange(n) + rng.random(n)) * (hi - lo) / n]

    # 100 ops a cycle, so the 90th percentile has ten ops beyond it
    for r1, r2 in zip(grid(8.0, 20.0, 15), grid(2.0, 2.7, 15)):
        for m, r in ((1, r1), (2, r2)):
            analyze("lyapunov", ["lyapunov", "--map", str(m), "--r", repr(r),
                                 "--steps", "3000", *state()], lyapunov_ok)

    def bifurcate_ok(path, samples=100):
        rows = _csv_rows(path, "r,x")
        return rows is not None and len(rows) == 11 * samples

    for r1, r2 in zip(grid(4.0, 18.0, 10), grid(1.5, 2.8, 10)):
        for m, r_min, width in ((1, r1, 0.5), (2, r2, 0.25)):
            analyze("bifurcate", ["bifurcate", "--map", str(m), "--r-min", repr(r_min),
                                  "--r-max", repr(r_min + width), "--r-step", repr(width / 10.5),
                                  "--samples", "100", "--transient", "300", *state()],
                    bifurcate_ok)

    for r1, r2 in zip(grid(8.0, 20.0, 5), grid(2.0, 2.7, 5)):
        for m, r in ((1, r1), (2, r2)):
            analyze("phase", ["phase", "--map", str(m), "--r", repr(r), "--count", "3000",
                              *state()],
                    lambda p: (rows := _csv_rows(p, "x,y")) is not None and len(rows) == 3000)

    key = work / "dyn.key"
    key.write_text(key_text(near_default_key(rng)))
    shapes = [(1, 63, 47), (1, 40, 64), (1, 57, 33), (1, 64, 64), (1, 31, 49),
              (3, 48, 40), (3, 32, 32), (3, 45, 27), (3, 64, 48), (3, 33, 35)]
    for i, shape in enumerate(shapes):
        plain = seeded_image(rng, *shape)
        src, env, view, out = (work / f"q{i}.{ext}" for ext in ("pnm", "cse", "view.pnm", "out.pnm"))
        src.write_bytes(pnm_bytes(plain))
        n = plain.size

        def enc_check(r, env=env, view=view, shape=shape, n=n):
            # the cipher view: the envelope body laid out as an image
            body = env.read_bytes()[ENVELOPE_HEADER:]
            view.write_bytes(pnm_bytes(np.frombuffer(body[:n], np.uint8).reshape(shape)))
            return r[0] == 0 and len(body) == n + n % 2

        def hist_ok(path, n=n):
            rows = _csv_rows(path, "value,count")
            return rows is not None and len(rows) == 256 and sum(c for _, c in rows) == n

        def metrics_check(r, plain=plain, view=view):
            want = np.mean((plain.astype(float) - pnm_pixels(view.read_bytes())) ** 2)
            m = re.search(r"mse=([0-9.]+)", r[1])
            return r[0] == 0 and m is not None and abs(float(m[1]) - want) < 1e-3

        ops.append(Op("encrypt", lambda a=["encrypt", "--key", str(key), "--in", str(src),
                                           "--out", str(env)]: cli_run(a), enc_check, n))
        analyze("histogram", ["histogram", "--in", str(view)], hist_ok)
        ops.append(Op("metrics", lambda a=["metrics", "--a", str(src), "--b", str(view)]:
                      cli_run(a, capture=True), metrics_check))
        ops.append(Op("decrypt", lambda a=["decrypt", "--key", str(key), "--in", str(env),
                                           "--out", str(out)]: cli_run(a), _roundtrip_check(out, plain), n))
    chain = [op for op in ops if op.kind in ("encrypt", "decrypt")]
    # Lyapunov steps through maps.step, calls that a plain float loop
    # under-weights
    return Workload(ops=ops, memory_ops=chain[:2], reference_mix=(4000, 4000))


WORKLOADS = {"cipher-large": cipher_large, "cli-small": cli_small, "dynamics": dynamics}
