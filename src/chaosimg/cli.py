"""Command-line front end.

    chaosimg encrypt --key k.txt --in plain.pgm --out cipher.cse
    chaosimg decrypt --key k.txt --in cipher.cse --out plain.pgm
    chaosimg metrics --a plain.pgm --b cipher.pgm
    chaosimg analyze bifurcate|lyapunov|phase|histogram ... --out data.csv

`metrics` prints mse= and psnr=, then --b's chi2= and adjacent-pixel corr_h=
and corr_v= (nan if undefined: under 2 pixels that way, or zero variance).

Exit codes: 0 success; 2 for a bad key file (including one that is not
UTF-8 or is over 64 KiB) or an invalid value (ValueError), such as a
bifurcation sweep of more than 10^8 iterates, transients included; 1 for
any other chaosimg error, an OS error (missing file, malformed image or
envelope) or running out of memory.

`--in`, `--a` and `--b` are read only as far as the header says the image or
envelope reaches (an envelope one byte further, to refuse a longer one), in
reads of at most 64 KiB, so an endless input costs no more than its header.
A Netpbm header must end within the file's first MiB, which is read (or the
whole file, if shorter) and matched once; a longer header exits 1.
An existing `--out` file is written over and then cut to length, not emptied
first (`outfile.open_over`).

The argparse parser is built once per process, on the first `main` call, and
shared by every later call; callers must not modify it. Its 9 parsers and 50
actions (39 options, nine `-h` and two sub-command groups) cost more to build
than the rest of a `main` call on a small image, and `import chaosimg` loads
neither argparse nor this module. Each call is parsed once, by the parser of
its command path (`analyze lyapunov`, say), not once per level of the tree;
so an extra token is reported with that sub-command's usage line.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace

from . import analysis, netpbm
from .cipher import ENVELOPE_HEADER_SIZE, CipherEnvelope, decrypt, encrypt, envelope_length
from .errors import (ChaosImgError, DimensionError, KeyFileError, MalformedEnvelopeError,
                     NetpbmError)
from .keyfile import load_key_file
from .maps import MapParams, default_map1, default_map2
from .outfile import open_over

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
_MAP_FLOATS = ("r", "a", "b", "x0", "y0")  # MapParams fields settable by flag
# the largest single read of an input file: below glibc's 128 KiB mmap
# threshold, so reading a small file maps and unmaps no memory
_CHUNK = 1 << 16
# a Netpbm header must end within this many bytes of an input file; real
# headers take a few dozen, and an endless one would otherwise be read on
_MAX_HEADER = 1 << 20


def _fail(message: str, code: int) -> int:
    print(f"chaosimg: error: {message}", file=sys.stderr)
    return code


def _read(fh, size: int) -> bytes:
    """At most `size` more bytes of `fh`, in reads of at most `_CHUNK`: a
    size that a header states costs no more memory than the file holds."""
    chunks = []
    while size > 0 and (chunk := fh.read(min(size, _CHUNK))):
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _load_image(path):
    """The first image of a Netpbm file, whose header must end within its
    first `_MAX_HEADER` bytes. Reading stops at the end of the raster, or
    after those bytes if that is further."""
    with open(path, "rb") as fh:
        data = _read(fh, _MAX_HEADER)
        if len(data) == _MAX_HEADER:  # else data is the whole file, which read_image parses
            length = netpbm.image_length(data)
            if length is None:
                raise NetpbmError(f"header does not end within {_MAX_HEADER:,} bytes", len(data))
            data += _read(fh, length - len(data))
    return netpbm.read_image(data)


def _load_envelope(path) -> CipherEnvelope:
    """The envelope in a file, read no further than one byte past the body
    that its header states."""
    with open(path, "rb") as fh:
        data = fh.read(ENVELOPE_HEADER_SIZE)
        length = envelope_length(data)
        data += _read(fh, length + 1 - len(data))
    envelope = CipherEnvelope.from_bytes(data[:length])
    if len(data) > length:
        raise MalformedEnvelopeError(
            f"envelope is longer than the {length:,} bytes its header states"
        )
    return envelope


def _cmd_encrypt(args) -> None:
    keys = load_key_file(args.key)
    envelope = encrypt(_load_image(args.infile), keys)
    with open_over(args.outfile) as fh:
        fh.write(envelope.to_bytes())


def _cmd_decrypt(args) -> None:
    keys = load_key_file(args.key)
    image = decrypt(_load_envelope(args.infile), keys)
    with open_over(args.outfile) as fh:
        fh.write(netpbm.write_image(image))


def _cmd_metrics(args) -> None:
    a, b = _load_image(args.a), _load_image(args.b)
    mse_value = analysis.mse(a, b)
    psnr_value = analysis.psnr(mse_value)
    print(f"mse={mse_value:.3f}")
    print("psnr=inf" if math.isinf(psnr_value) else f"psnr={psnr_value:.3f}")
    print(f"chi2={analysis.chi_square_uniformity(analysis.histogram(b)):.3f}")
    for name, direction in (("corr_h", "horizontal"), ("corr_v", "vertical")):
        try:
            corr = analysis.adjacent_correlation(b, direction)
        except (DimensionError, ValueError):  # undefined
            corr = math.nan
        print(f"{name}={corr:.6f}")


def _map_params(args) -> MapParams:
    """The chosen map's parameters with the flags given; Map 1 has no a or b."""
    given = {k: v for k in (*_MAP_FLOATS, "transient") if (v := vars(args).get(k)) is not None}
    if args.map == 1 and (ignored := [f"--{k}" for k in ("a", "b") if k in given]):
        raise ValueError(f"Map 1 has no {' or '.join(ignored)}")
    return replace(default_map1() if args.map == 1 else default_map2(), **given)


def _cmd_bifurcate(args) -> None:
    sweep = analysis.bifurcation_sweep(
        _map_params(args), args.r_min, args.r_max, args.r_step, samples=args.samples
    )
    analysis.write_bifurcation_csv(args.out, sweep)


def _cmd_lyapunov(args) -> None:
    params = _map_params(args)
    lam = analysis.lyapunov_exponent(params, steps=args.steps)
    analysis.write_lyapunov_csv(args.out, [(params.r, lam)])


def _cmd_phase(args) -> None:
    analysis.write_phase_csv(args.out, analysis.phase_points(_map_params(args), count=args.count))


def _cmd_histogram(args) -> None:
    analysis.write_histogram_csv(args.out, analysis.histogram(_load_image(args.infile)))


def _add_map_flags(parser: argparse.ArgumentParser, floats=_MAP_FLOATS) -> None:
    """Map selection; an omitted parameter keeps the map's default."""
    parser.add_argument("--map", type=int, choices=(1, 2), default=1)
    for name in floats:
        parser.add_argument(f"--{name}", type=float)
    parser.add_argument("--transient", type=int)


def build_parser() -> argparse.ArgumentParser:
    """The `chaosimg` parser, built on the first call and returned by every
    later one: callers share it and must not modify it. `parse_args` leaves
    it as it is, so concurrent and repeated calls see the same parser."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[tuple[str, ...], argparse.ArgumentParser]]:
    """The `chaosimg` parser, and the sub-parser of each command path that it
    defines: `encrypt`, `decrypt`, `metrics` and `analyze` with an analysis."""
    parser = argparse.ArgumentParser(prog="chaosimg")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encrypt", help="encrypt a P5/P6 image into an envelope")
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt an envelope back to a P5/P6 image")
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_decrypt)

    p = sub.add_parser("metrics", help="MSE/PSNR, then --b's chi-square and adjacent correlations")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("analyze", help="dynamics and histogram CSV reports")
    asub = p.add_subparsers(dest="analysis", required=True)

    pb = asub.add_parser("bifurcate")
    _add_map_flags(pb, _MAP_FLOATS[1:])  # no --r: the sweep takes r from its grid
    pb.add_argument("--r-min", type=float, required=True)
    pb.add_argument("--r-max", type=float, required=True)
    pb.add_argument("--r-step", type=float, required=True)
    pb.add_argument("--samples", type=int, default=200)
    pb.add_argument("--out", required=True)
    pb.set_defaults(func=_cmd_bifurcate)

    pl = asub.add_parser("lyapunov")
    _add_map_flags(pl)
    pl.add_argument("--steps", type=int, default=10000)
    pl.add_argument("--out", required=True)
    pl.set_defaults(func=_cmd_lyapunov)

    pp = asub.add_parser("phase")
    _add_map_flags(pp)
    pp.add_argument("--count", type=int, default=1000)
    pp.add_argument("--out", required=True)
    pp.set_defaults(func=_cmd_phase)

    ph = asub.add_parser("histogram")
    ph.add_argument("--in", dest="infile", required=True)
    ph.add_argument("--out", required=True)
    ph.set_defaults(func=_cmd_histogram)

    paths = {(name,): q for name, q in sub.choices.items() if name != "analyze"}
    paths.update({("analyze", name): q for name, q in asub.choices.items()})
    return parser, paths


def _parse(argv=None) -> argparse.Namespace:
    """`argv` parsed in one pass, by the sub-parser of the command path it
    starts with: the values, exit code and messages of the whole tree's
    parse, without its `command` and `analysis`. An extra token is reported
    with the sub-command's usage line. Any other argv, such as `analyze`
    alone, `-h` or a typo, goes to the whole tree."""
    argv = sys.argv[1:] if argv is None else list(argv)
    paths = _parsers()[1]
    for n in (1, 2):
        if (parser := paths.get(tuple(argv[:n]))) is not None:
            return parser.parse_args(argv[n:])
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        args.func(args)
    except (KeyFileError, ValueError) as exc:
        return _fail(str(exc), EXIT_VALIDATION)
    except (ChaosImgError, OSError) as exc:
        return _fail(str(exc), EXIT_IO)
    except MemoryError:
        return _fail("out of memory", EXIT_IO)
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
