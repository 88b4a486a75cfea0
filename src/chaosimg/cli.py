"""Command-line front end.

    chaosimg encrypt --key k.txt --in plain.pgm --out cipher.cse
    chaosimg decrypt --key k.txt --in cipher.cse --out plain.pgm
    chaosimg metrics --a plain.pgm --b cipher.pgm
    chaosimg analyze bifurcate|lyapunov|phase|histogram ... --out data.csv

Exit codes: 0 success; 2 for a bad key file (including one that is not
UTF-8) or an invalid value (ValueError); 1 for any other chaosimg error or
an OS error (missing file, malformed image or envelope).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from . import analysis, netpbm
from .cipher import CipherEnvelope, decrypt, encrypt
from .errors import ChaosImgError, KeyFileError
from .keyfile import load_key_file
from .maps import MapParams, default_map1, default_map2

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
_MAP_FLOATS = ("r", "a", "b", "x0", "y0")  # MapParams fields settable by flag


def _fail(message: str, code: int) -> int:
    print(f"chaosimg: error: {message}", file=sys.stderr)
    return code


def _load_image(path):
    with open(path, "rb") as fh:
        return netpbm.read_image(fh.read())


def _cmd_encrypt(args) -> None:
    keys = load_key_file(args.key)
    envelope = encrypt(_load_image(args.infile), keys)
    with open(args.outfile, "wb") as fh:
        fh.write(envelope.to_bytes())


def _cmd_decrypt(args) -> None:
    keys = load_key_file(args.key)
    with open(args.infile, "rb") as fh:
        envelope = CipherEnvelope.from_bytes(fh.read())
    image = decrypt(envelope, keys)
    with open(args.outfile, "wb") as fh:
        fh.write(netpbm.write_image(image))


def _cmd_metrics(args) -> None:
    mse_value = analysis.mse(_load_image(args.a), _load_image(args.b))
    psnr_value = analysis.psnr(mse_value)
    print(f"mse={mse_value:.3f}")
    print("psnr=inf" if math.isinf(psnr_value) else f"psnr={psnr_value:.3f}")


def _map_params(args) -> MapParams:
    params = default_map1() if args.map == 1 else default_map2()
    given = {k: getattr(args, k) for k in (*_MAP_FLOATS, "transient")}
    return replace(params, **{k: v for k, v in given.items() if v is not None})


def _cmd_analyze(args) -> None:
    if args.analysis == "bifurcate":
        params = _map_params(args)
        sweep = analysis.bifurcation_sweep(
            params, args.r_min, args.r_max, args.r_step,
            transient=params.transient, samples=args.samples,
        )
        analysis.write_bifurcation_csv(args.out, sweep)
    elif args.analysis == "lyapunov":
        if args.r is None:
            raise ValueError("lyapunov requires --r")
        lam = analysis.lyapunov_exponent(_map_params(args), steps=args.steps)
        analysis.write_lyapunov_csv(args.out, [(args.r, lam)])
    elif args.analysis == "phase":
        points = analysis.phase_points(_map_params(args), count=args.count)
        analysis.write_phase_csv(args.out, points)
    else:  # histogram
        hist = analysis.histogram(_load_image(args.infile))
        analysis.write_histogram_csv(args.out, hist)


def _add_map_flags(parser: argparse.ArgumentParser) -> None:
    """Map selection; an omitted parameter keeps the map's default."""
    parser.add_argument("--map", type=int, choices=(1, 2), default=1)
    for name in _MAP_FLOATS:
        parser.add_argument(f"--{name}", type=float)
    parser.add_argument("--transient", type=int)


def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("metrics", help="print MSE/PSNR between two images")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("analyze", help="dynamics and histogram CSV reports")
    asub = p.add_subparsers(dest="analysis", required=True)

    pb = asub.add_parser("bifurcate")
    _add_map_flags(pb)
    pb.add_argument("--r-min", type=float, required=True)
    pb.add_argument("--r-max", type=float, required=True)
    pb.add_argument("--r-step", type=float, required=True)
    pb.add_argument("--samples", type=int, default=200)
    pb.add_argument("--out", required=True)
    pb.set_defaults(func=_cmd_analyze)

    pl = asub.add_parser("lyapunov")
    _add_map_flags(pl)
    pl.add_argument("--steps", type=int, default=10000)
    pl.add_argument("--out", required=True)
    pl.set_defaults(func=_cmd_analyze)

    pp = asub.add_parser("phase")
    _add_map_flags(pp)
    pp.add_argument("--count", type=int, default=1000)
    pp.add_argument("--out", required=True)
    pp.set_defaults(func=_cmd_analyze)

    ph = asub.add_parser("histogram")
    ph.add_argument("--in", dest="infile", required=True)
    ph.add_argument("--out", required=True)
    ph.set_defaults(func=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (KeyFileError, ValueError) as exc:
        return _fail(str(exc), EXIT_VALIDATION)
    except (ChaosImgError, OSError) as exc:
        return _fail(str(exc), EXIT_IO)
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
