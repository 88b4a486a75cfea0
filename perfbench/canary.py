"""Seed-independent canaries with pinned SHA-256 digests.

The ciphertext digests were recorded from the pure-Python keystream path
and pin it bit for bit: a faster map kernel or argsort must reproduce
them. The images are built from integer arithmetic only, so the inputs do
not depend on a random generator or on libm.

    python3 perfbench/canary.py     # print the digests of the current code
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

PINNED = {
    "gray256-structured/default": "88b4e3dd298bdb05527a05d875973c35f689cc116ff40a4812d4b322c98f7804",
    "rgb512/default": "c687e4aa36bc5556e881e06c5526145bd1a913f50ada4fc83869a97635dda239",
    "gray64x48/k1": "ed69061cf5fdbbf8166ca95c6e05cc85dbde85879dff71ca6db085ab45db2033",
    "gray64x48/k2": "c84cec01c8bd68c6d3f03e64bc0d21cc87326ce5f57e7d71c9a88279662ce4b3",
    "gray64x48/k3": "2f0e1804dbd9d044b0fe7182ce71ade549890558cab69eb9108883562e76fb8d",
    "lyapunov/map1": "da263c71d4c82546437fa41a0715ecbfb62c4822dd8eb86638308c55bc2466ed",
    "lyapunov/map2": "1bae0190f685e6b39406591d9d3a02115fb0f9abd4e4182c7e69c7c7fa1bcf09",
    "bifurcate/map1": "925cedb34ad9ac8576f5969ece60a443258090cc4c79822adca31c98390bad37",
    "bifurcate/map2": "3c6817e84144a11142014a01c9d350c57584a1829fa0e42b23fc7f68104e12cf",
}

# key sets near the defaults: map1 (r, x0, y0), map2 (r, a, b, x0, y0), transient
KEY_SETS = {
    "k1": ((17.25, 0.11, 0.12), (2.36, 0.5, 0.3, 0.13, 0.14), 1000),
    "k2": ((16.5, 0.2, 0.05), (2.3, 0.45, 0.35, 0.07, 0.21), 1000),
    "k3": ((18.0, 0.3, 0.3), (2.4, 0.55, 0.25, 0.3, 0.02), 500),
}

CSV_ARGS = {
    "lyapunov/map1": ["lyapunov", "--map", "1", "--r", "17.0", "--steps", "2000"],
    "lyapunov/map2": ["lyapunov", "--map", "2", "--r", "2.35", "--steps", "2000"],
    "bifurcate/map1": ["bifurcate", "--map", "1", "--r-min", "5", "--r-max", "6",
                       "--r-step", "0.25", "--samples", "40", "--transient", "300"],
    "bifurcate/map2": ["bifurcate", "--map", "2", "--r-min", "1.5", "--r-max", "3",
                       "--r-step", "0.5", "--samples", "40", "--transient", "300"],
}


def gray256_structured() -> np.ndarray:
    """Gradient with a bright disc and a mid-gray block, like a scan."""
    i, j = np.mgrid[0:256, 0:256]
    img = 20 + (i + j) // 4
    img[(i - 128) ** 2 + (j - 128) ** 2 < 48 ** 2] = 230
    img[32:64, 32:128] = 90
    return img.astype(np.uint8)


def rgb512() -> np.ndarray:
    i, j = np.mgrid[0:512, 0:512]
    return np.stack([(3 * i + j) & 255, (i ^ j) & 255, ((i * j) >> 6) & 255]).astype(np.uint8)


def gray64x48() -> np.ndarray:
    i, j = np.mgrid[0:64, 0:48]
    return ((7 * i + 13 * j + i * j) & 255).astype(np.uint8)


def _keys(cipher, maps, spec):
    (r1, x1, y1), (r2, a, b, x2, y2), transient = spec
    return cipher.KeyMaterial(
        map1=maps.MapParams(map_id=maps.MapId.MAP1, r=r1, x0=x1, y0=y1, transient=transient),
        map2=maps.MapParams(map_id=maps.MapId.MAP2, r=r2, a=a, b=b, x0=x2, y0=y2,
                            transient=transient),
    )


def digests(workdir: Path) -> dict[str, str]:
    """Digest of each canary output under the code now imported."""
    from chaosimg import cipher, cli, maps

    def enc(pixels, keys):
        env = cipher.encrypt(cipher.PlainImage.from_array(pixels), keys)
        return hashlib.sha256(env.to_bytes()).hexdigest()

    out = {
        "gray256-structured/default": enc(gray256_structured(), cipher.default_keys()),
        "rgb512/default": enc(rgb512(), cipher.default_keys()),
    }
    for name, spec in KEY_SETS.items():
        out[f"gray64x48/{name}"] = enc(gray64x48(), _keys(cipher, maps, spec))
    csv_path = workdir / "canary.csv"
    for name, argv in CSV_ARGS.items():
        rc = cli.main(["analyze", *argv, "--out", str(csv_path)])
        out[name] = hashlib.sha256(csv_path.read_bytes()).hexdigest() if rc == 0 else f"exit {rc}"
    return out


def check(workdir: Path) -> dict[str, bool]:
    """Canary name -> whether its output matches the pinned digest."""
    try:
        got = digests(workdir)
    except Exception as exc:  # a crash fails every canary, the run goes on
        print(f"canary run raised {exc!r}", file=sys.stderr)
        return {name: False for name in PINNED}
    return {name: got.get(name) == want for name, want in PINNED.items()}


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        for name, digest in digests(Path(tmp)).items():
            print(f'    "{name}": "{digest}",')
