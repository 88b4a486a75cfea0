"""The libm contract of envelope version 0x01.

Map 1 calls `math.sin`, `math.cos` and `math.tanh` on every iterate, and
1000 chaotic transient iterations magnify a 1-ulp difference into a
different orbit. The golden vectors were made with glibc 2.36 on x86-64,
whose results are not all correctly rounded. This test pins the bits of
the three functions, so that a host whose libm rounds differently fails
here, with the reason, before the golden digests fail.
"""

import hashlib
import math

import numpy as np

# Map 1's x range, then y's range on large images; uniform draws are
# additions and multiplications, so their bits do not depend on libm
INPUTS = np.concatenate([
    np.random.default_rng(20261018).uniform(-2.0, 2.0, 128),
    np.random.default_rng(20261019).uniform(-1e5, 1e5, 128),
    # inputs at which glibc 2.36's sin (first four) and cos (last four)
    # are not correctly rounded, so a correctly rounded libm fails too
    [float.fromhex(h) for h in (
        "-0x1.2197ac98fe8d4p+0", "0x1.08c8eef4bcde0p-4", "-0x1.918fc63488a54p-1",
        "-0x1.5e7fa7409e608p-1", "-0x1.4cc4d6566bee6p+0", "-0x1.6e971a8e7f706p+0",
        "-0x1.492383c539318p+0", "-0x1.c0b09f71bbee0p+0")],
])
INPUTS_SHA256 = "fc690af7e45f12e22a2d91eb92172e1b480f08a5fdb28268cd34957e38404201"

# SHA-256 of each function's little-endian float64 results at INPUTS
OUTPUTS_SHA256 = {
    "sin": "63270fac1b9535562f8e661bfe2919ed7f0c8ef3d1d786f3aed8bfc18694987b",
    "cos": "9ce53a871b5b1aa4c688dd1dafc848d9ad1cba2b2af8e4b36b870f602fdd48e5",
    "tanh": "de3c810678305c802d593d695ca4adbfe0125cb55813ef0c4f60d846779d6f6c",
}


def sha256(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


def test_libm_rounds_as_on_the_golden_host():
    assert sha256(INPUTS) == INPUTS_SHA256, "the test inputs changed, not libm"
    differ = [name for name, digest in OUTPUTS_SHA256.items()
              if sha256([getattr(math, name)(v) for v in INPUTS.tolist()]) != digest]
    assert not differ, (
        f"this libm's {', '.join(differ)} rounds differently from glibc 2.36 on x86-64: "
        "version 0x01 ciphertexts made there will not match this host, and this "
        "host's will not decrypt there"
    )
