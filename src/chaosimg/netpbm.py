"""Binary Netpbm reader/writer: 8-bit P5 (grayscale) and P6 (RGB) only.

The raster is row-major per the format (interleaved RGB for P6); color
images are converted to the package's planar (D, H, W) layout on load.
ASCII variants and maxval != 255 are rejected.
"""

from __future__ import annotations

import numpy as np

from .cipher import ImageDims, PlainImage
from .errors import NetpbmError

_WHITESPACE = b" \t\n\r\x0b\x0c"
MAX_NUMBER = 2**32 - 1  # the envelope stores height and width as uint32


def _skip_space(data: bytes, pos: int) -> int:
    while pos < len(data):
        c = data[pos:pos + 1]
        if c in (b"#",):
            while pos < len(data) and data[pos] not in (0x0A, 0x0D):
                pos += 1
        elif c and c in _WHITESPACE:
            pos += 1
        else:
            break
    return pos


def _read_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    pos = _skip_space(data, pos)
    start = pos
    while pos < len(data) and data[pos:pos + 1] not in _WHITESPACE and data[pos] != ord("#"):
        pos += 1
    token = data[start:pos]
    if not token:
        raise NetpbmError(f"missing {what} token", start)
    if not token.isdigit():
        raise NetpbmError(f"non-numeric {what} token {token!r}", start)
    digits = token.lstrip(b"0") or b"0"  # sized first: int() refuses > 4300 digits
    if len(digits) > len(str(MAX_NUMBER)) or int(digits) > MAX_NUMBER:
        raise NetpbmError(f"{what} is above {MAX_NUMBER:,}", start)
    return int(digits), pos


def read_image(data: bytes) -> PlainImage:
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise NetpbmError(f"bad magic {magic!r}, want P5 or P6", 0)
    depth = 1 if magic == b"P5" else 3
    width, pos = _read_int(data, 2, "width")
    height, pos = _read_int(data, pos, "height")
    maxval, pos = _read_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise NetpbmError(f"bad dimensions {width}x{height}", 2)
    if maxval != 255:
        raise NetpbmError(f"unsupported maxval {maxval} (only 8-bit)", pos)
    if pos >= len(data) or data[pos:pos + 1] not in _WHITESPACE:
        raise NetpbmError("expected single whitespace before raster", pos)
    pos += 1
    n = width * height * depth
    raster = data[pos:pos + n]
    if len(raster) < n:
        raise NetpbmError(
            f"truncated raster: have {len(raster)} of {n} bytes", pos + len(raster)
        )
    arr = np.frombuffer(raster, dtype=np.uint8)
    if depth == 1:
        pixels = arr.reshape(1, height, width)
    else:
        pixels = arr.reshape(height, width, 3).transpose(2, 0, 1)
    return PlainImage(dims=ImageDims(depth, height, width), pixels=pixels)


def write_image(img: PlainImage) -> bytes:
    d = img.dims
    kind = b"P5" if d.depth == 1 else b"P6"
    header = kind + b"\n" + f"{d.width} {d.height}".encode() + b"\n255\n"
    if d.depth == 1:
        raster = img.pixels.reshape(d.height, d.width).tobytes()
    else:
        raster = np.ascontiguousarray(img.pixels.transpose(1, 2, 0)).tobytes()
    return header + raster
