"""Binary Netpbm reader/writer: 8-bit P5 (grayscale) and P6 (RGB) only.

The raster is row-major per the format (interleaved RGB for P6); an image
read from it holds its pixels as a (D, H, W) view of the raster, the
package's planar layout, without a copy. ASCII variants and maxval != 255
are rejected.
"""

from __future__ import annotations

import re

import numpy as np

from .cipher import ImageDims, PlainImage
from .errors import NetpbmError

MAX_NUMBER = 2**32 - 1  # the envelope stores height and width as uint32
# The magic; width, height and maxval, each after whitespace and `#` comments
# (to CR or LF); the byte before the raster. In bytes, \s is exactly the six
# Netpbm whitespace bytes. The possessive *+ keeps no backtracking state per
# skipped comment, so time and memory stay linear in the header.
_HEADER = re.compile(rb"P[56]" + rb"(?:\s+|#[^\n\r]*)*+([^\s#]*)" * 3 + rb"(\s?)")
_QUOTED = 32  # bytes of a bad token that its message quotes: it can be megabytes long


def _parse_header(data: bytes, header: re.Match | None) -> tuple[ImageDims, int]:
    """The dimensions that the complete header `header` of `data` states,
    and the offset of the raster."""
    if header is None:
        raise NetpbmError(f"bad magic {data[:2]!r}, want P5 or P6", 0)
    numbers = []
    for group, what in enumerate(("width", "height", "maxval"), start=1):
        token, start = header[group], header.start(group)
        if not token:
            raise NetpbmError(f"missing {what} token", start)
        if not token.isdigit():
            raise NetpbmError(
                f"non-numeric {what} token of {len(token):,} bytes starting "
                f"{token[:_QUOTED]!r}", start
            )
        digits = token.lstrip(b"0") or b"0"  # sized first: int() refuses > 4300 digits
        if len(digits) > len(str(MAX_NUMBER)) or int(digits) > MAX_NUMBER:
            raise NetpbmError(f"{what} is above {MAX_NUMBER:,}", start)
        numbers.append(int(digits))
    width, height, maxval = numbers
    depth = 1 if data[:2] == b"P5" else 3
    pos = header.start(4)
    if width < 1 or height < 1:
        raise NetpbmError(f"bad dimensions {width}x{height}", 2)
    if maxval != 255:
        raise NetpbmError(f"unsupported maxval {maxval} (only 8-bit)", pos)
    if not header[4]:
        raise NetpbmError("expected single whitespace before raster", pos)
    return ImageDims(depth, height, width), pos + 1


def image_length(data: bytes) -> int | None:
    """The length, header and raster, of the image that `data` starts with,
    or None while `data` may end inside the header: more bytes could still
    change it. A complete header that is wrong raises as in `read_image`."""
    # every part of the pattern stops at a byte it refuses or at the end, and
    # no part ever backtracks, so a match that ends before the end is final
    header = _HEADER.match(data)
    if len(data) < 2 or header is not None and header.end() == len(data):
        return None
    dims, pos = _parse_header(data, header)
    return pos + dims.pixel_count


def read_image(data: bytes) -> PlainImage:
    dims, pos = _parse_header(data, _HEADER.match(data))
    n = dims.pixel_count
    raster = data[pos:pos + n]
    if len(raster) < n:
        raise NetpbmError(
            f"truncated raster: have {len(raster)} of {n} bytes", pos + len(raster)
        )
    # a (depth, height, width) view of the raster, not a copy
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(dims.height, dims.width, dims.depth)
    return PlainImage(dims=dims, pixels=pixels.transpose(2, 0, 1))


def write_image(img: PlainImage) -> bytes:
    d = img.dims
    kind = b"P5" if d.depth == 1 else b"P6"
    header = kind + b"\n" + f"{d.width} {d.height}".encode() + b"\n255\n"
    # one contiguous copy when the pixels are a view of a raster, as
    # `read_image` and `cipher.decrypt` make them
    return header + img.pixels.transpose(1, 2, 0).tobytes()
