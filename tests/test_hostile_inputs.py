"""Untrusted inputs: for any bytes or text, the Netpbm reader, the envelope
parser and the key-file parser return a valid object or raise ChaosImgError,
and nothing else.

Each strategy builds an input from drawn fields, all in range or not, and
then may corrupt it, so that both outcomes are reached."""

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from chaosimg.cipher import ENVELOPE_MAGIC, ENVELOPE_VERSION, CipherEnvelope, KeyMaterial
from chaosimg.errors import ChaosImgError
from chaosimg.keyfile import FLOAT_KEYS, parse_key_text
from chaosimg.netpbm import read_image

# digit runs past the 4300 digits that int() converts by default
long_digits = st.builds(
    lambda digit, n: digit * n, st.sampled_from(["0", "1", "9"]), st.integers(4290, 6000)
)


@st.composite
def corrupted(draw, data):
    """`data`, or `data` cut short, extended, or with one byte replaced."""
    how = draw(st.sampled_from(["keep", "keep", "cut", "extend", "replace"]))
    if how == "cut":
        return data[:draw(st.integers(0, len(data)))]
    if how == "extend":
        return data + draw(st.binary(min_size=1, max_size=8))
    if how == "replace" and data:
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1:]
    return data


def returns_or_raises_chaosimg_error(parse, data):
    try:
        return parse(data)
    except ChaosImgError:
        return None


header_number = st.one_of(st.integers(0, 5).map(str), st.integers(0, 2**40).map(str),
                          long_digits)


@st.composite
def netpbm_bytes(draw):
    valid = draw(st.booleans())
    magic = draw(st.sampled_from([b"P5", b"P6"]))
    side = st.integers(1, 5).map(str) if valid else header_number
    width, height = draw(side), draw(side)
    maxval = "255" if valid else draw(st.sampled_from(["255", "65535", "0"]))
    sep = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"\n# note\n"])
    header = magic
    for token in (width, height, maxval):
        header += draw(sep) + token.encode()
    size = min(int(width[:6]), 8) * min(int(height[:6]), 8) * (1 if magic == b"P5" else 3)
    raster = draw(st.binary(min_size=size, max_size=size))
    return draw(corrupted(header + b"\n" + raster))


@settings(max_examples=400, deadline=None)
@given(data=st.one_of(netpbm_bytes(), st.binary(max_size=64)))
def test_read_image_returns_an_image_or_a_chaosimg_error(data):
    img = returns_or_raises_chaosimg_error(read_image, data)
    if img is not None:
        d = img.dims
        assert img.pixels.shape == (d.depth, d.height, d.width)


@st.composite
def envelope_bytes(draw):
    valid = draw(st.booleans())
    depth = draw(st.sampled_from([1, 3] if valid else [1, 3, 0, 2]))
    side = st.integers(1, 4) if valid else st.one_of(st.integers(0, 4), st.just(2**32 - 1))
    height, width = draw(side), draw(side)
    count = depth * height * width
    pad = count % 2 if valid else draw(st.sampled_from([count % 2, 1 - count % 2, 255]))
    header = struct.pack(
        ">4sBBIIB",
        ENVELOPE_MAGIC if valid else draw(st.sampled_from([ENVELOPE_MAGIC, b"CSE2"])),
        ENVELOPE_VERSION if valid else draw(st.sampled_from([ENVELOPE_VERSION, 2])),
        depth, height, width, pad,
    )
    body_len = min(count + count % 2, 64)
    return draw(corrupted(header + draw(st.binary(min_size=body_len, max_size=body_len))))


@settings(max_examples=400, deadline=None)
@given(data=st.one_of(envelope_bytes(), st.binary(max_size=64)))
def test_from_bytes_returns_an_envelope_or_a_chaosimg_error(data):
    env = returns_or_raises_chaosimg_error(CipherEnvelope.from_bytes, data)
    if env is not None:
        assert env.to_bytes() == data


finite_text = st.floats(allow_nan=False, allow_infinity=False).map(repr)
small_transient_text = st.integers(0, 2000).map(str)
float_text = st.one_of(
    finite_text,
    st.sampled_from(["", "inf", "-inf", "nan", "1e999", "0x10", "1_000", " 7 "]),
    long_digits,
    st.text(max_size=8),
)
transient_text = st.one_of(
    small_transient_text, st.integers(-(2**70), 2**70).map(str), long_digits,
    st.text(max_size=8),
)


@st.composite
def key_text(draw):
    valid = draw(st.booleans())
    lines = [f"{name}={draw(finite_text if valid else float_text)}" for name in FLOAT_KEYS]
    lines.append(f"transient={draw(small_transient_text if valid else transient_text)}")
    lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# note"])))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    return draw(corrupted(text.encode())).decode("utf-8", "replace")


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(key_text(), st.text(max_size=64)))
def test_parse_key_text_returns_keys_or_a_chaosimg_error(text):
    keys = returns_or_raises_chaosimg_error(parse_key_text, text)
    if keys is not None:
        assert isinstance(keys, KeyMaterial)
        for params in (keys.map1, keys.map2):
            assert all(math.isfinite(v) for v in (params.r, params.a, params.b,
                                                  params.x0, params.y0))
