import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaosimg.errors import NetpbmError
from chaosimg.netpbm import MAX_NUMBER, image_length, read_image, write_image
from conftest import random_image

_WHITESPACE = b" \t\n\r\x0b\x0c"


def _skip_space(data, pos):
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


def _read_int(data, pos, what):
    pos = _skip_space(data, pos)
    start = pos
    while pos < len(data) and data[pos:pos + 1] not in _WHITESPACE and data[pos] != ord("#"):
        pos += 1
    token = data[start:pos]
    if not token:
        raise NetpbmError(f"missing {what} token", start)
    if not token.isdigit():
        raise NetpbmError(  # the reader quotes at most 32 bytes of a token
            f"non-numeric {what} token of {len(token):,} bytes starting {token[:32]!r}", start
        )
    digits = token.lstrip(b"0") or b"0"
    if len(digits) > len(str(MAX_NUMBER)) or int(digits) > MAX_NUMBER:
        raise NetpbmError(f"{what} is above {MAX_NUMBER:,}", start)
    return int(digits), pos


def reference_read(data):
    """The header read one byte at a time, as the reader once did: the
    oracle of the compiled pattern. Returns (dims, raster bytes)."""
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
    return (depth, height, width), raster


def outcome(read, data):
    try:
        return read(data)
    except NetpbmError as exc:
        return str(exc), exc.offset


def new_read(data):
    img = read_image(data)
    d = img.dims
    raster = img.pixels.transpose(1, 2, 0).tobytes()  # back to interleaved
    return (d.depth, d.height, d.width), raster


whitespace = st.sampled_from([bytes([c]) for c in _WHITESPACE])
comment = st.builds(  # ended by LF or CR here; by EOF when a cut lands in it
    lambda text, end: b"#" + text + end,
    st.binary(max_size=6).map(lambda b: b.replace(b"\n", b"").replace(b"\r", b"")),
    st.sampled_from([b"\n", b"\r"]),
)
separator = st.lists(st.one_of(whitespace, comment), min_size=1, max_size=3).map(b"".join)


def digits(values):
    """Numbers from `values`, with none, a few or over 4300 leading zeros."""
    return st.builds(lambda zeros, value: b"0" * zeros + str(value).encode(),
                     st.sampled_from([0, 0, 0, 1, 2, 4301]), values)


hostile = st.one_of(
    digits(st.sampled_from([0, 255, 256, 65535, 2**32 - 1, 2**32, 2**33 + 7])),
    st.sampled_from([b"", b"9" * 4301, b"0" * 4400 + b"2", b"-1", b"+2"]),
    st.binary(min_size=1, max_size=3),  # non-digit bytes, whitespace and `#` too
)


@st.composite
def header_and_raster(draw):
    """A valid header and raster, or one with a field or more replaced, or
    either cut short."""
    def field(good):
        return draw(hostile) if draw(st.integers(0, 4)) == 0 else draw(good)
    data = draw(st.sampled_from([b"P5", b"P6"] * 4 + [b"P3"]))
    for good in (digits(st.integers(1, 4)), digits(st.integers(1, 4)), digits(st.just(255))):
        data += draw(separator) + field(good)
    data += draw(st.sampled_from([b"\n"] * 6 + [bytes([c]) for c in _WHITESPACE]
                                 + [b"", b"#", b"# x\n"]))  # the byte before the raster
    data += bytes(range(draw(st.integers(0, 50))))  # 4x4 P6 needs 48: sometimes short
    return data[:draw(st.integers(2, len(data)))] if draw(st.integers(0, 5)) == 0 else data


@settings(max_examples=500, deadline=None)
@given(data=header_and_raster())
@example(data=b"P5\x0b1\x0b1\x0b255\x0b\x07")
@example(data=b"P6 #c\r2#\r1 255\n" + bytes(6))
@example(data=b"P5 1 1 255#")
def test_header_matches_the_byte_at_a_time_reader(data):
    assert outcome(new_read, data) == outcome(reference_read, data)


@settings(max_examples=300, deadline=None)
@given(data=header_and_raster(), cut=st.floats(0, 1))
def test_image_length_of_a_prefix_is_final(data, cut):
    """What `image_length` says of a prefix, unless None, it says of the
    whole input, and reading as far as it says gives the whole input's
    image or error. So a reader may stop there."""
    prefix = outcome(image_length, data[:round(cut * len(data))])
    whole = outcome(image_length, data)
    assert prefix is None or prefix == whole
    if isinstance(whole, int):
        assert outcome(new_read, data[:whole]) == outcome(new_read, data)
    elif whole is None:  # the input ends inside the header
        assert isinstance(outcome(new_read, data), tuple)


class TestRead:
    def test_p5_row_major(self):
        data = b"P5\n2 2\n255\n" + bytes([1, 3, 2, 4])
        img = read_image(data)
        assert img.dims.depth == 1
        assert img.pixels[0].tolist() == [[1, 3], [2, 4]]

    def test_single_black_pixel(self):
        img = read_image(b"P5\n1 1\n255\n" + bytes([0]))
        assert img.pixels.tolist() == [[[0]]]

    def test_p6_interleaved_to_planar(self):
        # one row, two RGB pixels
        data = b"P6\n2 1\n255\n" + bytes([10, 20, 30, 40, 50, 60])
        img = read_image(data)
        assert img.dims.depth == 3
        assert img.pixels[:, 0, 0].tolist() == [10, 20, 30]
        assert img.pixels[:, 0, 1].tolist() == [40, 50, 60]

    def test_comments_skipped(self):
        data = b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([8, 9])
        img = read_image(data)
        assert img.pixels[0].tolist() == [[8, 9]]

    def test_bad_magic(self):
        with pytest.raises(NetpbmError) as exc:
            read_image(b"P2\n1 1\n255\n0")
        assert exc.value.offset == 0

    def test_maxval_not_255(self):
        with pytest.raises(NetpbmError, match="maxval"):
            read_image(b"P5\n1 1\n65535\n" + bytes([0, 0]))

    def test_truncated_raster(self):
        with pytest.raises(NetpbmError, match="truncated"):
            read_image(b"P5\n2 2\n255\n" + bytes([1, 2]))

    def test_non_numeric_header(self):
        with pytest.raises(NetpbmError, match="non-numeric"):
            read_image(b"P5\nxx 2\n255\n" + bytes(4))

    def test_long_token_is_quoted_in_part(self):
        with pytest.raises(NetpbmError) as exc:
            read_image(b"P5 " + b"x" * 10_000_000)
        message = str(exc.value)
        assert len(message) < 200 and exc.value.offset == 3
        assert "non-numeric width token of 10,000,000 bytes starting b'xxx" in message

    def test_number_too_long_for_int(self):
        # int() of more than 4300 digits raises a bare ValueError
        with pytest.raises(NetpbmError, match="above 4,294,967,295") as exc:
            read_image(b"P5 " + b"9" * 5000 + b" 1 255\n")
        assert exc.value.offset == 3

    def test_number_above_uint32(self):
        with pytest.raises(NetpbmError, match="height is above") as exc:
            read_image(b"P5 1 4294967296 255\n")
        assert exc.value.offset == 5

    def test_leading_zeros_allowed(self):
        img = read_image(b"P5 " + b"0" * 5000 + b"1 1 255\n" + bytes([7]))
        assert img.pixels.tolist() == [[[7]]]

    def test_does_not_read_past_raster(self):
        data = b"P5\n2 1\n255\n" + bytes([1, 2]) + b"trailing junk"
        img = read_image(data)
        assert img.pixels[0].tolist() == [[1, 2]]

    def test_concatenated_stream_yields_the_first_image(self):
        # a Netpbm stream may hold several images back to back, so the bytes
        # after the first raster are ignored, not refused
        rng = np.random.default_rng(11)
        first, second = random_image(rng, max_side=9), random_image(rng, max_side=9)
        img = read_image(write_image(first) + write_image(second))
        assert img.dims == first.dims
        assert np.array_equal(img.pixels, first.pixels)


class TestWrite:
    def test_canonical_header(self):
        from chaosimg.cipher import PlainImage

        img = PlainImage.from_array(np.array([[7]], dtype=np.uint8))
        assert write_image(img) == b"P5\n1 1\n255\n" + bytes([7])

    def test_round_trip_random(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            img = random_image(rng, max_side=12)
            again = read_image(write_image(img))
            assert again.dims == img.dims
            assert np.array_equal(again.pixels, img.pixels)

    def test_write_read_color_planar_exact(self):
        rng = np.random.default_rng(13)
        from chaosimg.cipher import PlainImage

        img = PlainImage.from_array(rng.integers(0, 256, (3, 4, 5), dtype=np.uint8))
        assert np.array_equal(read_image(write_image(img)).pixels, img.pixels)

    def test_read_write_canonical_identity(self):
        data = b"P5\n3 2\n255\n" + bytes(range(6))
        assert write_image(read_image(data)) == data
