import numpy as np
import pytest

from chaosimg.errors import NetpbmError
from chaosimg.netpbm import read_image, write_image
from conftest import random_image


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
