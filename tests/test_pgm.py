"""PGM format: round trips at both bit depths, malformed-input handling and the header tokenizer."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wellqc.errors import FormatError, shorten
from wellqc.data.pgm import MAX_SIDE, _Tokenizer, read_pgm, write_pgm


def quantized_image(rng, shape, maxval):
    """Random image already on the stored grid, so round trips are exact."""
    levels = rng.integers(0, maxval + 1, size=shape)
    return (levels.astype(np.float32) / np.float32(maxval)), levels


class TestRoundTrip:
    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_write_read_is_bit_identical(self, tmp_path, maxval):
        rng = np.random.default_rng(maxval)
        image, _ = quantized_image(rng, (13, 17), maxval)
        path = tmp_path / "img.pgm"
        write_pgm(image, path, maxval=maxval)
        back, back_maxval = read_pgm(path)
        assert back_maxval == maxval
        npt.assert_array_equal(back, image)

    def test_read_write_preserves_file_bytes(self, tmp_path):
        rng = np.random.default_rng(7)
        image, _ = quantized_image(rng, (9, 9), 255)
        first = tmp_path / "a.pgm"
        second = tmp_path / "b.pgm"
        write_pgm(image, first, maxval=255)
        pixels, maxval = read_pgm(first)
        write_pgm(pixels, second, maxval=maxval)
        assert first.read_bytes() == second.read_bytes()

    def test_full_scale_pixel_normalizes_to_one(self, tmp_path):
        path = tmp_path / "one.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\xff")
        pixels, _ = read_pgm(path)
        assert pixels[0, 0] == 1.0

    def test_16bit_samples_are_big_endian(self, tmp_path):
        path = tmp_path / "be.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x01\x00")  # 256, not 1
        pixels, _ = read_pgm(path)
        assert pixels[0, 0] == pytest.approx(256 / 65535)

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_every_level_converts_as_a_float32_cast_then_divide(self, tmp_path, maxval):
        levels = np.arange(maxval + 1).reshape(-1, 256)
        path = tmp_path / "levels.pgm"
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
        path.write_bytes(f"P5\n256 {levels.shape[0]}\n{maxval}\n".encode() + levels.astype(dtype).tobytes())
        pixels, _ = read_pgm(path)
        expected = levels.astype(np.float32) / np.float32(maxval)
        assert pixels.dtype == np.float32
        assert pixels.tobytes() == expected.tobytes()

    def test_trailing_channel_axis_accepted_on_write(self, tmp_path):
        image = np.zeros((5, 5, 1), dtype=np.float32)
        write_pgm(image, tmp_path / "c.pgm")
        pixels, _ = read_pgm(tmp_path / "c.pgm")
        assert pixels.shape == (5, 5)


class TestMalformedInputs:
    def test_truncated_raster_reports_offset(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)  # 16 expected
        with pytest.raises(FormatError) as excinfo:
            read_pgm(path)
        assert excinfo.value.offset == len(b"P5\n4 4\n255\n") + 7

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "p2.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(FormatError, match="magic"):
            read_pgm(path)

    def test_missing_header_fields_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4\n")
        with pytest.raises(FormatError):
            read_pgm(path)

    def test_non_integer_dimension_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\nfour 4\n255\n")
        with pytest.raises(FormatError, match="integer"):
            read_pgm(path)

    def test_comments_in_header_are_skipped(self, tmp_path):
        path = tmp_path / "comment.pgm"
        path.write_bytes(b"P5\n# scanner lane 3\n2 1\n255\n\x10\x20")
        pixels, maxval = read_pgm(path)
        assert pixels.shape == (1, 2)
        assert maxval == 255

    def test_oversized_maxval_rejected(self, tmp_path):
        path = tmp_path / "big.pgm"
        path.write_bytes(b"P5\n1 1\n70000\n\x00\x00")
        with pytest.raises(FormatError, match="maxval"):
            read_pgm(path)

    def test_write_rejects_non_2d(self, tmp_path):
        with pytest.raises(FormatError):
            write_pgm(np.zeros((3, 3, 2)), tmp_path / "x.pgm")


class ByteLoopTokenizer:
    """The header tokenizer as it was before the one-regex scan: one byte at a time."""

    WHITESPACE = b" \t\n\r\x0b\x0c"

    def __init__(self, data: bytes, path):
        self.data = data
        self.path = path
        self.pos = 0

    def skip_separators(self):
        while self.pos < len(self.data):
            ch = self.data[self.pos : self.pos + 1]
            if ch in (b"#",):
                nl = self.data.find(b"\n", self.pos)
                self.pos = len(self.data) if nl < 0 else nl + 1
            elif ch and ch in self.WHITESPACE:
                self.pos += 1
            else:
                break

    def token(self, what: str) -> bytes:
        self.skip_separators()
        start = self.pos
        while self.pos < len(self.data) and self.data[self.pos : self.pos + 1] not in self.WHITESPACE:
            if self.data[self.pos : self.pos + 1] == b"#":
                break
            self.pos += 1
        if self.pos == start:
            raise FormatError(f"{self.path}: expected {what}", offset=start)
        return self.data[start : self.pos]

    def integer(self, what: str, high: int) -> int:
        start = self.pos
        tok = self.token(what)
        try:
            value = int(tok)
        except ValueError:
            raise FormatError(f"{self.path}: expected integer {what}, got {shorten(repr(tok))}", offset=start) from None
        if not 1 <= value <= high:
            raise FormatError(f"{self.path}: {what} {shorten(repr(tok))} outside [1, {high}]", offset=start)
        return value


def scan_header(tokenizer_cls, data: bytes):
    """(magic, width, height, maxval, offset after maxval), or the first FormatError's (text, offset)."""
    tok = tokenizer_cls(data, "h.pgm")
    try:
        magic = tok.token("magic number")
        width, height = tok.integer("width", MAX_SIDE), tok.integer("height", MAX_SIDE)
        return magic, width, height, tok.integer("maxval", 65535), tok.pos
    except FormatError as exc:
        return str(exc), exc.offset


COMMENT = st.tuples(st.binary(max_size=4), st.sampled_from([b"\n", b"\r\n", b""])).map(lambda c: b"#" + c[0] + c[1])
SEPARATOR = st.one_of(st.sampled_from([bytes([c]) for c in b" \t\n\r\x0b\x0c"]), COMMENT)
DIGITS = st.integers(0, 70000).map(lambda n: str(n).encode())
TOKEN = st.one_of(DIGITS, DIGITS, st.sampled_from([b"P5", b"P2", b"", b"#", b"\x00", b"-1", b"+2", b"1_0", b"x", b"\xff"]))
HEADERS = st.one_of(
    st.lists(st.tuples(st.lists(SEPARATOR, max_size=3), TOKEN), max_size=6),
    st.lists(st.tuples(st.lists(SEPARATOR, min_size=1, max_size=3), TOKEN), min_size=3, max_size=5).map(
        lambda fields: [([], b"P5"), *fields]  # a magic number and three or more separated fields
    ),
).map(lambda fields: b"".join(b"".join(separators) + token for separators, token in fields))


class TestTokenizerMatchesByteLoop:
    @pytest.mark.parametrize(
        "data, expected",
        [
            (b"P5#c\n1 1\n255\n", (b"P5", 1, 1, 255, 12)),
            (b"P5 1 1 # comment at EOF", ("h.pgm: expected maxval (byte offset 23)", 23)),
            (b"P5\r\n4 5\r\n65535\r\n", (b"P5", 4, 5, 65535, 14)),
            (b"P5\nfour 4\n255\n", ("h.pgm: expected integer width, got b'four' (byte offset 2)", 2)),
            (b"P5 0 4 255 ", ("h.pgm: width b'0' outside [1, 2147483647] (byte offset 2)", 2)),
            (b"P5 1 1 65536 ", ("h.pgm: maxval b'65536' outside [1, 65535] (byte offset 6)", 6)),
            (b"P5 " + b"9" * 500 + b" 1 255 ",
             (f"h.pgm: width b'{'9' * 28}...{'9' * 29}' outside [1, 2147483647] (byte offset 2)", 2)),
        ],
    )
    def test_explicit_headers(self, data, expected):
        assert scan_header(_Tokenizer, data) == scan_header(ByteLoopTokenizer, data) == expected

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=HEADERS)
    def test_random_headers(self, data):
        assert scan_header(_Tokenizer, data) == scan_header(ByteLoopTokenizer, data)

    @pytest.mark.parametrize("header", [b"P5#c\n1 1\n255\n", b"P5\r\n1 1\r\n255\r", b"P5 1 1 255\t"])
    def test_read_pgm_finds_the_raster_after_the_header(self, tmp_path, header):
        path = tmp_path / "h.pgm"
        path.write_bytes(header + b"\x80")
        pixels, maxval = read_pgm(path)
        assert (pixels.shape, maxval, pixels[0, 0]) == ((1, 1), 255, np.float32(128) / np.float32(255))
