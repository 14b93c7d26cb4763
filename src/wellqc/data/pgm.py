"""Binary PGM (P5) reader/writer.

Pixels are normalized to [0, 1] on ingest (value / maxval) and re-quantized
on write, so a read/write cycle at the same maxval is lossless. Samples are
one byte for maxval <= 255 and big-endian two bytes above that. A side is at
most ``MAX_SIDE`` pixels, as in PNG, so a header's numbers stay short in an
error message.

wellqc reads one image per file. P5 allows several images in one file, but
here any byte after the raster is a FormatError (exit 2): a width or height
damaged to a smaller value would otherwise decode as a sheared image.
"""

import re

import numpy as np

from wellqc.errors import FormatError, shorten

MAX_SIDE = 2**31 - 1
_WHITESPACE = b" \t\n\r\x0b\x0c"
# Separators (whitespace, and '#' comments that run to the end of their line), then one token.
_TOKEN = re.compile(rb"(?:[ \t\n\r\x0b\x0c]|#[^\n]*\n?)*([^ \t\n\r\x0b\x0c#]*)")


class _Tokenizer:
    """Whitespace/comment-aware scanner that tracks the byte offset; its errors begin with ``name``."""

    def __init__(self, data: bytes, name: str):
        self.data = data
        self.name = name
        self.pos = 0

    def token(self, what: str) -> bytes:
        match = _TOKEN.match(self.data, self.pos)
        start, self.pos = match.span(1)
        if self.pos == start:
            raise FormatError(f"{self.name}: expected {what}", offset=start)
        return match[1]

    def integer(self, what: str, high: int) -> int:
        """The next token as an integer in [1, ``high``]; a token in an error is quoted through ``shorten``."""
        start = self.pos
        tok = self.token(what)
        try:
            value = int(tok)
        except ValueError:
            raise FormatError(f"{self.name}: expected integer {what}, got {shorten(repr(tok))}", offset=start) from None
        if not 1 <= value <= high:
            raise FormatError(f"{self.name}: {what} {shorten(repr(tok))} outside [1, {high}]", offset=start)
        return value


def read_pgm(path):
    """Read a binary PGM; returns (pixels, maxval).

    ``pixels`` is a float32 (H, W) array in [0, 1]. A FormatError names
    ``path``, quoted so that the message stays one short line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    name = shorten(repr(str(path)))
    tok = _Tokenizer(data, name)
    magic = tok.token("magic number")
    if magic != b"P5":
        raise FormatError(f"{name}: not a binary PGM (magic {shorten(repr(magic))})", offset=0)
    width = tok.integer("width", MAX_SIDE)
    height = tok.integer("height", MAX_SIDE)
    maxval = tok.integer("maxval", 65535)
    if tok.pos >= len(data) or data[tok.pos : tok.pos + 1] not in _WHITESPACE:
        raise FormatError(f"{name}: missing separator before raster data", offset=tok.pos)
    tok.pos += 1

    dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
    expected = width * height * dtype.itemsize
    found = len(data) - tok.pos
    if found < expected:
        raise FormatError(
            f"{name}: truncated raster: expected {expected} bytes, found {found}",
            offset=tok.pos + found,
        )
    if found > expected:
        raise FormatError(
            f"{name}: {found - expected} byte(s) after the {width}x{height} raster; "
            "wellqc reads one image per file",
            offset=tok.pos + expected,
        )
    raw = np.frombuffer(data, dtype=dtype, count=width * height, offset=tok.pos).reshape(height, width)
    return np.divide(raw, np.float32(maxval), dtype=np.float32), maxval


def write_pgm(pixels, path, maxval: int = 255) -> None:
    """Quantize a [0, 1] float image to ``maxval`` levels and write it."""
    pixels = np.asarray(pixels)
    if pixels.ndim == 3 and pixels.shape[2] == 1:
        pixels = pixels[:, :, 0]
    if pixels.ndim != 2:
        raise FormatError(f"expected a 2-D grayscale image, got shape {pixels.shape}")
    if not 0 < maxval < 65536:
        raise FormatError(f"maxval {maxval} outside (0, 65536)")
    height, width = pixels.shape
    levels = np.rint(np.clip(pixels, 0.0, 1.0).astype(np.float64) * maxval)
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(levels.astype(dtype).tobytes())
