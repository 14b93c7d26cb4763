"""Cutting full scanner frames into per-well crops on a known grid."""

from dataclasses import dataclass

import numpy as np

from wellqc.errors import ConfigError, GridOutOfBounds, ShapeError
from wellqc.data.wells import CROP_SIZE, WellImage


@dataclass
class ScanFrame:
    """One full-resolution grayscale scanner frame, pixels in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float32)
        if self.pixels.ndim != 2:
            raise ShapeError(f"frame must be 2-D grayscale, got shape {self.pixels.shape}")
        h, w = self.pixels.shape
        if h < CROP_SIZE or w < CROP_SIZE:
            raise ShapeError(f"frame {w}x{h} smaller than one {CROP_SIZE}px crop")


@dataclass(frozen=True)
class TileGrid:
    """Regular crop grid: origin and pitch in pixels, crop size fixed at 111.

    The crop at (row r, col c) covers
    rows [origin_y + r*pitch_y, +111) x cols [origin_x + c*pitch_x, +111).
    A grid file is a JSON object with exactly these six integer keys.
    """

    origin_x: int
    origin_y: int
    pitch_x: int
    pitch_y: int
    rows: int
    cols: int

    def __post_init__(self):
        if self.origin_x < 0 or self.origin_y < 0:
            raise ConfigError(f"grid origin must be non-negative, got ({self.origin_x}, {self.origin_y})")
        if self.pitch_x < 1 or self.pitch_y < 1:
            raise ConfigError(f"grid pitch must be >= 1, got ({self.pitch_x}, {self.pitch_y})")
        if self.rows < 1 or self.cols < 1:
            raise ConfigError(f"grid must have >= 1 rows and cols, got {self.rows}x{self.cols}")


def tile_scan(frame: ScanFrame, grid: TileGrid) -> list[WellImage]:
    """All rows*cols crops in row-major order, tagged with (row, col).

    Raises GridOutOfBounds naming the first crop (row-major) that would fall
    outside the frame.
    """
    h, w = frame.pixels.shape
    for r in range(grid.rows):
        for c in range(grid.cols):
            y0 = grid.origin_y + r * grid.pitch_y
            x0 = grid.origin_x + c * grid.pitch_x
            if y0 + CROP_SIZE > h or x0 + CROP_SIZE > w:
                raise GridOutOfBounds(
                    f"crop ({r}, {c}) spans rows [{y0}, {y0 + CROP_SIZE}) x "
                    f"cols [{x0}, {x0 + CROP_SIZE}) outside the {w}x{h} frame"
                )
    crops = []
    for r in range(grid.rows):
        for c in range(grid.cols):
            y0 = grid.origin_y + r * grid.pitch_y
            x0 = grid.origin_x + c * grid.pitch_x
            pixels = frame.pixels[y0 : y0 + CROP_SIZE, x0 : x0 + CROP_SIZE]
            crops.append(WellImage(pixels=np.ascontiguousarray(pixels), row=r, col=c))
    return crops
