"""Cutting full scanner frames into per-well crops on a known grid.

A frame is the 2-D float32 array ``read_pgm`` returns; each crop is a view
of it, so tiling copies no pixels.
"""

from dataclasses import dataclass

import numpy as np

from wellqc.errors import ConfigError, GridOutOfBounds
from wellqc.data.wells import CROP_SIZE


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


def tile_scan(frame: np.ndarray, grid: TileGrid) -> list[tuple[int, int, np.ndarray]]:
    """All rows*cols crops in row-major order, as (row, col, view of ``frame``).

    Raises GridOutOfBounds naming the first crop (row-major) that would fall
    outside the frame, before any crop is returned; a frame smaller than one
    crop fails at crop (0, 0).
    """
    h, w = frame.shape
    crops = []
    for i in range(grid.rows * grid.cols):
        r, c = divmod(i, grid.cols)
        y0 = grid.origin_y + r * grid.pitch_y
        x0 = grid.origin_x + c * grid.pitch_x
        if y0 + CROP_SIZE > h or x0 + CROP_SIZE > w:
            raise GridOutOfBounds(
                f"crop ({r}, {c}) spans rows [{y0}, {y0 + CROP_SIZE}) x "
                f"cols [{x0}, {x0 + CROP_SIZE}) outside the {w}x{h} frame"
            )
        crops.append((r, c, frame[y0 : y0 + CROP_SIZE, x0 : x0 + CROP_SIZE]))
    return crops
