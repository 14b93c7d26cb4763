"""Core image type: the per-well crop, and the class labels."""

from dataclasses import dataclass

import numpy as np

from wellqc.errors import ShapeError

CROP_SIZE = 111

LABEL_OK = 0
LABEL_NG = 1


@dataclass
class WellImage:
    """A single 111x111 grayscale well crop with pixels in [0, 1]."""

    pixels: np.ndarray
    row: int | None = None
    col: int | None = None

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float32)
        if self.pixels.ndim == 2:
            self.pixels = self.pixels[:, :, None]
        if self.pixels.shape != (CROP_SIZE, CROP_SIZE, 1):
            raise ShapeError(
                f"well crop must be ({CROP_SIZE}, {CROP_SIZE}, 1), got {self.pixels.shape}"
            )
        lo, hi = float(self.pixels.min()), float(self.pixels.max())
        if lo < 0.0 or hi > 1.0:
            raise ShapeError(f"well pixels must lie in [0, 1], found [{lo}, {hi}]")

