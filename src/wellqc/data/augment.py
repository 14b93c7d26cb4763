"""Label-preserving augmentations: the three square-preserving involutions.

"hflip" mirrors columns, "vflip" mirrors rows, and "rot180" is their
composition. Each op is its own inverse and only permutes pixels, so the
multiset of pixel values is unchanged.
"""

import numpy as np

AUG_NONE = "none"
AUG_OPS = ("hflip", "vflip", "rot180")


def augment_pixels(pixels: np.ndarray, op: str) -> np.ndarray:
    if op == AUG_NONE:
        return np.ascontiguousarray(pixels)
    if op == "hflip":
        return np.ascontiguousarray(pixels[:, ::-1])
    if op == "vflip":
        return np.ascontiguousarray(pixels[::-1, :])
    if op == "rot180":
        return np.ascontiguousarray(pixels[::-1, ::-1])
    raise ValueError(f"unknown augmentation {op!r}; expected one of {(AUG_NONE,) + AUG_OPS}")

