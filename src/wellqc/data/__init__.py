"""Image I/O, tiling, labeling, augmentation, synthesis, and splitting."""
