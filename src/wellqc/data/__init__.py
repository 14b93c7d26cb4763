"""Image I/O, tiling, manifests, synthesis, and splitting."""
