"""The per-well crop size and the class labels.

A crop is a plain (111, 111) float32 array in [0, 1], as ``read_pgm`` returns
it, or a (111, 111, 1) row of a ``Dataset`` image stack; no wrapper type
re-checks what the reader already guarantees.
"""

CROP_SIZE = 111

LABEL_OK = 0
LABEL_NG = 1
