"""The per-well crop size and the class labels.

A crop is a plain (111, 111) float32 array in [0, 1], as ``read_pgm`` returns
it, or a (111, 111, 1) row of a ``Dataset`` image stack; no wrapper type
re-checks what the reader already guarantees.

Every well is OK or defective (NG), so the pipeline has exactly
``NUM_CLASSES`` classes: each manifest's header and each model's Softmax head
is checked against it where the file is read.
"""

CROP_SIZE = 111

LABEL_OK = 0
LABEL_NG = 1
NUM_CLASSES = 2
