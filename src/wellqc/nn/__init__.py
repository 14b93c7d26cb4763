"""From-scratch neural network core: kernels, architecture specs, models.

Arrays are C-contiguous numpy tensors; a stored shape plus the row-major flat
view is the wire representation used by checkpoints. Training and inference
run in float32, verification harnesses rerun the same kernels in float64.
"""
