"""Forward and backward kernels for the layers the classifier is built from.

All kernels are plain functions over batched numpy arrays. Images and
activations use channels-last layout, (N, H, W, C); flat activations are
(N, D). Convolution weights are (KH, KW, C_in, C_out); dense weights are
(D_in, D_out).

Kernels compute in the dtype of their inputs. Training runs them in float32;
the gradient-check harness runs the identical code in float64.

Convolutions are "valid" (no padding): output side = input side - kernel
side + 1 for stride 1, and (input - kernel) // stride + 1 in general.

Convolution (im2col + one GEMM, Chellapilla, Puri & Simard 2006) and max
pooling read their input through one zero-copy window view, ``_windows``.
Convolution's backward computes the window gradients channels-first,
(KH, KW, C_in, N, OH, OW), and sums them through ``_scatter_add`` into a
channels-first buffer seen through an NHWC view, so each add runs along a row
of the image; the result is returned as one NHWC copy. Its forward adds the
bias along rows of OW * C_out values. Pooling's forward is a running maximum,
with no argmax; its tie rule lives in the backward pass, which routes each
gradient to the first cell, in row-major window order, that equals the
window's output. Every pool writes the routed pieces into one contiguous
(KH, KW, N, OH, OW, C) buffer. With stride == window (the shipped model) the
windows do not overlap, and the buffer is stored with one copy through a
(N, OH, KH, OW, KW, C) block view of the input gradient. Any other stride
sums the buffer through ``_scatter_add``.

Three kernels use a ``wellqc.parallel.split_thread`` helper when the calling
thread has one open (``train`` does), each with the bits it has on one thread:
- ``conv2d_backward`` computes the input gradient on the caller and the weight
  and bias gradients on the helper. They are separate GEMMs of unchanged shape.
- The pools, given N >= 2 images, run each half of the batch on its own
  thread, into buffers the caller allocates. Each image's windows are its own,
  so the halves hold the same values as one pass. An overlapping pool sums its
  pieces on the caller once both halves are done.
The conv forward is not split: cut by rows, its GEMM changed bits, since at
small shapes they depend on the row count. With no helper open every kernel
runs on the whole batch at once, because halving the pools there only adds
calls.
"""

import functools

import numpy as np

from wellqc.errors import LabelError, ShapeError
from wellqc.parallel import both, helper_open


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def conv_output_hw(h, w, kh, kw, stride):
    if kh > h or kw > w:
        raise ShapeError(f"kernel {kh}x{kw} exceeds input {h}x{w}")
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    return (h - kh) // stride + 1, (w - kw) // stride + 1


def _windows(x, kh, kw, stride):
    """Zero-copy (N, OH, OW, KH, KW, C) view: [n, i, j, dy, dx] is x[n, i*stride+dy, j*stride+dx]."""
    conv_output_hw(x.shape[1], x.shape[2], kh, kw, stride)
    view = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    return view[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)


def _scatter_add(gx, pieces, stride):
    """Add every window's gradient into ``gx``, one position at a time in row-major order.

    ``pieces[dy, dx]`` is the (N, OH, OW, C) gradient each window sends to its cell (dy, dx).
    """
    kh, kw, _, oh, ow, _ = pieces.shape
    for dy, dx in np.ndindex(kh, kw):
        gx[:, dy : dy + (oh - 1) * stride + 1 : stride, dx : dx + (ow - 1) * stride + 1 : stride] += pieces[dy, dx]
    return gx


@functools.cache
def _window_pixels(h, w, kh, kw, stride):
    """The flat pixel index of every window cell, (OH*OW*KH*KW,) in window-view order; read-only.

    Built once per shape: every conv layer calls ``_im2col`` with the same
    shape on every step.
    """
    pixels = _windows(np.arange(h * w).reshape(1, h, w, 1), kh, kw, stride).reshape(-1)
    pixels.flags.writeable = False
    return pixels


def _im2col(x, kh, kw, stride):
    """The windows of ``x`` (N,H,W,C) as a (N*OH*OW, KH*KW*C) matrix.

    Columns are ordered (dy, dx, c) row-major, matching the flattening of a
    (KH, KW, C_in, C_out) weight tensor into (KH*KW*C_in, C_out). One ``take``
    of whole C-vectors, indexed by the windows of a pixel-index plane, stays
    fast at C = 1, where copying the window view of ``x`` is not.
    """
    n, h, w, c = x.shape
    pixels = _window_pixels(h, w, kh, kw, stride)
    cols = x.reshape(n, h * w, c).take(pixels, axis=1)
    return cols.reshape(n * pixels.size // (kh * kw), kh * kw * c)


def conv2d_forward(x, weights, bias, stride=1):
    """Valid (unpadded) 2-D convolution.

    out[n, y, x, o] = bias[o] + sum_{dy,dx,c} in[n, y*s+dy, x*s+dx, c] * w[dy,dx,c,o]
    """
    weights = np.asarray(weights)
    bias = np.asarray(bias)
    if weights.ndim != 4:
        raise ShapeError(f"conv weights must be (KH, KW, C_in, C_out), got shape {weights.shape}")
    kh, kw, cin, cout = weights.shape
    if x.shape[3] != cin:
        raise ShapeError(f"input has {x.shape[3]} channels but weights expect {cin}")
    if bias.shape != (cout,):
        raise ShapeError(f"bias must have shape ({cout},), got {bias.shape}")
    oh, ow = conv_output_hw(x.shape[1], x.shape[2], kh, kw, stride)
    out = _im2col(x, kh, kw, stride) @ weights.reshape(kh * kw * cin, cout)
    # out[r, o] += bias[o] for every output pixel r, one long row of OW * C_out sums per image row.
    rows = out.reshape(x.shape[0] * oh, ow * cout)
    rows += np.tile(bias, ow)
    return out.reshape(x.shape[0], oh, ow, cout).astype(x.dtype, copy=False)


def conv2d_backward(grad_out, cached_input, weights, stride=1):
    """Gradients of conv2d_forward: (grad_input, grad_weights, grad_bias)."""
    x, g = cached_input, grad_out
    weights = np.asarray(weights)
    kh, kw, cin, cout = weights.shape
    n, h, w, _ = x.shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride)
    if g.shape != (n, oh, ow, cout):
        raise ShapeError(f"grad_out shape {g.shape} does not match forward output {(n, oh, ow, cout)}")

    gflat = g.reshape(-1, cout)

    def weight_grads():
        # The bits of g.sum(axis=(0, 1, 2)): it adds row after row, as einsum does in one pass,
        # except at C_out = 1, where it sums one contiguous run pairwise.
        gb = gflat.sum(axis=0) if cout == 1 else np.einsum("rc->c", gflat)
        gw = _im2col(x, kh, kw, stride).T @ gflat
        return gw.reshape(weights.shape), gb

    def input_grad():
        # Channels-first, so that every scatter-add runs along W instead of over C_in values.
        gcols = (weights.reshape(kh * kw * cin, cout) @ gflat.T).reshape(kh, kw, cin, n, oh, ow)
        gx = np.zeros((cin, n, h, w), gcols.dtype).transpose(1, 2, 3, 0)
        _scatter_add(gx, gcols.transpose(0, 1, 3, 4, 5, 2), stride)
        return np.ascontiguousarray(gx)

    gx, (gw, gb) = both(input_grad, weight_grads)
    return gx, gw, gb


# ---------------------------------------------------------------------------
# max pooling
# ---------------------------------------------------------------------------

def _by_halves(n, part):
    """Run ``part(images)`` once over all ``n`` images, or over each image half.

    Halves run when a helper is open and N >= 2; the second half runs on the
    helper thread.
    """
    if n >= 2 and helper_open():
        both(lambda: part(slice(0, n // 2)), lambda: part(slice(n // 2, n)))
    else:
        part(slice(None))


def maxpool2d_forward(x, window, stride=None):
    """Max pooling: the maximum of each window, NaN if the window holds one."""
    stride = window if stride is None else stride
    wins = _windows(x, window, window, stride)
    out = np.empty(wins.shape[:3] + wins.shape[5:], x.dtype)

    def running_max(images):
        for dy, dx in np.ndindex(window, window):
            cell = wins[images, :, :, dy, dx, :]
            # On a tie np.maximum returns its second argument: the earlier cell, sign of zero included.
            if dy == dx == 0:
                np.copyto(out[images], cell)
            else:
                np.maximum(cell, out[images], out=out[images])

    _by_halves(len(x), running_max)
    return out


def maxpool2d_backward(grad_out, cache, input_shape, window, stride=None):
    """Route each output gradient to its window's first maximum in row-major order.

    ``cache`` is the forward's (input, output). A window whose maximum is NaN
    passes no gradient. As in relu_backward the gradient is masked by a
    product, so a non-finite gradient also reaches its window's other cells.
    """
    x, out = cache
    stride = window if stride is None else stride
    wins = _windows(x, window, window, stride)
    n, oh, ow, c = out.shape
    unrouted = np.ones(out.shape, dtype=bool)
    pieces = np.empty((window, window, n, oh, ow, c), grad_out.dtype)
    gx = np.zeros(input_shape, grad_out.dtype)
    # Without overlap each cell takes one piece: each half stores its pieces with
    # one copy through the (N, OH, KH, OW, KW, C) block view of gx.
    blocks = None
    if stride == window:
        blocks = gx[:, : oh * window, : ow * window].reshape(n, oh, window, ow, window, c, copy=False)

    def route(images):
        for dy, dx in np.ndindex(window, window):
            hit = wins[images, :, :, dy, dx, :] == out[images]
            hit &= unrouted[images]
            np.logical_xor(unrouted[images], hit, out=unrouted[images])  # hit is a subset of unrouted
            np.multiply(grad_out[images], hit, out=pieces[dy, dx, images])
        if blocks is not None:
            pieces[:, :, images] += 0  # -0 becomes +0, as 0 + v does in the scatter
            blocks[images] = pieces[:, :, images].transpose(2, 3, 0, 4, 1, 5)

    _by_halves(n, route)
    return gx if blocks is not None else _scatter_add(gx, pieces, stride)


# ---------------------------------------------------------------------------
# elementwise / shape layers
# ---------------------------------------------------------------------------

def relu(x):
    return np.maximum(np.asarray(x), 0)


def relu_backward(grad_out, cached_input):
    return grad_out * (np.asarray(cached_input) > 0)


def flatten(x):
    """Flatten each example to a vector (row-major), keeping the batch axis."""
    return x.reshape(x.shape[0], -1)


def flatten_backward(grad_out, input_shape):
    return np.asarray(grad_out).reshape(input_shape)


def dense_forward(x, weights, bias):
    """Affine map: out = x @ W + b with W of shape (D_in, D_out)."""
    weights = np.asarray(weights)
    bias = np.asarray(bias)
    if weights.ndim != 2 or x.shape[1] != weights.shape[0]:
        raise ShapeError(f"dense input of width {x.shape[1]} does not match weights {weights.shape}")
    if bias.shape != (weights.shape[1],):
        raise ShapeError(f"dense bias must have shape ({weights.shape[1]},), got {bias.shape}")
    return x @ weights + bias


def dense_backward(grad_out, cached_input, weights):
    """Gradients of dense_forward: (grad_input, grad_weights, grad_bias)."""
    gw = cached_input.T @ grad_out
    gb = grad_out.sum(axis=0)
    gx = grad_out @ np.asarray(weights).T
    return gx, gw, gb


def dropout_forward(x, rate, rng, mode):
    """Inverted dropout; returns (output, mask).

    Train mode zeroes each element with probability ``rate`` and scales the
    survivors by 1/(1-rate) so inference is the identity. Infer mode (and rate
    0) returns the input unchanged with mask None.
    """
    x = np.asarray(x)
    if mode == "infer" or rate == 0.0:
        return x, None
    if rng is None:
        raise ValueError("dropout in train mode requires the run's generator")
    mask = rng.random(x.shape) >= rate
    scale = x.dtype.type(1.0 / (1.0 - rate))
    return x * mask * scale, mask


def dropout_backward(grad_out, mask, rate):
    if mask is None:
        return grad_out
    scale = grad_out.dtype.type(1.0 / (1.0 - rate))
    return grad_out * mask * scale


# ---------------------------------------------------------------------------
# softmax and loss
# ---------------------------------------------------------------------------

def softmax(logits):
    """Max-shifted softmax: p_i = exp(z_i - max z) / sum_j exp(z_j - max z)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax(logits):
    """log p in the fused form z - max - log(sum exp(z - max))."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted - lse


def _check_labels(labels, num_classes):
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        bad = labels[(labels < 0) | (labels >= num_classes)][0]
        raise LabelError(f"label {bad} outside [0, {num_classes})")
    return labels


def sparse_ce_from_log_probs(log_probs, labels):
    """Mean -log p(true class) from log-softmax output (the fused path)."""
    labels = _check_labels(labels, log_probs.shape[1])
    return float(-log_probs[np.arange(log_probs.shape[0]), labels].mean())


def sparse_ce_grad_logits(probabilities, labels):
    """Gradient of the mean loss w.r.t. the logits: (p - onehot) / N."""
    labels = _check_labels(labels, probabilities.shape[1])
    g = probabilities.copy()
    g[np.arange(g.shape[0]), labels] -= 1
    g /= g.shape[0]
    return g


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def he_uniform(shape, fan_in, rng, dtype):
    """He-uniform draw: U(-sqrt(6/fan_in), +sqrt(6/fan_in))."""
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)
