"""Declarative network architecture: layer specs, the layer table, shape inference.

An architecture is data, not code: an ordered list of layer specs plus the
input shape, loaded from a JSON file by ``wellqc.configio`` so the shipped
model can be edited without touching the package. Every well is OK or
defective, so ``validate`` requires a Softmax head ``NUM_CLASSES`` (2) wide;
the class count is not stored.

``KINDS`` holds one ``LayerKind`` record per layer kind, after Caffe's per-type
``Layer`` (Jia et al. 2014): all the package knows about a kind. Spec checks,
``infer_shapes`` and each per-layer step of ``wellqc.nn.model`` loop over it.
Records look each kernel up as ``ops.<name>`` when they run, so a kernel
replaced on ``ops`` (as the benchmark's tracer does) is the one that runs.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

from wellqc.data.wells import NUM_CLASSES
from wellqc.errors import ConfigError, ShapeError, shorten
from wellqc.nn import ops


@dataclass(frozen=True)
class LayerKind:
    """What one layer kind means; ``layer`` is its LayerSpec and shapes exclude the batch axis.

    out_shape(layer, in_shape) -> the output shape
    param_shapes(layer, in_shape) -> the (W, b) shapes; None for a kind without parameters
    forward(layer, params, x, model, rng) -> (out, cache entry); params is (W, b) or None
    backward(layer, params, g, cache entry, model) -> (gx, (gW, gb) or None); None for
        Softmax, which only the head may be and which differentiates jointly with the loss
    """

    short: str  # name stem: the kind's layers are <short>1, <short>2, ... in layer order
    forward: Callable
    backward: Callable | None
    required: tuple[str, ...] = ()  # LayerSpec fields that must be set
    accepts: tuple[str, ...] = ()  # LayerSpec fields that may be set, the required ones included
    in_rank: int | None = None  # rank of the input it accepts; None: any
    out_shape: Callable = lambda layer, shape: shape
    param_shapes: Callable | None = None


_RANK_INPUT = {3: "(H, W, C)", 1: "a flat vector"}


def _conv_shape(layer, shape):
    k = layer.kernel_size
    return (*ops.conv_output_hw(shape[0], shape[1], k, k, layer.effective_stride), layer.out_channels)


def _conv_backward(layer, params, g, entry, model):
    gx, gw, gb = ops.conv2d_backward(g, entry[0], params[0], layer.effective_stride)
    return gx, (gw, gb)


def _pool_shape(layer, shape):
    win = layer.window
    if win > shape[0] or win > shape[1]:
        raise ShapeError(f"pooling window {win} exceeds input {shape[0]}x{shape[1]}")
    return (*ops.conv_output_hw(shape[0], shape[1], win, win, layer.effective_stride), shape[2])


def _pool_forward(layer, params, x, model, rng):
    out = ops.maxpool2d_forward(x, layer.window, layer.effective_stride)
    return out, (x, out)


def _pool_backward(layer, params, g, entry, model):
    return ops.maxpool2d_backward(g, entry, entry[0].shape, layer.window, layer.effective_stride), None


def _dense_backward(layer, params, g, entry, model):
    gx, gw, gb = ops.dense_backward(g, entry[0], params[0])
    return gx, (gw, gb)


def _dropout_forward(layer, params, x, model, rng):
    out, mask = ops.dropout_forward(x, model.dropout_rate, rng, model.mode)
    return out, (mask,)


def _softmax_forward(layer, params, x, model, rng):
    log_probs = ops.log_softmax(x)
    out = ops.softmax(x)
    return out, (out, log_probs)


KINDS: dict[str, LayerKind] = {
    "Conv2D": LayerKind(
        short="conv",
        required=("out_channels", "kernel_size"),
        accepts=("out_channels", "kernel_size", "stride"),
        in_rank=3,
        out_shape=_conv_shape,
        param_shapes=lambda layer, shape: (
            (layer.kernel_size, layer.kernel_size, shape[2], layer.out_channels), (layer.out_channels,)
        ),
        forward=lambda layer, params, x, model, rng: (ops.conv2d_forward(x, *params, layer.effective_stride), (x,)),
        backward=_conv_backward,
    ),
    "ReLU": LayerKind(
        short="relu",
        forward=lambda layer, params, x, model, rng: (ops.relu(x), (x,)),
        backward=lambda layer, params, g, entry, model: (ops.relu_backward(g, entry[0]), None),
    ),
    "MaxPool2D": LayerKind(
        short="pool",
        required=("window",),
        accepts=("window", "stride"),
        in_rank=3,
        out_shape=_pool_shape,
        forward=_pool_forward,
        backward=_pool_backward,
    ),
    "Flatten": LayerKind(
        short="flatten",
        out_shape=lambda layer, shape: (math.prod(shape),),
        forward=lambda layer, params, x, model, rng: (ops.flatten(x), (x.shape,)),
        backward=lambda layer, params, g, entry, model: (ops.flatten_backward(g, entry[0]), None),
    ),
    "Dense": LayerKind(
        short="dense",
        required=("units",),
        accepts=("units",),
        in_rank=1,
        out_shape=lambda layer, shape: (layer.units,),
        param_shapes=lambda layer, shape: ((shape[0], layer.units), (layer.units,)),
        forward=lambda layer, params, x, model, rng: (ops.dense_forward(x, *params), (x,)),
        backward=_dense_backward,
    ),
    "Dropout": LayerKind(
        short="dropout",
        forward=_dropout_forward,
        backward=lambda layer, params, g, entry, model: (ops.dropout_backward(g, entry[0], model.dropout_rate), None),
    ),
    "Softmax": LayerKind(short="softmax", in_rank=1, forward=_softmax_forward, backward=None),
}
LAYER_KINDS = tuple(KINDS)


@dataclass(frozen=True)
class LayerSpec:
    """One layer. Fields other than ``kind`` apply only to specific kinds (``LayerKind.accepts``);
    one set on any other kind is a ConfigError:

    Conv2D: out_channels, kernel_size, stride (default 1; square kernel)
    MaxPool2D: window, stride (default: stride = window)
    Dense: units
    ReLU / Flatten / Dropout / Softmax: no parameters (a Dropout layer's rate
        is the run's ``hyperparams.dropout_rate``)
    """

    kind: str
    out_channels: int | None = None
    kernel_size: int | None = None
    stride: int | None = None
    window: int | None = None
    units: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown layer kind {shorten(repr(self.kind))}; expected one of {LAYER_KINDS}")
        kind = KINDS[self.kind]
        for name in kind.required:
            if getattr(self, name) is None:
                raise ConfigError(f"{self.kind} layer requires {name!r}")
        for name in ("out_channels", "kernel_size", "stride", "window", "units"):
            value = getattr(self, name)
            if value is None:
                continue
            if name not in kind.accepts:
                raise ConfigError(f"{self.kind} layer does not take {name!r}")
            if value < 1:
                raise ConfigError(f"{self.kind}.{name} must be >= 1, got {value}")

    @property
    def effective_stride(self) -> int:
        if self.stride is not None:
            return self.stride
        return 1 if self.kind == "Conv2D" else (self.window or 1)


@dataclass(frozen=True)
class ArchitectureSpec:
    """Input shape and ordered layers.

    The field order is the key order of the serialized form.
    """

    input_shape: tuple[int, int, int]
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.input_shape) != 3 or any(d < 1 for d in self.input_shape):
            raise ConfigError(f"input_shape must be 3 positive dims (H, W, C), got {self.input_shape}")

    def validate(self) -> list[tuple[int, ...]]:
        """Run shape inference end-to-end and check the classifier head.

        The last layer, and only it, must be Softmax over a vector of
        ``NUM_CLASSES`` classes. Returns the per-layer output shapes.
        """
        shapes = infer_shapes(self)
        if not self.layers or self.layers[-1].kind != "Softmax":
            raise ShapeError("architecture must end with a Softmax layer")
        if any(layer.kind == "Softmax" for layer in self.layers[:-1]):
            raise ShapeError("only the last layer may be a Softmax layer")
        width = shapes[-1][0]
        if width != NUM_CLASSES:
            raise ShapeError(f"the Softmax head has {width} class(es), not {NUM_CLASSES}: a well is OK or defective")
        return shapes


def infer_shapes(spec: ArchitectureSpec) -> list[tuple[int, ...]]:
    """Return each layer's output shape (batch axis excluded).

    Raises ShapeError naming the first layer whose spec cannot be applied to
    the shape flowing into it; never returns partial results.
    """
    shape = tuple(spec.input_shape)
    shapes: list[tuple[int, ...]] = []
    for i, layer in enumerate(spec.layers):
        kind = KINDS[layer.kind]
        try:
            if kind.in_rank is not None and len(shape) != kind.in_rank:
                raise ShapeError(f"expects {_RANK_INPUT[kind.in_rank]} input, got {shape}")
            shape = kind.out_shape(layer, shape)
        except ShapeError as exc:
            raise ShapeError(f"layer {i} ({layer.kind}): {exc}") from None
        shapes.append(shape)
    return shapes


def default_architecture(dense_units: int = 48) -> ArchitectureSpec:
    """The shipped 111x111 grayscale classifier.

    Two valid-convolution + pooling stages, one hidden dense layer of
    ``dense_units`` (48 by default, editable in the config file), dropout on
    the hidden layer, and a 2-way softmax head.
    """
    return ArchitectureSpec(
        input_shape=(111, 111, 1),
        layers=(
            LayerSpec("Conv2D", out_channels=8, kernel_size=3, stride=1),
            LayerSpec("ReLU"),
            LayerSpec("MaxPool2D", window=2, stride=2),
            LayerSpec("Conv2D", out_channels=16, kernel_size=3, stride=1),
            LayerSpec("ReLU"),
            LayerSpec("MaxPool2D", window=2, stride=2),
            LayerSpec("Flatten"),
            LayerSpec("Dense", units=dense_units),
            LayerSpec("Dropout"),
            LayerSpec("Dense", units=2),
            LayerSpec("Softmax"),
        ),
    )


def logistic_architecture(input_shape=(111, 111, 1)) -> ArchitectureSpec:
    """Logistic regression on raw pixels: Flatten, Dense, Softmax."""
    return ArchitectureSpec(
        input_shape=tuple(input_shape),
        layers=(
            LayerSpec("Flatten"),
            LayerSpec("Dense", units=NUM_CLASSES),
            LayerSpec("Softmax"),
        ),
    )
