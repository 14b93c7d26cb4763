"""Declarative network architecture: layer specs, validation, shape inference.

An architecture is data, not code: an ordered list of layer specs plus the
input shape, loaded from a JSON file by ``wellqc.configio`` so the shipped
model can be edited without touching the package. The class count is the
width of the Softmax head, so it is not stored.
"""

from dataclasses import dataclass

from wellqc.errors import ConfigError, ShapeError
from wellqc.nn.ops import conv_output_hw

LAYER_KINDS = ("Conv2D", "ReLU", "MaxPool2D", "Flatten", "Dense", "Dropout", "Softmax")


@dataclass(frozen=True)
class LayerSpec:
    """One layer. Fields other than ``kind`` apply only to specific kinds:

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
        if self.kind not in LAYER_KINDS:
            raise ConfigError(f"unknown layer kind {self.kind!r}; expected one of {LAYER_KINDS}")
        required = {
            "Conv2D": ("out_channels", "kernel_size"),
            "MaxPool2D": ("window",),
            "Dense": ("units",),
        }.get(self.kind, ())
        for name in required:
            if getattr(self, name) is None:
                raise ConfigError(f"{self.kind} layer requires {name!r}")
        for name in ("out_channels", "kernel_size", "window", "units"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{self.kind}.{name} must be >= 1, got {value}")
        if self.stride is not None and self.stride < 1:
            raise ConfigError(f"{self.kind}.stride must be >= 1, got {self.stride}")

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

    @property
    def num_classes(self) -> int:
        """The width of the Softmax head."""
        return self.validate()[-1][0]

    def validate(self) -> list[tuple[int, ...]]:
        """Run shape inference end-to-end and check the classifier head.

        The last layer must be Softmax over a vector of at least 2 classes.
        Returns the per-layer output shapes.
        """
        shapes = infer_shapes(self)
        if not self.layers or self.layers[-1].kind != "Softmax":
            raise ShapeError("architecture must end with a Softmax layer")
        if shapes[-1][0] < 2:
            raise ShapeError(f"the Softmax head has {shapes[-1][0]} class(es); at least 2 are needed")
        return shapes


def infer_shapes(spec: ArchitectureSpec) -> list[tuple[int, ...]]:
    """Return each layer's output shape (batch axis excluded).

    Raises ShapeError naming the first layer whose spec cannot be applied to
    the shape flowing into it; never returns partial results.
    """
    shape = tuple(spec.input_shape)
    shapes: list[tuple[int, ...]] = []
    for i, layer in enumerate(spec.layers):
        where = f"layer {i} ({layer.kind})"
        try:
            if layer.kind == "Conv2D":
                if len(shape) != 3:
                    raise ShapeError(f"expects (H, W, C) input, got {shape}")
                k = layer.kernel_size
                oh, ow = conv_output_hw(shape[0], shape[1], k, k, layer.effective_stride)
                shape = (oh, ow, layer.out_channels)
            elif layer.kind == "MaxPool2D":
                if len(shape) != 3:
                    raise ShapeError(f"expects (H, W, C) input, got {shape}")
                win = layer.window
                if win > shape[0] or win > shape[1]:
                    raise ShapeError(f"pooling window {win} exceeds input {shape[0]}x{shape[1]}")
                oh, ow = conv_output_hw(shape[0], shape[1], win, win, layer.effective_stride)
                shape = (oh, ow, shape[2])
            elif layer.kind == "Flatten":
                size = 1
                for d in shape:
                    size *= d
                shape = (size,)
            elif layer.kind == "Dense":
                if len(shape) != 1:
                    raise ShapeError(f"expects a flat vector input, got {shape}")
                shape = (layer.units,)
            elif layer.kind == "Softmax":
                if len(shape) != 1:
                    raise ShapeError(f"expects a flat vector input, got {shape}")
            elif layer.kind in ("ReLU", "Dropout"):
                pass
        except ShapeError as exc:
            raise ShapeError(f"{where}: {exc}") from None
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


def logistic_architecture(input_shape=(111, 111, 1), num_classes: int = 2) -> ArchitectureSpec:
    """Multinomial logistic regression on raw pixels: Flatten, Dense, Softmax."""
    return ArchitectureSpec(
        input_shape=tuple(input_shape),
        layers=(
            LayerSpec("Flatten"),
            LayerSpec("Dense", units=num_classes),
            LayerSpec("Softmax"),
        ),
    )
