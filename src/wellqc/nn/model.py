"""Sequential model assembled from an ArchitectureSpec.

Layer names, parameter shapes and the forward and backward passes are each
one loop over ``wellqc.nn.arch.KINDS``, the table of what each layer kind
computes; this module holds the parameters and the order the layers run in.

The model owns a flat named parameter collection (keys like "conv1.W",
"dense2.b"); layers themselves are stateless. Forward passes return an
explicit cache instead of storing activations on the model, so a frozen model
can evaluate disjoint batches concurrently. Parameters are only ever mutated
by the optimizer.

Layers run in their written order with one exception: a ReLU directly
followed by a MaxPool2D runs after the pool, on the pooled output. Max is
monotone, so relu(pool(x)) equals pool(relu(x)) bit for bit, while ReLU sees
only the pooled elements (a quarter at 2x2) and the cache holds no full-size
ReLU output. The backward pass walks that order in reverse; its gradients
equal the written order's, up to the sign of a zero. The spec, the config and
the layer names stay as written.

Inference (``predict_probs``) walks the images in 64-image blocks. A model
with a Conv2D layer forwards each block as 8-image slices, a shorter
remainder joined to the slice before it, on the task runner
(``wellqc.parallel``) with one worker per CPU. Cut this way, every row keeps
the bits of one forward of its whole block at one OpenBLAS thread, the count
every command runs at (``wellqc.parallel``). The loss is still one mean per
64-image block. Dense-only models forward each block whole and serially:
their wide products change bits with the row count, and on a pool they ran
slower.

Slices hold 8 images, not 16, which halves the activations each worker holds
at once. In a process that had trained with ``train``'s split helper
(``wellqc.parallel``), as the benchmark's ``scan_qc`` set-up does, 16-image
slices raised the peak RSS by about a quarter.
"""

import math
from dataclasses import dataclass

import numpy as np

from wellqc import parallel
from wellqc.data.wells import NUM_CLASSES
from wellqc.errors import EmptyEvaluation, ShapeError
from wellqc.nn import ops
from wellqc.nn.arch import KINDS, ArchitectureSpec

TRAIN = "train"
INFER = "infer"
BLOCK = 64  # images per inference block
SLICE = 8  # images per inference slice


def _layer_names(spec: ArchitectureSpec) -> list[str]:
    """Per-layer names, each kind counted from 1 in layer order (conv1, relu1, pool1, conv2, ...)."""
    counts: dict[str, int] = {}
    names = []
    for layer in spec.layers:
        base = KINDS[layer.kind].short
        counts[base] = counts.get(base, 0) + 1
        names.append(f"{base}{counts[base]}")
    return names


@dataclass
class Model:
    spec: ArchitectureSpec
    params: dict[str, np.ndarray]
    mode: str = INFER
    dropout_rate: float = 0.0  # of every Dropout layer, in train mode

    @property
    def execution_order(self) -> list[int]:
        """Layer indices in the order model_forward runs them: each ReLU directly before a MaxPool2D swaps with it."""
        layers = self.spec.layers
        order = list(range(len(layers)))
        for i in range(len(layers) - 1):
            if layers[i].kind == "ReLU" and layers[i + 1].kind == "MaxPool2D":
                order[i], order[i + 1] = i + 1, i
        return order

    @property
    def dtype(self):
        for value in self.params.values():
            return value.dtype
        return np.dtype(np.float32)

    def regularized_keys(self) -> list[str]:
        """Weight tensors the L2 penalty covers: dense layers only.

        Conv filters are shared across every spatial position, so a decay
        term sized against their per-position magnitude overwhelms them;
        the dense weights carry nearly all parameters and are where the
        penalty meaningfully constrains capacity.
        """
        return [k for k in self.params if k.startswith("dense") and k.endswith(".W")]

    def astype(self, dtype) -> "Model":
        return Model(
            spec=self.spec,
            params={k: v.astype(dtype) for k, v in self.params.items()},
            mode=self.mode,
            dropout_rate=self.dropout_rate,
        )


def param_shapes(spec: ArchitectureSpec) -> dict[str, tuple[int, ...]]:
    """{name: shape} of every weight (".W") and bias (".b") tensor, in layer order."""
    shapes = {}
    in_shape = spec.input_shape
    for layer, name, out_shape in zip(spec.layers, _layer_names(spec), spec.validate()):
        kind = KINDS[layer.kind]
        if kind.param_shapes is not None:
            shapes[f"{name}.W"], shapes[f"{name}.b"] = kind.param_shapes(layer, in_shape)
        in_shape = out_shape
    return shapes


def init_model(spec: ArchitectureSpec, rng, dtype=np.float32, mode: str = TRAIN) -> Model:
    """He-uniform weights and zero biases, drawn in layer order from ``rng``.

    A weight's fan-in is the product of all but its output axis.
    """
    params: dict[str, np.ndarray] = {}
    for key, shape in param_shapes(spec).items():
        if key.endswith(".W"):
            params[key] = ops.he_uniform(shape, math.prod(shape[:-1]), rng, dtype)
        else:
            params[key] = np.zeros(shape, dtype=dtype)
    return Model(spec=spec, params=params, mode=mode)


def model_forward(model: Model, batch, rng=None):
    """Run the batch through every layer; returns (probabilities, cache).

    ``cache`` holds, at each layer's index, the values model_backward needs.
    In train mode dropout draws its masks, at ``model.dropout_rate``, from
    ``rng``; in infer mode the pass is a pure deterministic function of
    (model, batch).
    """
    x = np.asarray(batch)
    if x.ndim != 4 or x.shape[1:] != tuple(model.spec.input_shape):
        raise ShapeError(f"batch shape {x.shape} does not match input shape {model.spec.input_shape}")
    x = x.astype(model.dtype, copy=False)
    names = _layer_names(model.spec)
    cache = [None] * len(names)
    for idx in model.execution_order:
        layer, name = model.spec.layers[idx], names[idx]
        kind = KINDS[layer.kind]
        params = (model.params[f"{name}.W"], model.params[f"{name}.b"]) if kind.param_shapes else None
        x, cache[idx] = kind.forward(layer, params, x, model, rng)
    return x, cache


def model_loss(cache, labels) -> float:
    """Mean cross-entropy from the cached fused log-softmax values."""
    _, log_probs = cache[-1]
    return ops.sparse_ce_from_log_probs(log_probs, labels)


def model_backward(model: Model, cache, labels) -> dict[str, np.ndarray]:
    """Gradient of the mean cross-entropy loss w.r.t. every parameter.

    The softmax layer and the loss differentiate jointly: the walk starts from
    (p - onehot)/N at the logits and visits the remaining layers in reverse.
    """
    if model.spec.layers[-1].kind != "Softmax":
        raise ShapeError("model must end with a Softmax layer")
    probs, _ = cache[-1]
    grads: dict[str, np.ndarray] = {}
    g = ops.sparse_ce_grad_logits(probs, labels)
    names = _layer_names(model.spec)
    for idx in reversed(model.execution_order[:-1]):
        layer, name = model.spec.layers[idx], names[idx]
        kind = KINDS[layer.kind]
        params = (model.params[f"{name}.W"], model.params[f"{name}.b"]) if kind.param_shapes else None
        g, layer_grads = kind.backward(layer, params, g, cache[idx], model)
        if layer_grads is not None:
            grads[f"{name}.W"], grads[f"{name}.b"] = layer_grads
    return grads


def _slices(start: int, stop: int) -> list[tuple[int, int]]:
    """[start, stop) cut every SLICE images; a remainder shorter than SLICE joins the slice before it."""
    edges = [start + SLICE * k for k in range(max(1, (stop - start) // SLICE))]
    return list(zip(edges, edges[1:] + [stop]))


def predict_probs(model: Model, images, labels=None):
    """Class probabilities for a stack of images, evaluated in infer mode.

    This is the one batched inference loop. It walks the images in blocks of
    BLOCK images. A model with a Conv2D layer forwards each block as
    SLICE-image slices (``_slices``) on the task runner, one worker per CPU;
    every block of a model without a Conv2D layer is forwarded whole on the
    calling thread. Each row is bit-identical to one model_forward of its
    block; the module docstring says why.

    With ``labels`` it returns (probabilities, mean cross-entropy). Each
    block's loss is taken from its concatenated log-probabilities, and the
    mean is the block-size weighted sum of those losses; zero images then
    have no mean and raise EmptyEvaluation.
    """
    frozen = Model(model.spec, model.params, INFER)
    n = len(images)
    if n == 0 and labels is not None:
        raise EmptyEvaluation("cannot compute the mean cross-entropy of zero images")

    def forward(start, stop):
        probs, cache = model_forward(frozen, images[start:stop])
        return probs, cache[-1][1]

    blocks = [(start, min(start + BLOCK, n)) for start in range(0, n, BLOCK)]
    conv = any(layer.kind == "Conv2D" for layer in model.spec.layers)
    plans = [_slices(start, stop) if conv else [] for start, stop in blocks]
    pooled = iter(parallel.run_tasks(forward, [s for plan in plans for s in plan], parallel._cpu_count()))
    chunks, total_ce = [], 0.0
    for (start, stop), plan in zip(blocks, plans):
        parts = [next(pooled) for _ in plan] if plan else [forward(start, stop)]
        chunks += [probs for probs, _ in parts]
        if labels is not None:
            log_probs = np.concatenate([lp for _, lp in parts])
            total_ce += ops.sparse_ce_from_log_probs(log_probs, labels[start:stop]) * (stop - start)
    probs = np.concatenate(chunks, axis=0) if chunks else np.empty((0, NUM_CLASSES), model.dtype)
    return probs if labels is None else (probs, total_ce / n)
