"""Span tracer that wraps wellqc's public functions from the outside.

Nothing under ``src/`` changes. While a traced op runs, each target function
is replaced where the program looks it up (a module or class attribute) by a
wrapper that records a span, and the original is put back afterwards, so an
untraced op runs the unmodified program.

A span keeps its name, start, end, parent and a trace id. Each op starts a
trace; an epoch of a training run and a grid cell start their own. Spans stay
in memory and are written out when the run ends. Every thread keeps its own
parent stack; a span opened on a worker thread with an empty stack belongs
to the span that handed the work out (``grid_search``).

Training epochs and steps are loops inside ``train``, not functions, so they
are inferred from the calls that bound them: a step runs from the first
train-mode ``model_forward`` to the end of its ``adam_step``, and an epoch
from its first step to the end of its ``evaluate_model``.
"""

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import measure

TRAIN_SPANS = ("training.train", "search.cell")
NEW_TRACE_SPANS = ("bench.op", "search.cell")
FORK_SPANS = ("search.grid_search",)

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    *[(f"nn.{layer}.{d}_ms", "ms") for layer in ("conv1", "conv2", "pool1", "pool2") for d in ("fwd", "bwd")],
    ("nn.relu.fwd_ms", "ms"),
    ("nn.relu.bwd_ms", "ms"),
    ("nn.dense.fwd_ms", "ms"),
    ("nn.dense.bwd_ms", "ms"),
    ("nn.softmax.fwd_ms", "ms"),
    ("nn.model_forward.self_ms", "ms"),
    ("nn.model_backward.self_ms", "ms"),
    ("nn.conv.gflops", "GFLOP/s"),
    ("nn.forward.calls", "calls/op"),
    ("nn.forward.images_per_call", "images"),
    ("optim.adam_step_ms", "ms"),
    ("optim.apply_l2_ms", "ms"),
    ("optim.l2_penalty_ms", "ms"),
    ("training.epoch_s", "s"),
    ("training.step_ms", "ms"),
    ("training.step.unattributed_share", "fraction"),
    ("training.evaluate_model_ms", "ms"),
    ("training.train.self_ms", "ms"),
    ("search.cell_s", "s"),
    ("search.busy_share", "fraction"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("data.write_pgm_ms", "ms"),
    ("data.read_pgm_ms", "ms"),
    ("data.write_pgm_calls", "calls/op"),
    ("data.read_pgm_calls", "calls/op"),
    ("data.manifest_load_ms", "ms"),
    ("data.load_examples_ms", "ms"),
    ("data.tile_scan_ms", "ms"),
    ("metrics.predict_ms", "ms"),
    ("metrics.evaluate_checkpoint_ms", "ms"),
    ("metrics.emit_report_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("trace.overhead_share", "fraction"),
]

# Per-call medians of whole spans: metric -> span name.
_SPAN_MEDIANS_MS = {
    "optim.adam_step_ms": "optim.adam_step",
    "optim.apply_l2_ms": "optim.apply_l2",
    "optim.l2_penalty_ms": "optim.l2_penalty",
    "training.step_ms": "training.step",
    "training.evaluate_model_ms": "training.evaluate_model",
    "checkpoint.save_ms": "checkpoint.save",
    "checkpoint.load_ms": "checkpoint.load",
    "data.write_pgm_ms": "data.write_pgm",
    "data.read_pgm_ms": "data.read_pgm",
    "data.manifest_load_ms": "data.manifest_load",
    "data.load_examples_ms": "data.load_examples",
    "data.tile_scan_ms": "data.tile_scan",
    "metrics.predict_ms": "metrics.predict",
    "metrics.evaluate_checkpoint_ms": "metrics.evaluate_checkpoint",
    "metrics.emit_report_ms": "metrics.emit_report",
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    trace: int
    thread: int
    start: float
    end: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self, targets):
        self.spans: list[Span] = []
        self._targets = targets
        self._saved = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._fork_parent: Span | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, attrs=None, new_trace: bool = False) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._fork_parent
        with self._lock:
            span_id = next(self._span_ids)
            trace = next(self._trace_ids) if new_trace or parent is None else parent.trace
        span = Span(
            span_id, name, parent.id if parent else None, trace, threading.get_ident(),
            time.perf_counter(), attrs=attrs or {},
        )
        stack.append(span)
        with self._lock:
            self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        # A step left open because its adam_step raised ends with its parent.
        while stack and stack[-1] is not span:
            stack.pop().end = span.end
        if stack:
            stack.pop()

    def _top(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def _before(self, name: str, attrs: dict) -> None:
        if name != "nn.model_forward" or attrs.get("mode") != "train":
            return
        top = self._top()
        if top is not None and top.name in TRAIN_SPANS:
            self.begin("training.epoch", new_trace=top.name == "training.train")
            top = self._top()
        if top is not None and top.name == "training.epoch":
            self.begin("training.step")

    def _after(self, name: str) -> None:
        closes = {"optim.adam_step": "training.step", "training.evaluate_model": "training.epoch"}.get(name)
        top = self._top()
        if closes and top is not None and top.name == closes:
            self.end(top)

    def wrap(self, fn, name: str, attrs_fn=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_fn(*args, **kwargs) if attrs_fn else {}
            tracer._before(name, attrs)
            span = tracer.begin(name, attrs, new_trace=name in NEW_TRACE_SPANS)
            forked = name in FORK_SPANS
            if forked:
                previous, tracer._fork_parent = tracer._fork_parent, span
            try:
                return fn(*args, **kwargs)
            finally:
                if forked:
                    tracer._fork_parent = previous
                tracer.end(span)
                tracer._after(name)

        return traced

    def install(self) -> None:
        for owner, attr, name, attrs_fn in self._targets:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(self.wrap(raw.__func__, name, attrs_fn))
            else:
                replacement = self.wrap(raw, name, attrs_fn)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = {
                    "id": s.id, "name": s.name, "parent": s.parent, "trace": s.trace,
                    "thread": s.thread, "start": s.start, "end": s.end, "attrs": s.attrs,
                }
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def layer_table(spec) -> dict:
    """{(kind, input shape without the batch axis): layer name} for conv and pool layers.

    Names count each kind from 1 in layer order (conv1, pool1, conv2, ...),
    which is how the model names its parameters.
    """
    from wellqc.nn.arch import infer_shapes

    short = {"Conv2D": "conv", "MaxPool2D": "pool"}
    table, counts = {}, {}
    in_shape = tuple(spec.input_shape)
    for layer, out_shape in zip(spec.layers, infer_shapes(spec)):
        if layer.kind in short:
            base = short[layer.kind]
            counts[base] = counts.get(base, 0) + 1
            table[(layer.kind, in_shape)] = f"{base}{counts[base]}"
        in_shape = tuple(out_shape)
    return table


def layer_for(table: dict, kind: str, batched_shape) -> str:
    """The layer an op call belongs to, from its input's (N, H, W, C) shape."""
    return table.get((kind, tuple(batched_shape[1:])), "other")


def wellqc_targets(table: dict) -> list:
    """(owner, attribute, span name, attrs function) for every wrapped function."""
    from wellqc import cli, metrics
    from wellqc.data import manifest
    from wellqc.nn import model, ops
    from wellqc.training import checkpoint, loop, search

    def conv_flops(n, in_shape, weights, stride):
        kh, kw, cin, cout = weights.shape
        oh = (in_shape[1] - kh) // stride + 1
        ow = (in_shape[2] - kw) // stride + 1
        return 2 * n * oh * ow * kh * kw * cin * cout

    def conv_fwd(x, weights, bias, stride=1):
        layer = layer_for(table, "Conv2D", x.shape)
        flops = conv_flops(x.shape[0], x.shape, weights, stride)
        return {"batch": x.shape[0], "metric": f"nn.{layer}.fwd_ms", "flops": flops}

    def conv_bwd(grad_out, cached_input, weights, stride=1):
        x = cached_input
        layer = layer_for(table, "Conv2D", x.shape)
        # Two GEMMs of the forward's size: one for the weights, one for the input.
        flops = 2 * conv_flops(x.shape[0], x.shape, weights, stride)
        return {"batch": x.shape[0], "metric": f"nn.{layer}.bwd_ms", "flops": flops}

    def pool_fwd(x, window, stride=None):
        return {"batch": x.shape[0], "metric": f"nn.{layer_for(table, 'MaxPool2D', x.shape)}.fwd_ms"}

    def pool_bwd(grad_out, argmax, input_shape, window, stride=None):
        return {"batch": input_shape[0], "metric": f"nn.{layer_for(table, 'MaxPool2D', input_shape)}.bwd_ms"}

    def tagged(metric):
        return lambda x, *args, **kwargs: {"batch": x.shape[0], "metric": metric}

    def backward_tagged(metric):
        return lambda grad_out, *args, **kwargs: {"batch": grad_out.shape[0], "metric": metric}

    def forward_pass(m, batch, rng=None):
        return {"batch": len(batch), "mode": m.mode}

    def backward_pass(m, cache, labels):
        return {"batch": len(labels)}

    def grid(grid_spec, base_config, train_set, val_set, jobs=1):
        return {"jobs": jobs}

    return [
        (ops, "conv2d_forward", "nn.conv2d_forward", conv_fwd),
        (ops, "conv2d_backward", "nn.conv2d_backward", conv_bwd),
        (ops, "maxpool2d_forward", "nn.maxpool2d_forward", pool_fwd),
        (ops, "maxpool2d_backward", "nn.maxpool2d_backward", pool_bwd),
        (ops, "relu", "nn.relu", tagged("nn.relu.fwd_ms")),
        (ops, "relu_backward", "nn.relu_backward", backward_tagged("nn.relu.bwd_ms")),
        (ops, "dense_forward", "nn.dense_forward", tagged("nn.dense.fwd_ms")),
        (ops, "dense_backward", "nn.dense_backward", backward_tagged("nn.dense.bwd_ms")),
        (ops, "softmax", "nn.softmax", tagged("nn.softmax.fwd_ms")),
        (ops, "log_softmax", "nn.log_softmax", tagged("nn.softmax.fwd_ms")),
        (model, "model_forward", "nn.model_forward", forward_pass),
        (loop, "model_forward", "nn.model_forward", forward_pass),
        (loop, "model_backward", "nn.model_backward", backward_pass),
        (loop, "adam_step", "optim.adam_step", None),
        (loop, "apply_l2", "optim.apply_l2", None),
        (loop, "l2_penalty", "optim.l2_penalty", None),
        (loop, "evaluate_model", "training.evaluate_model", None),
        (loop, "train", "training.train", None),
        (cli, "train", "training.train", None),
        (search, "train", "search.cell", None),
        (cli, "grid_search", "search.grid_search", grid),
        (checkpoint.Checkpoint, "save", "checkpoint.save", None),
        (checkpoint.Checkpoint, "load", "checkpoint.load", None),
        (cli, "write_pgm", "data.write_pgm", None),
        (cli, "read_pgm", "data.read_pgm", None),
        (manifest, "read_pgm", "data.read_pgm", None),
        (manifest.DatasetManifest, "load", "data.manifest_load", None),
        (cli, "load_examples", "data.load_examples", None),
        (cli, "tile_scan", "data.tile_scan", None),
        (cli, "predict", "metrics.predict", None),
        (metrics, "predict", "metrics.predict", None),
        (metrics, "predict_probs", "metrics.predict_probs", None),
        (cli, "evaluate_checkpoint", "metrics.evaluate_checkpoint", None),
        (cli, "emit_report", "metrics.emit_report", None),
        (cli, "main", "cli.main", None),
    ]


def layer_metrics(spans, traced_ops: int):
    """Per-layer metrics from closed spans; returns (metrics, per-batch breakdown).

    A layer that did not run on the workload reads 0. Op times are summed
    over the calls of one model pass (two ReLUs, two dense layers, softmax
    with log_softmax) and the median is taken over the passes at the batch
    size the workload runs most; the breakdown keeps every batch size.
    """
    spans = [s for s in spans if s.end is not None]
    children = defaultdict(list)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def self_of(s):
        return measure.self_time(s.start, s.end, [(c.start, c.end) for c in children[s.id]])

    def at_modal_batch(pairs):
        """pairs of (batch, seconds) -> (median at the modal batch, {batch: median})."""
        groups = defaultdict(list)
        for batch, seconds in pairs:
            groups[batch].append(seconds)
        per_batch = {b: measure.median(v) for b, v in groups.items()}
        return per_batch[measure.modal([b for b, _ in pairs])], per_batch

    out = {name: 0.0 for name, _ in PER_LAYER}
    breakdown = {}

    passes = {s.id: s for s in by_name["nn.model_forward"] + by_name["nn.model_backward"]}
    per_pass = defaultdict(lambda: defaultdict(float))
    for s in spans:
        metric = s.attrs.get("metric")
        if metric in out and s.parent in passes:
            per_pass[metric][s.parent] += s.duration
    for metric, sums in per_pass.items():
        value, per_batch = at_modal_batch([(passes[pid].attrs["batch"], t) for pid, t in sums.items()])
        out[metric] = 1e3 * value
        breakdown.update({f"{metric}@{b}": 1e3 * v for b, v in per_batch.items()})

    for name in ("nn.model_forward", "nn.model_backward"):
        metric = f"{name}.self_ms"
        if by_name[name]:
            value, per_batch = at_modal_batch([(s.attrs["batch"], self_of(s)) for s in by_name[name]])
            out[metric] = 1e3 * value
            breakdown.update({f"{metric}@{b}": 1e3 * v for b, v in per_batch.items()})
            _, totals = at_modal_batch([(s.attrs["batch"], s.duration) for s in by_name[name]])
            breakdown.update({f"{name}.total_ms@{b}": 1e3 * v for b, v in totals.items()})

    conv = by_name["nn.conv2d_forward"] + by_name["nn.conv2d_backward"]
    if conv:
        out["nn.conv.gflops"] = sum(s.attrs["flops"] for s in conv) / sum(s.duration for s in conv) / 1e9
    forwards = by_name["nn.model_forward"]
    if forwards:
        out["nn.forward.calls"] = len(forwards) / traced_ops
        out["nn.forward.images_per_call"] = sum(s.attrs["batch"] for s in forwards) / len(forwards)

    for metric, name in _SPAN_MEDIANS_MS.items():
        if by_name[name]:
            out[metric] = 1e3 * measure.median([s.duration for s in by_name[name]])
    if by_name["training.epoch"]:
        out["training.epoch_s"] = measure.median([s.duration for s in by_name["training.epoch"]])
    if by_name["training.step"]:
        out["training.step.unattributed_share"] = measure.median(
            [self_of(s) / s.duration for s in by_name["training.step"]]
        )

    def own_calls(s):
        """Children, looking through the inferred epoch and step spans."""
        for c in children[s.id]:
            if c.name in ("training.epoch", "training.step"):
                yield from own_calls(c)
            else:
                yield c

    trains = [s for name in TRAIN_SPANS for s in by_name[name]]
    if trains:
        out["training.train.self_ms"] = 1e3 * measure.median(
            [measure.self_time(s.start, s.end, [(c.start, c.end) for c in own_calls(s)]) for s in trains]
        )
    if by_name["search.cell"]:
        out["search.cell_s"] = measure.median([s.duration for s in by_name["search.cell"]])
    if by_name["search.grid_search"]:
        out["search.busy_share"] = measure.median([
            sum(c.duration for c in children[g.id] if c.name == "search.cell") / (g.duration * g.attrs["jobs"])
            for g in by_name["search.grid_search"]
        ])
    out["data.write_pgm_calls"] = len(by_name["data.write_pgm"]) / traced_ops
    out["data.read_pgm_calls"] = len(by_name["data.read_pgm"]) / traced_ops
    if by_name["cli.main"]:
        out["cli.self_ms"] = 1e3 * measure.median([self_of(s) for s in by_name["cli.main"]])
    return out, breakdown
