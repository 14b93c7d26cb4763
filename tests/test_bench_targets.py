"""The traced benchmark run wraps wellqc functions by name and signature.

``perfbench/tracing.py`` replaces ``vars(owner)[attr]`` for each target and
calls an attribute hook with the wrapped call's arguments, so renaming a
traced function, or changing the arguments its hook reads, breaks the traced
benchmark. These tests catch that in the ordinary test suite.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from wellqc import metrics
from wellqc.nn.arch import default_architecture
from wellqc.nn.model import TRAIN, init_model
from wellqc.optim import init_adam_state
from wellqc.training import loop

from tests.test_model import toy_spec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_every_traced_target_resolves(tracing):
    targets = tracing.wellqc_targets(tracing.layer_table(default_architecture()))
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets if attr not in vars(owner)]
    assert missing == []


def test_traced_train_step_and_inference_record_conv_and_pool_spans(tracing):
    spec = toy_spec()
    rng = np.random.default_rng(0)
    model = init_model(spec, rng, mode=TRAIN)
    images = rng.random((4, *spec.input_shape), dtype=np.float32)
    labels = np.array([0, 1, 0, 1])
    tracer = tracing.Tracer(tracing.wellqc_targets(tracing.layer_table(spec)))
    tracer.install()
    try:
        _, cache = loop.model_forward(model, images, rng)
        grads = loop.model_backward(model, cache, labels)
        loop.adam_step(model.params, grads, init_adam_state(model.params), 1e-3)
        metrics.predict_probs(model, images)
    finally:
        tracer.uninstall()
    recorded = {s.attrs.get("metric") for s in tracer.spans if s.end is not None}
    assert {"nn.conv1.fwd_ms", "nn.conv1.bwd_ms", "nn.pool1.fwd_ms", "nn.pool1.bwd_ms"} <= recorded
    forwards = [s for s in tracer.spans if s.name == "nn.maxpool2d_forward"]
    assert len(forwards) == 2  # the train step's and the inference pass's
