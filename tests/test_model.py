"""Whole-model contracts: forward/backward composition and determinism."""

import threading

import numpy as np
import numpy.testing as npt
import pytest

from wellqc import parallel
from wellqc.errors import EmptyEvaluation, ShapeError
from wellqc.nn import model as nn_model
from wellqc.nn import ops
from wellqc.nn.arch import ArchitectureSpec, LayerSpec, default_architecture, logistic_architecture
from wellqc.nn.model import (
    INFER,
    TRAIN,
    Model,
    init_model,
    model_backward,
    model_forward,
    model_loss,
    predict_probs,
)
from wellqc.parallel import blas_threads, helper_open, split_thread


def toy_spec(h=12, w=12):
    return ArchitectureSpec(
        input_shape=(h, w, 1),
        layers=(
            LayerSpec("Conv2D", out_channels=4, kernel_size=3),
            LayerSpec("ReLU"),
            LayerSpec("MaxPool2D", window=2),
            LayerSpec("Flatten"),
            LayerSpec("Dense", units=8),
            LayerSpec("ReLU"),
            LayerSpec("Dropout"),
            LayerSpec("Dense", units=2),
            LayerSpec("Softmax"),
        ),
    )


@pytest.fixture
def toy_model():
    return init_model(toy_spec(), np.random.default_rng(42), mode=INFER)


class TestForward:
    def test_probability_rows_sum_to_one(self, toy_model):
        rng = np.random.default_rng(0)
        probs, _ = model_forward(toy_model, rng.random((1, 12, 12, 1), dtype=np.float32))
        assert probs.shape == (1, 2)
        assert probs.sum(axis=1) == pytest.approx(1.0, abs=1e-6)

    def test_identical_images_get_identical_rows(self, toy_model):
        rng = np.random.default_rng(1)
        one = rng.random((12, 12, 1), dtype=np.float32)
        batch = np.stack([one, one])
        probs, _ = model_forward(toy_model, batch)
        npt.assert_array_equal(probs[0], probs[1])

    def test_infer_mode_is_bit_deterministic(self, toy_model):
        rng = np.random.default_rng(2)
        batch = rng.random((5, 12, 12, 1), dtype=np.float32)
        a, _ = model_forward(toy_model, batch)
        b, _ = model_forward(toy_model, batch)
        npt.assert_array_equal(a, b)

    def test_batch_permutation_permutes_outputs(self, toy_model):
        rng = np.random.default_rng(3)
        batch = rng.random((6, 12, 12, 1), dtype=np.float32)
        perm = rng.permutation(6)
        probs, _ = model_forward(toy_model, batch)
        probs_perm, _ = model_forward(toy_model, batch[perm])
        npt.assert_array_equal(probs_perm, probs[perm])

    def test_outputs_stay_finite(self, toy_model):
        rng = np.random.default_rng(4)
        probs, cache = model_forward(toy_model, rng.random((8, 12, 12, 1), dtype=np.float32))
        assert np.isfinite(probs).all()
        labels = rng.integers(0, 2, 8)
        assert np.isfinite(model_loss(cache, labels))
        grads = model_backward(toy_model, cache, labels)
        assert all(np.isfinite(g).all() for g in grads.values())

    def test_wrong_input_shape_raises(self, toy_model):
        with pytest.raises(ShapeError):
            model_forward(toy_model, np.zeros((2, 9, 9, 1), dtype=np.float32))

    def test_shape_inference_acceptance_implies_forward_works(self):
        # any spec accepted by validate() must run forward on a conforming batch
        rng = np.random.default_rng(5)
        for trial in range(10):
            h = int(rng.integers(6, 15))
            spec = ArchitectureSpec(
                input_shape=(h, h, int(rng.integers(1, 3))),
                layers=(
                    LayerSpec("Conv2D", out_channels=int(rng.integers(1, 5)), kernel_size=3),
                    LayerSpec("ReLU"),
                    LayerSpec("MaxPool2D", window=2),
                    LayerSpec("Flatten"),
                    LayerSpec("Dense", units=2),
                    LayerSpec("Softmax"),
                ),
            )
            spec.validate()
            model = init_model(spec, rng, mode=INFER)
            batch = rng.random((2, *spec.input_shape), dtype=np.float32)
            probs, _ = model_forward(model, batch)
            assert probs.shape == (2, 2)


    def test_model_from_spec_and_params_alone_matches_init_model(self, toy_model):
        images = np.random.default_rng(13).random((3, 12, 12, 1), dtype=np.float32)
        rebuilt = Model(toy_model.spec, toy_model.params, INFER)
        npt.assert_array_equal(predict_probs(rebuilt, images), predict_probs(toy_model, images))


class TestTrainMode:
    @pytest.fixture
    def toy_model(self, toy_model):
        toy_model.mode, toy_model.dropout_rate = TRAIN, 0.2
        return toy_model

    def test_dropout_needs_rng_in_train_mode(self, toy_model):
        with pytest.raises(ValueError):
            model_forward(toy_model, np.zeros((1, 12, 12, 1), dtype=np.float32))

    def test_train_mode_draws_from_given_rng(self, toy_model):
        batch = np.random.default_rng(6).random((4, 12, 12, 1), dtype=np.float32)
        a, _ = model_forward(toy_model, batch, rng=np.random.default_rng(7))
        b, _ = model_forward(toy_model, batch, rng=np.random.default_rng(7))
        c, _ = model_forward(toy_model, batch, rng=np.random.default_rng(8))
        npt.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_zero_dropout_rate_needs_no_rng(self, toy_model):
        toy_model.dropout_rate = 0.0
        model_forward(toy_model, np.zeros((1, 12, 12, 1), dtype=np.float32))

    def test_astype_keeps_mode_and_dropout_rate(self, toy_model):
        wide = toy_model.astype(np.float64)
        assert (wide.mode, wide.dropout_rate) == (TRAIN, 0.2)


class TestWholeModelGradient:
    def test_matches_finite_differences_in_float64(self, toy_model):
        model = toy_model.astype(np.float64)
        rng = np.random.default_rng(9)
        batch = rng.random((3, 12, 12, 1))
        labels = np.array([0, 1, 1])
        _, cache = model_forward(model, batch)
        grads = model_backward(model, cache, labels)

        h = 1e-5
        worst = 0.0
        for key, theta in model.params.items():
            flat = theta.reshape(-1)
            a_flat = grads[key].reshape(-1)
            for i in rng.choice(flat.size, size=min(12, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + h
                _, cp = model_forward(model, batch)
                plus = model_loss(cp, labels)
                flat[i] = orig - h
                _, cm = model_forward(model, batch)
                minus = model_loss(cm, labels)
                flat[i] = orig
                numeric = (plus - minus) / (2 * h)
                rel = abs(a_flat[i] - numeric) / max(abs(a_flat[i]), abs(numeric), 1e-3)
                worst = max(worst, rel)
        assert worst < 1e-6

    def test_gradient_keys_match_param_keys(self, toy_model):
        rng = np.random.default_rng(10)
        _, cache = model_forward(toy_model, rng.random((2, 12, 12, 1), dtype=np.float32))
        grads = model_backward(toy_model, cache, np.array([0, 1]))
        assert set(grads) == set(toy_model.params)
        for key in grads:
            assert grads[key].shape == toy_model.params[key].shape


def conv_stage_spec(window, stride):
    """Two conv -> ReLU -> pool stages at (window, stride), then toy_spec's Dense -> ReLU -> Dropout head."""
    return ArchitectureSpec(
        input_shape=(13, 13, 1),
        layers=(
            LayerSpec("Conv2D", out_channels=4, kernel_size=3),
            LayerSpec("ReLU"),
            LayerSpec("MaxPool2D", window=window, stride=stride),
            LayerSpec("Conv2D", out_channels=3, kernel_size=2),
            LayerSpec("ReLU"),
            LayerSpec("MaxPool2D", window=window, stride=stride),
            LayerSpec("Flatten"),
            LayerSpec("Dense", units=8),
            LayerSpec("ReLU"),
            LayerSpec("Dropout"),
            LayerSpec("Dense", units=2),
            LayerSpec("Softmax"),
        ),
    )


class TestExecutionPlan:
    """Pool before ReLU against the layers run in their written order."""

    def test_only_a_relu_before_a_pool_moves(self):
        model = init_model(conv_stage_spec(2, 2), np.random.default_rng(0))
        assert model.execution_order == [0, 2, 1, 3, 5, 4, 6, 7, 8, 9, 10, 11]
        assert init_model(toy_spec(), np.random.default_rng(0)).execution_order == [0, 2, 1, 3, 4, 5, 6, 7, 8]

    @pytest.mark.parametrize("window, stride", [(2, 2), (3, 2), (2, 1)])
    def test_matches_the_written_order(self, monkeypatch, window, stride):
        model = init_model(conv_stage_spec(window, stride), np.random.default_rng(21))
        model.dropout_rate = 0.2
        rng = np.random.default_rng(22)
        batch = rng.standard_normal((4, 13, 13, 1)).astype(np.float32)
        labels = np.array([0, 1, 1, 0])

        def forward_backward():
            probs, cache = model_forward(model, batch, rng=np.random.default_rng(23))
            return probs, cache, model_backward(model, cache, labels)

        probs, cache, grads = forward_backward()
        with monkeypatch.context() as m:
            m.setattr(Model, "execution_order", property(lambda self: list(range(len(self.spec.layers)))))
            want_probs, _, want_grads = forward_backward()
        assert probs.tobytes() == want_probs.tobytes()
        assert grads.keys() == want_grads.keys()
        for key in grads:
            assert np.array_equal(grads[key], want_grads[key]), key  # the sign of a zero may differ
        for relu, pool in ((1, 2), (4, 5)):
            assert cache[relu][0] is cache[pool][1]  # ReLU caches the pooled values, not a full-size copy


def test_every_kernel_is_looked_up_on_ops_when_it_runs(monkeypatch):
    """The layer table calls ops.<name> at run time, so a kernel replaced on ops is the one that runs."""
    kernels = [
        "conv2d_forward", "conv2d_backward", "relu", "relu_backward", "maxpool2d_forward",
        "maxpool2d_backward", "flatten", "flatten_backward", "dense_forward", "dense_backward",
        "dropout_forward", "dropout_backward", "log_softmax", "softmax", "sparse_ce_grad_logits",
    ]
    called = set()

    def wrapping(name, kernel):
        def wrapper(*args, **kwargs):
            called.add(name)
            return kernel(*args, **kwargs)
        return wrapper

    for name in kernels:
        monkeypatch.setattr(ops, name, wrapping(name, getattr(ops, name)))
    model = init_model(conv_stage_spec(2, 2), np.random.default_rng(24))
    model.dropout_rate = 0.5
    _, cache = model_forward(model, np.ones((2, 13, 13, 1), np.float32), rng=np.random.default_rng(25))
    model_backward(model, cache, np.array([0, 1]))
    assert called == set(kernels)


class TestInit:
    def test_param_shapes_follow_spec(self):
        model = init_model(default_architecture(), np.random.default_rng(0))
        assert model.params["conv1.W"].shape == (3, 3, 1, 8)
        assert model.params["conv2.W"].shape == (3, 3, 8, 16)
        assert model.params["dense1.W"].shape == (10816, 48)
        assert model.params["dense2.W"].shape == (48, 2)

    def test_biases_start_at_zero(self):
        model = init_model(default_architecture(), np.random.default_rng(0))
        assert not model.params["conv1.b"].any()
        assert not model.params["dense2.b"].any()

    def test_same_seed_same_init(self):
        a = init_model(toy_spec(), np.random.default_rng(5))
        b = init_model(toy_spec(), np.random.default_rng(5))
        for key in a.params:
            npt.assert_array_equal(a.params[key], b.params[key])

    def test_he_uniform_bounds(self):
        model = init_model(toy_spec(), np.random.default_rng(6))
        w = model.params["dense1.W"]
        limit = np.sqrt(6.0 / w.shape[0])
        assert float(np.abs(w).max()) <= limit


class TestPredictProbs:
    def test_bit_reproducible(self, toy_model):
        rng = np.random.default_rng(12)
        images = rng.random((10, 12, 12, 1), dtype=np.float32)
        a = predict_probs(toy_model, images)
        b = predict_probs(toy_model, images)
        npt.assert_array_equal(a, b)

    def test_zero_images_give_an_empty_row_stack(self, toy_model):
        probs = predict_probs(toy_model, np.empty((0, 12, 12, 1), dtype=np.float32))
        assert probs.shape == (0, 2) and probs.dtype == toy_model.dtype

    def test_zero_images_with_labels_have_no_mean_loss(self, toy_model):
        with pytest.raises(EmptyEvaluation):
            predict_probs(toy_model, np.empty((0, 12, 12, 1), dtype=np.float32), np.empty(0, dtype=np.int64))


SLICED_SIZES = [1, 2, 15, 16, 17, 19, 33, 63, 64, 65, 66, 81, 130]


@pytest.fixture(scope="module")
def crops():
    rng = np.random.default_rng(31)
    return rng.random((130, 111, 111, 1), dtype=np.float32), rng.integers(0, 2, 130)


def one_forward_per_block(model, images, labels):
    """(probabilities, mean CE) from one model_forward per 64-image block, on the calling thread."""
    chunks, total_ce = [], 0.0
    for start in range(0, len(images), 64):
        probs, cache = model_forward(model, images[start:start + 64])
        chunks.append(probs)
        total_ce += model_loss(cache, labels[start:start + 64]) * len(probs)
    return np.concatenate(chunks), total_ce / len(images)


@pytest.fixture
def recorded_forwards(monkeypatch):
    """(thread, batch size) of every model_forward that predict_probs makes."""
    seen = []
    real = nn_model.model_forward

    def recording(model, batch, rng=None):
        seen.append((threading.current_thread(), len(batch)))
        return real(model, batch, rng)

    monkeypatch.setattr(nn_model, "model_forward", recording)
    return seen


class TestSlicedInference:
    """Conv models forward 8-image slices on the task runner; dense-only models stay serial."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Set the CPU count that predict_probs sizes its workers by."""
        return lambda n: monkeypatch.setattr(parallel, "_cpu_count", lambda: n)

    @pytest.mark.parametrize("cpu_count", [2, 1])
    @pytest.mark.parametrize("architecture", [default_architecture, logistic_architecture])
    def test_bits_match_one_forward_per_block(self, cpus, crops, architecture, cpu_count):
        model = init_model(architecture(), np.random.default_rng(32), mode=INFER)
        cpus(cpu_count)
        images, labels = crops
        with blas_threads():
            for n in SLICED_SIZES:
                want_probs, want_ce = one_forward_per_block(model, images[:n], labels[:n])
                probs, ce = predict_probs(model, images[:n], labels[:n])
                assert probs.tobytes() == want_probs.tobytes(), n
                assert ce == want_ce, n

    @pytest.mark.parametrize("serial", ["one CPU", "helper open"])
    def test_serial_runner_runs_every_slice_on_the_calling_thread(self, cpus, toy_model, recorded_forwards, serial):
        if serial == "one CPU":
            cpus(1)
            predict_probs(toy_model, np.zeros((130, 12, 12, 1), dtype=np.float32))
        else:
            cpus(2)
            with split_thread():
                assert helper_open()
                predict_probs(toy_model, np.zeros((130, 12, 12, 1), dtype=np.float32))
        assert recorded_forwards == [(threading.main_thread(), size) for size in [8] * 16 + [2]]

    def test_workers_take_every_slice_a_one_image_block_included(self, cpus, toy_model, recorded_forwards):
        cpus(2)
        predict_probs(toy_model, np.zeros((129, 12, 12, 1), dtype=np.float32))
        assert sorted(size for _, size in recorded_forwards) == [1] + [8] * 16
        assert threading.main_thread() not in {thread for thread, _ in recorded_forwards}

    def test_dense_only_model_runs_whole_blocks_on_the_calling_thread(self, cpus, recorded_forwards):
        model = init_model(logistic_architecture(input_shape=(12, 12, 1)), np.random.default_rng(0), mode=INFER)
        cpus(2)
        predict_probs(model, np.zeros((130, 12, 12, 1), dtype=np.float32))
        assert recorded_forwards == [(threading.main_thread(), size) for size in (64, 64, 2)]
