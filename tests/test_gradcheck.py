"""The finite-difference harness itself: exactness, pass, and mutation cases."""

import numpy as np
import pytest

from wellqc.gradcheck import central_difference, grad_check, relative_error
from wellqc.nn import ops
from wellqc.nn.arch import ArchitectureSpec, LayerSpec
from wellqc.nn.model import init_model

from tests.test_model import toy_spec


class TestCentralDifference:
    def test_quadratic_loss_is_captured_exactly(self):
        # central differences are exact for quadratics up to roundoff
        x = np.array([1.7])
        target = 0.4
        w = np.array([0.9])

        def loss():
            return float((w[0] * x[0] - target) ** 2)

        numeric = central_difference(loss, w, 0, h=1e-5)
        analytic = 2.0 * (w[0] * x[0] - target) * x[0]
        assert abs(numeric - analytic) < 1e-10

    def test_restores_parameter_after_probing(self):
        w = np.array([0.25])
        central_difference(lambda: float(w[0] ** 3), w, 0, h=1e-4)
        assert w[0] == 0.25


class TestRelativeError:
    def test_large_values_compared_relatively(self):
        assert relative_error(100.0, 100.0001) == pytest.approx(1e-6, rel=1e-2)

    def test_tiny_pairs_compared_against_floor(self):
        # both below the floor: finite-difference noise must not fail the check
        assert relative_error(0.0, 1e-11) < 1e-6

    def test_sign_flip_is_loud(self):
        assert relative_error(0.01, -0.01) > 1.0


class TestGradCheck:
    def test_toy_model_passes(self):
        rng = np.random.default_rng(0)
        model = init_model(toy_spec(), rng)
        batch = rng.random((3, 12, 12, 1), dtype=np.float32)
        labels = rng.integers(0, 2, 3)
        report = grad_check(model, batch, labels)
        assert report.passed
        assert report.max_rel_err < 1e-6
        assert set(report.per_param) == set(model.params)

    def test_dense_only_model_passes(self):
        spec = ArchitectureSpec(
            input_shape=(4, 4, 1),
            layers=(LayerSpec("Flatten"), LayerSpec("Dense", units=2), LayerSpec("Softmax")),
        )
        rng = np.random.default_rng(1)
        model = init_model(spec, rng)
        report = grad_check(model, rng.random((2, 4, 4, 1), dtype=np.float32), np.array([0, 1]))
        assert report.passed

    def test_corrupted_backward_is_detected(self, monkeypatch):
        # sign-flip the dense backward pass: the harness must fail loudly
        real = ops.dense_backward

        def corrupted(grad_out, cached_input, weights):
            gx, gw, gb = real(grad_out, cached_input, weights)
            return gx, -gw, gb

        monkeypatch.setattr("wellqc.nn.model.ops.dense_backward", corrupted)
        rng = np.random.default_rng(2)
        model = init_model(toy_spec(), rng)
        batch = rng.random((3, 12, 12, 1), dtype=np.float32)
        report = grad_check(model, batch, rng.integers(0, 2, 3))
        assert not report.passed
        assert any(k.startswith("dense") for k in report.failing_params())

    def test_report_serializes(self):
        rng = np.random.default_rng(3)
        model = init_model(toy_spec(), rng)
        report = grad_check(model, rng.random((2, 12, 12, 1), dtype=np.float32), np.array([0, 1]))
        d = report.to_dict()
        assert d["passed"] is True
        assert set(d["per_param"]) == set(model.params)
