"""Optimizer tests against a standalone scalar reference implementation."""

import numpy as np
import numpy.testing as npt
import pytest

from wellqc import configio
from wellqc.errors import ConfigError, NonFiniteGradient
from wellqc.optim import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Hyperparams,
    adam_step,
    apply_l2,
    init_adam_state,
    l2_penalty,
)


def scalar_adam_reference(theta, grads, lr, b1=ADAM_BETA1, b2=ADAM_BETA2, eps=ADAM_EPS):
    """Independent scalar Adam, one float at a time."""
    m = v = 0.0
    t = 0
    for g in grads:
        t += 1
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


def allocating_adam_oracle(params, grads, state, lr):
    """The Adam update with one fresh array per intermediate, in adam_step's operation order."""
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for key, g in grads.items():
        m, v = state.m[key], state.v[key]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(g)
        m_hat = m / bc1
        v_hat = v / bc2
        params[key] -= (lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(params[key].dtype)


class TestAdamStep:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = {"w.W": np.array([1.0, -2.0, 3.0])}
        state = init_adam_state(params)
        before = params["w.W"].copy()
        adam_step(params, {"w.W": np.zeros(3)}, state, lr=0.1)
        npt.assert_array_equal(params["w.W"], before)
        assert state.t == 1

    def test_first_step_magnitude_is_learning_rate(self):
        # bias correction makes the first update ~ -lr * sign(g)
        params = {"w.W": np.array([0.0])}
        state = init_adam_state(params)
        adam_step(params, {"w.W": np.array([0.5])}, state, lr=0.001)
        assert params["w.W"][0] == pytest.approx(-0.001, abs=1e-5)

    def test_first_update_magnitude_invariant_to_gradient_scale(self):
        for g in (1e-4, 1e-2, 1.0, 100.0):
            params = {"w.W": np.array([0.0])}
            state = init_adam_state(params)
            adam_step(params, {"w.W": np.array([g])}, state, lr=0.001)
            assert abs(params["w.W"][0]) == pytest.approx(0.001, rel=0.01)

    def test_ten_steps_match_scalar_reference(self):
        params = {"w.W": np.array([0.7])}
        state = init_adam_state(params)
        for _ in range(10):
            adam_step(params, {"w.W": np.array([0.3])}, state, lr=0.01)
        expected = scalar_adam_reference(0.7, [0.3] * 10, lr=0.01)
        assert params["w.W"][0] == pytest.approx(expected, abs=1e-12)

    def test_varying_gradients_match_scalar_reference(self):
        rng = np.random.default_rng(0)
        grads = rng.standard_normal(25)
        params = {"w.W": np.array([0.1])}
        state = init_adam_state(params)
        for g in grads:
            adam_step(params, {"w.W": np.array([g])}, state, lr=0.005)
        expected = scalar_adam_reference(0.1, list(grads), lr=0.005)
        assert params["w.W"][0] == pytest.approx(expected, abs=1e-12)

    def test_elementwise_independence(self):
        # a vector update equals per-coordinate scalar updates
        rng = np.random.default_rng(1)
        theta0 = rng.standard_normal(5)
        gradient_steps = [rng.standard_normal(5) for _ in range(7)]
        params = {"w.W": theta0.copy()}
        state = init_adam_state(params)
        for g in gradient_steps:
            adam_step(params, {"w.W": g.copy()}, state, lr=0.01)
        for i in range(5):
            expected = scalar_adam_reference(theta0[i], [g[i] for g in gradient_steps], lr=0.01)
            assert params["w.W"][i] == pytest.approx(expected, abs=1e-12)

    def test_nan_gradient_raises_naming_tensor(self):
        params = {"a.W": np.zeros(2), "b.b": np.zeros(2)}
        state = init_adam_state(params)
        grads = {"a.W": np.array([0.0, np.nan]), "b.b": np.zeros(2)}
        with pytest.raises(NonFiniteGradient, match="a.W"):
            adam_step(params, grads, state, lr=0.01)

    def test_inf_gradient_raises(self):
        params = {"a.W": np.zeros(1)}
        state = init_adam_state(params)
        with pytest.raises(NonFiniteGradient):
            adam_step(params, {"a.W": np.array([np.inf])}, state, lr=0.01)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_update_matches_allocating_oracle_bit_for_bit(self, dtype):
        rng = np.random.default_rng(3)
        shapes = {"conv1.W": (3, 3, 1, 8), "conv1.b": (8,), "dense1.W": (400, 48), "dense1.b": (48,)}
        params = {k: rng.standard_normal(shape).astype(dtype) for k, shape in shapes.items()}
        want = {k: p.copy() for k, p in params.items()}
        state, want_state = init_adam_state(params), init_adam_state(want)
        for _ in range(5):
            grads = {k: rng.standard_normal(shape).astype(dtype) for k, shape in shapes.items()}
            before = {k: g.copy() for k, g in grads.items()}
            adam_step(params, grads, state, lr=0.003)
            allocating_adam_oracle(want, grads, want_state, lr=0.003)
            for key in shapes:
                assert grads[key].tobytes() == before[key].tobytes()
        assert state.t == want_state.t == 5
        for key in shapes:
            for got, expected in ((params, want), (state.m, want_state.m), (state.v, want_state.v)):
                assert got[key].dtype == expected[key].dtype == dtype
                assert got[key].tobytes() == expected[key].tobytes()

    def test_second_moment_stays_non_negative(self):
        rng = np.random.default_rng(2)
        params = {"w.W": np.zeros(4)}
        state = init_adam_state(params)
        for _ in range(20):
            adam_step(params, {"w.W": rng.standard_normal(4)}, state, lr=0.01)
        assert (state.v["w.W"] >= 0).all()


class TestApplyL2:
    def test_lambda_zero_is_identity(self):
        grads = {"w.W": np.array([1.0]), "w.b": np.array([2.0])}
        params = {"w.W": np.array([5.0]), "w.b": np.array([5.0])}
        out = apply_l2(grads, params, 0.0, ["w.W"])
        npt.assert_array_equal(out["w.W"], [1.0])
        npt.assert_array_equal(out["w.b"], [2.0])

    def test_zero_params_leave_grads_unchanged(self):
        grads = {"w.W": np.array([1.0, -1.0])}
        params = {"w.W": np.zeros(2)}
        out = apply_l2(grads, params, 0.3, ["w.W"])
        npt.assert_array_equal(out["w.W"], grads["w.W"])

    def test_stated_arithmetic_example(self):
        # lambda=0.3, theta=2, raw grad 1 -> 1 + 2*0.3*2 = 2.2
        out = apply_l2({"w.W": np.array([1.0])}, {"w.W": np.array([2.0])}, 0.3, ["w.W"])
        assert out["w.W"][0] == pytest.approx(2.2, abs=1e-12)

    def test_bias_gradients_never_modified(self):
        grads = {"w.W": np.array([1.0]), "w.b": np.array([1.0])}
        params = {"w.W": np.array([3.0]), "w.b": np.array([3.0])}
        out = apply_l2(grads, params, 0.5, ["w.W"])
        assert out["w.b"][0] == 1.0
        assert out["w.W"][0] == pytest.approx(4.0)
        with pytest.raises(ConfigError, match="w.b"):
            apply_l2(grads, params, 0.5, ["w.W", "w.b"])

    def test_does_not_mutate_input_grads(self):
        grads = {"w.W": np.array([1.0])}
        params = {"w.W": np.array([2.0])}
        apply_l2(grads, params, 0.3, ["w.W"])
        assert grads["w.W"][0] == 1.0

    def test_penalty_term_value(self):
        params = {"a.W": np.array([1.0, 2.0]), "a.b": np.array([10.0])}
        assert l2_penalty(params, 0.3, ["a.W"]) == pytest.approx(0.3 * 5.0)
        assert l2_penalty(params, 0.0, ["a.W"]) == 0.0

    def test_grad_is_derivative_of_penalty(self):
        rng = np.random.default_rng(3)
        params = {"w.W": rng.standard_normal(6)}
        lam = 0.3
        h = 1e-6
        out = apply_l2({"w.W": np.zeros(6)}, params, lam, ["w.W"])
        for i in range(6):
            plus, minus = params["w.W"].copy(), params["w.W"].copy()
            plus[i] += h
            minus[i] -= h
            numeric = (l2_penalty({"w.W": plus}, lam, ["w.W"]) - l2_penalty({"w.W": minus}, lam, ["w.W"])) / (2 * h)
            assert out["w.W"][i] == pytest.approx(numeric, abs=1e-6)


class TestHyperparams:
    def test_defaults_are_the_shipped_training_knobs(self):
        hp = Hyperparams()
        assert configio.dump(hp) == {
            "learning_rate": 0.001, "epochs": 40, "batch_size": 16, "dropout_rate": 0.2, "l2_lambda": 0.3,
        }

    @pytest.mark.parametrize(
        "bad",
        [
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"epochs": 0},
            {"batch_size": 0},
            {"dropout_rate": 1.0},
            {"dropout_rate": -0.1},
            {"l2_lambda": -0.3},
            {"optimizer": "sgd"},
            {"loss": "mse"},
        ],
    )
    def test_invalid_values_rejected(self, bad):
        # optimizer and loss are not knobs: Adam and cross-entropy are the only choices
        with pytest.raises(ConfigError):
            configio.load(Hyperparams, bad)

    def test_dict_round_trip(self):
        hp = Hyperparams(learning_rate=0.01, batch_size=8)
        assert configio.load(Hyperparams, configio.dump(hp)) == hp

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="momentum"):
            configio.load(Hyperparams, {"learning_rate": 0.1, "momentum": 0.9})
