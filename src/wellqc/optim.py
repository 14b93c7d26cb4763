"""Adam optimizer with L2 weight regularization.

Adam is the only optimizer and sparse categorical cross-entropy the only
loss, so a run config names neither.

The update follows the bias-corrected form:

    t <- t + 1
    m <- b1*m + (1-b1)*g        v <- b2*v + (1-b2)*g^2
    m_hat = m / (1 - b1^t)      v_hat = v / (1 - b2^t)
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps)

L2 regularization adds lambda * sum(W^2) to the optimized loss, i.e. 2*lambda*W
to the weight gradients; bias gradients are never regularized.
"""

from dataclasses import dataclass

import numpy as np

from wellqc.errors import ConfigError, NonFiniteGradient

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class Hyperparams:
    """Training knobs; the defaults are the shipped configuration."""

    learning_rate: float = 0.001
    epochs: int = 40
    batch_size: int = 16
    dropout_rate: float = 0.2  # of every Dropout layer; an architecture stores no rate
    l2_lambda: float = 0.3

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.l2_lambda < 0:
            raise ConfigError(f"l2_lambda must be >= 0, got {self.l2_lambda}")


@dataclass
class AdamState:
    """Per-parameter first/second moments and the shared step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS


def init_adam_state(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(v) for k, v in params.items()},
        v={k: np.zeros_like(v) for k, v in params.items()},
    )


def adam_step(params, grads, state: AdamState, lr: float):
    """One Adam update, in place; returns (params, state).

    Gradients are in their parameter's dtype, as model_backward gives them,
    and are not modified. Every intermediate goes to one of two scratch
    buffers per tensor, in the operation order of the formula above.

    Raises NonFiniteGradient if any gradient element is NaN/Inf, naming the
    offending tensors, which is how a diverged run surfaces.
    """
    bad = [k for k, g in grads.items() if not np.all(np.isfinite(g))]
    if bad:
        raise NonFiniteGradient(f"non-finite gradient in {', '.join(sorted(bad))}")
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for key, g in grads.items():
        m, v = state.m[key], state.v[key]
        s1, s2 = np.empty_like(m), np.empty_like(v)
        m *= state.beta1
        m += np.multiply(1.0 - state.beta1, g, out=s1)
        v *= state.beta2
        v += np.multiply(1.0 - state.beta2, np.square(g, out=s1), out=s1)
        m_hat = np.divide(m, bc1, out=s1)
        v_hat = np.divide(v, bc2, out=s2)
        denom = np.add(np.sqrt(v_hat, out=s2), state.eps, out=s2)
        params[key] -= np.divide(np.multiply(lr, m_hat, out=s1), denom, out=s1)
    return params, state


def apply_l2(grads, params, l2_lambda: float, keys):
    """Add 2*lambda*W to the gradients of the weight tensors named in ``keys``.

    The training loop passes the dense-layer weights (see
    Model.regularized_keys), which is where nearly all of the parameters live;
    conv filters and biases are never regularized. Non-mutating: returns a new
    gradient dict.
    """
    if l2_lambda == 0.0:
        return dict(grads)
    covered = set(keys)
    out = {}
    for key, g in grads.items():
        if key in covered:
            if key.endswith(".b"):
                raise ConfigError(f"bias tensor {key} cannot be L2-regularized")
            out[key] = g + (2.0 * l2_lambda) * params[key]
        else:
            out[key] = g
    return out


def l2_penalty(params, l2_lambda: float, keys) -> float:
    """The regularization term of the optimized loss: lambda * sum(W^2) over the tensors named in ``keys``."""
    if l2_lambda == 0.0:
        return 0.0
    total = 0.0
    for key in keys:
        w = params[key]
        total += float(np.dot(w.reshape(-1), w.reshape(-1)))
    return l2_lambda * total
