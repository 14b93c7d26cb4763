"""Finite-difference verification of the hand-written backward passes.

The harness re-runs the model in float64 (same kernels, wider element type)
with dropout disabled, compares backprop against central differences
(L(theta+h) - L(theta-h)) / 2h on a sample of coordinates per parameter
tensor, and reports the worst relative error per tensor.

Relative error is |a - n| / max(|a|, |n|, 0.001); the floor keeps coordinates
whose true gradient is below the finite-difference noise floor from producing
spurious failures while still flagging any real disagreement loudly.
"""

from dataclasses import dataclass

import numpy as np

from wellqc.nn.model import INFER, Model, model_backward, model_forward, model_loss

REL_ERR_FLOOR = 1e-3
H = 1e-5  # finite-difference step
MAX_COORDS_PER_PARAM = 24  # coordinates sampled per parameter tensor


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), REL_ERR_FLOOR)


def central_difference(f, theta: np.ndarray, index, h: float) -> float:
    """(f(theta + h e_i) - f(theta - h e_i)) / 2h, restoring theta afterwards."""
    original = theta[index]
    theta[index] = original + h
    plus = f()
    theta[index] = original - h
    minus = f()
    theta[index] = original
    return (plus - minus) / (2.0 * h)


@dataclass
class GradCheckReport:
    per_param: dict[str, float]
    coords_checked: dict[str, int]
    h: float
    tolerance: float

    @property
    def max_rel_err(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance

    def failing_params(self) -> list[str]:
        return sorted(k for k, v in self.per_param.items() if v >= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "h": self.h,
            "tolerance": self.tolerance,
            "max_rel_err": self.max_rel_err,
            "passed": self.passed,
            "per_param": {k: self.per_param[k] for k in sorted(self.per_param)},
            "coords_checked": {k: self.coords_checked[k] for k in sorted(self.coords_checked)},
        }


def grad_check(model: Model, batch, labels, tolerance: float = 1e-6) -> GradCheckReport:
    """Compare backprop with central differences; the report says whether they agree.

    Intended for small models (a few thousand parameters); each sampled
    coordinate costs two forward passes.
    """
    check = model.astype(np.float64)
    check.mode = INFER
    batch = np.asarray(batch, dtype=np.float64)
    labels = np.asarray(labels)

    probs, cache = model_forward(check, batch)
    analytic = model_backward(check, cache, labels)

    def loss() -> float:
        _, c = model_forward(check, batch)
        return model_loss(c, labels)

    rng = np.random.default_rng(0)  # a rerun checks the same coordinates
    per_param: dict[str, float] = {}
    coords_checked: dict[str, int] = {}
    for key in check.params:
        theta = check.params[key]
        flat = theta.reshape(-1)
        n = flat.size
        if n <= MAX_COORDS_PER_PARAM:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=MAX_COORDS_PER_PARAM, replace=False)
        worst = 0.0
        a_flat = analytic[key].reshape(-1)
        for i in coords:
            numeric = central_difference(loss, flat, int(i), H)
            worst = max(worst, relative_error(float(a_flat[i]), numeric))
        per_param[key] = worst
        coords_checked[key] = len(coords)

    return GradCheckReport(per_param=per_param, coords_checked=coords_checked, h=H, tolerance=tolerance)
