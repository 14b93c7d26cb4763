"""Kernel-level tests: forward contracts against independent oracles."""

import numpy as np
import numpy.testing as npt
import pytest

from wellqc.errors import LabelError, ShapeError
from wellqc.nn import ops


def conv2d_reference(x, w, b, stride=1):
    """Naive triple-loop convolution, kept deliberately independent of ops."""
    h, wid, cin = x.shape
    kh, kw, _, cout = w.shape
    oh = (h - kh) // stride + 1
    ow = (wid - kw) // stride + 1
    out = np.zeros((oh, ow, cout), dtype=np.float64)
    for y in range(oh):
        for xx in range(ow):
            for o in range(cout):
                acc = float(b[o])
                for dy in range(kh):
                    for dx in range(kw):
                        for c in range(cin):
                            acc += x[y * stride + dy, xx * stride + dx, c] * w[dy, dx, c, o]
                out[y, xx, o] = acc
    return out


class TestConv2dForward:
    def test_identity_kernel_extracts_interior(self):
        rng = np.random.default_rng(0)
        x = rng.random((1, 5, 5, 1))
        w = np.zeros((3, 3, 1, 1))
        w[1, 1, 0, 0] = 1.0
        out = ops.conv2d_forward(x, w, np.zeros(1))
        npt.assert_allclose(out[0, :, :, 0], x[0, 1:4, 1:4, 0])

    def test_constant_field_times_ones_kernel(self):
        v = 0.37
        x = np.full((1, 6, 6, 1), v)
        w = np.ones((3, 3, 1, 1))
        out = ops.conv2d_forward(x, w, np.zeros(1))
        npt.assert_allclose(out, v * 9.0, rtol=1e-6)

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.random((6, 6, 2))
        w = rng.standard_normal((3, 3, 2, 2))
        b = rng.standard_normal(2)
        out = ops.conv2d_forward(x[None], w, b)[0]
        npt.assert_allclose(out, conv2d_reference(x, w, b), atol=1e-6)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_strides_match_oracle(self, stride):
        rng = np.random.default_rng(stride)
        x = rng.random((9, 8, 3))
        w = rng.standard_normal((3, 2, 3, 4))
        b = rng.standard_normal(4)
        out = ops.conv2d_forward(x[None], w, b, stride=stride)[0]
        npt.assert_allclose(out, conv2d_reference(x, w, b, stride=stride), atol=1e-6)

    def test_batched_equals_per_image(self):
        rng = np.random.default_rng(2)
        x = rng.random((3, 7, 7, 2))
        w = rng.standard_normal((3, 3, 2, 2))
        b = rng.standard_normal(2)
        batched = ops.conv2d_forward(x, w, b)
        for i in range(3):
            npt.assert_allclose(batched[i : i + 1], ops.conv2d_forward(x[i : i + 1], w, b))

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ops.conv2d_forward(np.zeros((1, 5, 5, 2)), np.zeros((3, 3, 1, 4)), np.zeros(4))

    def test_kernel_larger_than_input_raises(self):
        with pytest.raises(ShapeError):
            ops.conv2d_forward(np.zeros((1, 2, 2, 1)), np.zeros((3, 3, 1, 1)), np.zeros(1))


class TestConv2dBackward:
    def test_zero_grad_out_gives_zero_grads(self):
        rng = np.random.default_rng(3)
        x = rng.random((1, 5, 5, 2))
        w = rng.standard_normal((3, 3, 2, 3))
        gx, gw, gb = ops.conv2d_backward(np.zeros((1, 3, 3, 3)), x, w)
        assert not gx.any() and not gw.any() and not gb.any()

    def test_scalar_case_product_rule(self):
        # 1x1 input, 1x1 kernel: y = w*x + b, so dL/dw = g*x and dL/dx = g*w
        x = np.array([[[[2.0]]]])
        w = np.array([[[[3.0]]]])
        g = np.array([[[[5.0]]]])
        gx, gw, gb = ops.conv2d_backward(g, x, w)
        assert gw[0, 0, 0, 0] == pytest.approx(10.0)
        assert gx[0, 0, 0, 0] == pytest.approx(15.0)
        assert gb[0] == pytest.approx(5.0)

    def test_bias_grad_sums_grad_out(self):
        rng = np.random.default_rng(4)
        x = rng.random((2, 6, 6, 1))
        w = rng.standard_normal((3, 3, 1, 2))
        g = rng.standard_normal((2, 4, 4, 2))
        _, _, gb = ops.conv2d_backward(g, x, w)
        npt.assert_allclose(gb, g.sum(axis=(0, 1, 2)), rtol=1e-6)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_finite_differences(self, stride):
        rng = np.random.default_rng(5)
        x = rng.random((2, 6, 6, 2))
        w = 0.5 * rng.standard_normal((3, 3, 2, 2))
        b = 0.1 * rng.standard_normal(2)
        proj = rng.standard_normal(ops.conv2d_forward(x, w, b, stride).shape)

        def loss(xv, wv, bv):
            return float((ops.conv2d_forward(xv, wv, bv, stride) * proj).sum())

        gx, gw, gb = ops.conv2d_backward(proj, x, w, stride=stride)
        h = 1e-5
        for arr, grad in ((x, gx), (w, gw), (b, gb)):
            flat = arr.reshape(-1)
            for i in rng.choice(flat.size, size=min(10, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + h
                plus = loss(x, w, b)
                flat[i] = orig - h
                minus = loss(x, w, b)
                flat[i] = orig
                numeric = (plus - minus) / (2 * h)
                assert grad.reshape(-1)[i] == pytest.approx(numeric, rel=1e-6, abs=1e-8)


class TestMaxPool:
    def test_constant_image_pools_to_constant(self):
        x = np.full((1, 6, 6, 2), 0.25)
        out, _ = ops.maxpool2d_forward(x, window=2, stride=2)
        npt.assert_allclose(out, 0.25)
        assert out.shape == (1, 3, 3, 2)

    def test_picks_window_max(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        out, _ = ops.maxpool2d_forward(x, window=2, stride=2)
        npt.assert_allclose(out[0, :, :, 0], [[5, 7], [13, 15]])

    def test_tie_routes_to_first_in_row_major_order(self):
        x = np.ones((1, 2, 2, 1))
        out, arg = ops.maxpool2d_forward(x, window=2, stride=2)
        assert arg[0, 0, 0, 0] == 0  # all equal: first window cell wins
        g = ops.maxpool2d_backward(np.ones((1, 1, 1, 1)), arg, x.shape, window=2, stride=2)
        npt.assert_allclose(g[0, :, :, 0], [[1, 0], [0, 0]])

    def test_backward_routes_to_argmax(self):
        rng = np.random.default_rng(6)
        x = rng.random((2, 6, 6, 3))
        out, arg = ops.maxpool2d_forward(x, window=2, stride=2)
        g = rng.standard_normal(out.shape)
        gx = ops.maxpool2d_backward(g, arg, x.shape, window=2, stride=2)
        # total gradient is conserved and lands only on max positions
        npt.assert_allclose(gx.sum(), g.sum(), rtol=1e-6)
        assert np.count_nonzero(gx) == out.size

    def test_overlapping_windows_accumulate(self):
        x = np.arange(9, dtype=np.float64).reshape(1, 3, 3, 1)
        x[0, 1, 1, 0] = 100.0  # center belongs to all four stride-1 windows
        out, arg = ops.maxpool2d_forward(x, window=2, stride=1)
        g = np.ones(out.shape)
        gx = ops.maxpool2d_backward(g, arg, x.shape, window=2, stride=1)
        assert gx[0, 1, 1, 0] == pytest.approx(4.0)

    def test_window_exceeding_input_raises(self):
        with pytest.raises(ShapeError):
            ops.maxpool2d_forward(np.zeros((1, 2, 2, 1)), window=3, stride=1)


class TestEltwiseLayers:
    def test_relu_definition(self):
        npt.assert_allclose(ops.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_relu_backward_masks(self):
        x = np.array([-1.0, 0.5, 0.0])
        g = np.array([10.0, 10.0, 10.0])
        npt.assert_allclose(ops.relu_backward(g, x), [0.0, 10.0, 0.0])

    def test_flatten_is_row_major(self):
        x = np.arange(16).reshape(2, 2, 2, 2)
        npt.assert_allclose(ops.flatten(x), np.arange(16).reshape(2, 8))

    def test_dense_identity_map(self):
        x = np.array([[1.0, 2.0, 3.0]])
        out = ops.dense_forward(x, np.eye(3), np.zeros(3))
        npt.assert_allclose(out, x)

    def test_dense_backward_shapes_and_values(self):
        rng = np.random.default_rng(7)
        x = rng.random((4, 3))
        w = rng.standard_normal((3, 2))
        g = rng.standard_normal((4, 2))
        gx, gw, gb = ops.dense_backward(g, x, w)
        npt.assert_allclose(gw, x.T @ g)
        npt.assert_allclose(gb, g.sum(axis=0))
        npt.assert_allclose(gx, g @ w.T)

    def test_dense_width_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ops.dense_forward(np.zeros((1, 4)), np.zeros((3, 2)), np.zeros(2))


class TestDropout:
    def test_rate_zero_is_identity_in_both_modes(self):
        x = np.random.default_rng(8).random((10, 10))
        for mode in ("train", "infer"):
            out, mask = ops.dropout_forward(x, 0.0, np.random.default_rng(0), mode)
            npt.assert_array_equal(out, x)
            assert mask is None

    def test_infer_mode_is_exact_identity(self):
        x = np.random.default_rng(9).random((10, 10)).astype(np.float32)
        out, mask = ops.dropout_forward(x, 0.2, np.random.default_rng(0), "infer")
        assert out is x and mask is None

    def test_train_mode_statistics(self):
        # law of large numbers on 1e5 unit elements at rate 0.2
        x = np.ones(100_000, dtype=np.float32)
        out, mask = ops.dropout_forward(x, 0.2, np.random.default_rng(123), "train")
        zero_fraction = float((out == 0).mean())
        assert abs(zero_fraction - 0.2) < 0.01
        assert abs(float(out.mean()) - 1.0) < 0.02

    def test_survivors_scaled_by_inverse_keep(self):
        x = np.ones(1000, dtype=np.float32)
        out, _ = ops.dropout_forward(x, 0.25, np.random.default_rng(3), "train")
        survivors = out[out != 0]
        npt.assert_allclose(survivors, 1.0 / 0.75, rtol=1e-6)

    def test_backward_reuses_mask(self):
        x = np.ones(100, dtype=np.float32)
        out, mask = ops.dropout_forward(x, 0.5, np.random.default_rng(4), "train")
        g = np.ones(100, dtype=np.float32)
        gx = ops.dropout_backward(g, mask, 0.5)
        npt.assert_array_equal(gx, out)


class TestSoftmaxAndLoss:
    def test_symmetric_logits(self):
        npt.assert_allclose(ops.softmax(np.zeros((1, 2))), [[0.5, 0.5]])

    def test_shift_invariance(self):
        rng = np.random.default_rng(10)
        z = rng.standard_normal((1, 5))
        npt.assert_allclose(ops.softmax(z), ops.softmax(z + 123.4), atol=1e-12)

    def test_closed_form_log_ratio(self):
        # softmax([ln 1, ln 3]) = [1/4, 3/4]
        out = ops.softmax(np.log(np.array([[1.0, 3.0]])))
        npt.assert_allclose(out, [[0.25, 0.75]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        z = 10 * rng.standard_normal((40, 3))
        p = ops.softmax(z)
        npt.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)
        assert (p >= 0).all() and (p <= 1).all()

    def test_log_softmax_agrees_with_log_of_softmax(self):
        rng = np.random.default_rng(12)
        z = rng.standard_normal((8, 4))
        npt.assert_allclose(ops.log_softmax(z), np.log(ops.softmax(z)), atol=1e-10)

    def test_certain_prediction_has_zero_loss(self):
        lp = ops.log_softmax(np.array([[0.0, 100.0]]))
        assert ops.sparse_ce_from_log_probs(lp, np.array([1])) == pytest.approx(0.0)

    def test_uniform_two_class_loss_is_ln2(self):
        lp = ops.log_softmax(np.zeros((1, 2)))
        assert ops.sparse_ce_from_log_probs(lp, np.array([0])) == pytest.approx(np.log(2), abs=1e-12)

    def test_label_out_of_range_raises(self):
        lp = np.log(np.array([[0.5, 0.5]]))
        with pytest.raises(LabelError):
            ops.sparse_ce_from_log_probs(lp, np.array([2]))
        with pytest.raises(LabelError):
            ops.sparse_ce_grad_logits(np.array([[0.5, 0.5]]), np.array([-1]))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        z = rng.standard_normal((3, 4))
        labels = np.array([0, 3, 1])
        p = ops.softmax(z)
        grad = ops.sparse_ce_grad_logits(p, labels)
        h = 1e-6
        for i in range(z.shape[0]):
            for j in range(z.shape[1]):
                zp, zm = z.copy(), z.copy()
                zp[i, j] += h
                zm[i, j] -= h
                numeric = (
                    ops.sparse_ce_from_log_probs(ops.log_softmax(zp), labels)
                    - ops.sparse_ce_from_log_probs(ops.log_softmax(zm), labels)
                ) / (2 * h)
                assert grad[i, j] == pytest.approx(numeric, abs=1e-6)

    def test_fused_loss_stays_finite_for_extreme_logits(self):
        z = np.array([[1000.0, -1000.0]])
        lp = ops.log_softmax(z)
        loss = ops.sparse_ce_from_log_probs(lp, np.array([1]))
        assert np.isfinite(loss) and loss == pytest.approx(2000.0)
