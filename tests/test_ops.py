"""Kernel-level tests: forward contracts against independent oracles."""

import numpy as np
import numpy.testing as npt
import pytest

from wellqc import parallel
from wellqc.errors import LabelError, ShapeError
from wellqc.nn import ops
from wellqc.parallel import split_thread


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
        out = ops.maxpool2d_forward(x, window=2, stride=2)
        npt.assert_allclose(out, 0.25)
        assert out.shape == (1, 3, 3, 2)

    def test_picks_window_max(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        out = ops.maxpool2d_forward(x, window=2, stride=2)
        npt.assert_allclose(out[0, :, :, 0], [[5, 7], [13, 15]])

    def test_tie_routes_to_first_in_row_major_order(self):
        x = np.ones((1, 2, 2, 1))
        out = ops.maxpool2d_forward(x, window=2, stride=2)
        g = ops.maxpool2d_backward(np.ones((1, 1, 1, 1)), (x, out), x.shape, window=2, stride=2)
        npt.assert_allclose(g[0, :, :, 0], [[1, 0], [0, 0]])  # all equal: first window cell wins

    def test_backward_routes_to_argmax(self):
        rng = np.random.default_rng(6)
        x = rng.random((2, 6, 6, 3))
        out = ops.maxpool2d_forward(x, window=2, stride=2)
        g = rng.standard_normal(out.shape)
        gx = ops.maxpool2d_backward(g, (x, out), x.shape, window=2, stride=2)
        # total gradient is conserved and lands only on max positions
        npt.assert_allclose(gx.sum(), g.sum(), rtol=1e-6)
        assert np.count_nonzero(gx) == out.size

    def test_overlapping_windows_accumulate(self):
        x = np.arange(9, dtype=np.float64).reshape(1, 3, 3, 1)
        x[0, 1, 1, 0] = 100.0  # center belongs to all four stride-1 windows
        out = ops.maxpool2d_forward(x, window=2, stride=1)
        g = np.ones(out.shape)
        gx = ops.maxpool2d_backward(g, (x, out), x.shape, window=2, stride=1)
        assert gx[0, 1, 1, 0] == pytest.approx(4.0)

    def test_window_exceeding_input_raises(self):
        with pytest.raises(ShapeError):
            ops.maxpool2d_forward(np.zeros((1, 2, 2, 1)), window=3, stride=1)

    def test_nan_in_window_gives_nan_output(self):
        x = np.zeros((1, 4, 4, 1), dtype=np.float32)
        x[0, 1, 2, 0] = np.nan
        out = ops.maxpool2d_forward(x, window=2, stride=2)
        assert np.isnan(out[0, 0, 1, 0])
        assert np.count_nonzero(np.isnan(out)) == 1

    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_finite_differences(self, stride):
        rng = np.random.default_rng(14)
        x = rng.permutation(2 * 7 * 7 * 2).reshape(2, 7, 7, 2) / 10.0  # 0.1 apart: no tie within h
        proj = rng.standard_normal(ops.maxpool2d_forward(x, 2, stride).shape)

        def loss():
            return float((ops.maxpool2d_forward(x, 2, stride) * proj).sum())

        out = ops.maxpool2d_forward(x, 2, stride)
        gx = ops.maxpool2d_backward(proj, (x, out), x.shape, 2, stride)
        h = 1e-3  # the loss is linear between ties, so a large step only shrinks roundoff
        flat = x.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus = loss()
            flat[i] = orig - h
            minus = loss()
            flat[i] = orig
            assert gx.reshape(-1)[i] == pytest.approx((plus - minus) / (2 * h), rel=1e-6, abs=1e-8)


def im2col_oracle(x, kh, kw, stride):
    """Reference gather: one strided copy per window offset (dy, dx)."""
    n, h, w, c = x.shape
    oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
    cols = np.empty((n, oh, ow, kh, kw, c), dtype=x.dtype)
    for dy in range(kh):
        ylim = dy + (oh - 1) * stride + 1
        for dx in range(kw):
            xlim = dx + (ow - 1) * stride + 1
            cols[:, :, :, dy, dx, :] = x[:, dy:ylim:stride, dx:xlim:stride, :]
    return cols


def col2im_oracle(gcols, input_shape, stride):
    """Reference scatter-add of (N, OH, OW, KH, KW, C) window gradients, one offset at a time."""
    _, oh, ow, kh, kw, _ = gcols.shape
    gx = np.zeros(input_shape, dtype=gcols.dtype)
    for dy in range(kh):
        ylim = dy + (oh - 1) * stride + 1
        for dx in range(kw):
            xlim = dx + (ow - 1) * stride + 1
            gx[:, dy:ylim:stride, dx:xlim:stride, :] += gcols[:, :, :, dy, dx, :]
    return gx


def conv_oracle(x, w, b, stride, g):
    """Reference im2col convolution: forward output and (grad_input, grad_weights, grad_bias)."""
    kh, kw, cin, cout = w.shape
    cols = im2col_oracle(x, kh, kw, stride)
    flat = cols.reshape(-1, kh * kw * cin)
    out = (flat @ w.reshape(-1, cout)).reshape(*cols.shape[:3], cout) + b
    gflat = g.reshape(-1, cout)
    gcols = (gflat @ w.reshape(-1, cout).T).reshape(cols.shape)
    return out, (col2im_oracle(gcols, x.shape, stride), (flat.T @ gflat).reshape(w.shape), g.sum(axis=(0, 1, 2)))


def maxpool_oracle(x, window, stride, g):
    """Reference argmax pooling: forward output and input gradient.

    argmax takes the first maximum in row-major window order; the output is
    read back at that index and the gradient put there.
    """
    cols = im2col_oracle(x, window, window, stride)
    n, oh, ow, _, _, c = cols.shape
    wins = cols.reshape(n, oh, ow, window * window, c)
    arg = wins.argmax(axis=3)[:, :, :, None, :]
    out = np.take_along_axis(wins, arg, axis=3)[:, :, :, 0, :]
    gwin = np.zeros(wins.shape, dtype=g.dtype)
    np.put_along_axis(gwin, arg, g[:, :, :, None, :], axis=3)
    return out, col2im_oracle(gwin.reshape(cols.shape), x.shape, stride)


def first_max_backward_oracle(x, out, window, stride, g):
    """The scatter-add pool backward: each gradient times its first-maximum mask, summed onto zeros.

    A window's cells are visited in row-major order; the first that equals the
    output takes the gradient and the others take gradient * 0.
    """
    cols = im2col_oracle(x, window, window, stride)
    unrouted = np.ones(out.shape, dtype=bool)
    gwin = np.empty(cols.shape, dtype=g.dtype)
    for dy in range(window):
        for dx in range(window):
            hit = (cols[:, :, :, dy, dx, :] == out) & unrouted
            unrouted &= ~hit
            gwin[:, :, :, dy, dx, :] = g * hit
    return col2im_oracle(gwin, x.shape, stride)


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


_rng = np.random.default_rng(15)
# id, float32 pooling input
POOL_INPUTS = [
    ("random", _rng.standard_normal((2, 11, 10, 3)).astype(np.float32)),
    ("all-equal", np.full((2, 11, 10, 3), 0.5, dtype=np.float32)),
    ("relu-zero-ties", ops.relu(_rng.standard_normal((2, 11, 10, 3)).astype(np.float32) - 0.5)),
    ("positive-ties", (_rng.integers(1, 3, size=(2, 11, 10, 3)) / 4).astype(np.float32)),
    ("odd-side-109", ops.relu(_rng.standard_normal((2, 109, 109, 2)).astype(np.float32))),
]


class TestKernelsMatchLoopOracles:
    """The window-view kernels against the original loop kernels, bit for bit."""

    @pytest.mark.parametrize("window, stride", [(2, 2), (2, 1), (3, 2), (3, 3), (2, 3)])
    @pytest.mark.parametrize("name, x", POOL_INPUTS, ids=[name for name, _ in POOL_INPUTS])
    def test_maxpool_forward_and_backward(self, name, x, window, stride):
        out = ops.maxpool2d_forward(x, window, stride)
        g = np.random.default_rng(16).standard_normal(out.shape).astype(np.float32)
        want_out, want_gx = maxpool_oracle(x, window, stride, g)
        assert_same_bits(out, want_out)
        assert_same_bits(ops.maxpool2d_backward(g, (x, out), x.shape, window, stride), want_gx)

    @pytest.mark.parametrize("window, stride", [(2, 2), (3, 3), (2, 1), (3, 2), (2, 3)])
    @pytest.mark.parametrize("side", [(109, 109), (7, 9)])
    def test_maxpool_backward_with_signed_zero_and_non_finite_gradients(self, side, window, stride):
        rng = np.random.default_rng(18)
        x = ops.relu(rng.standard_normal((2, *side, 3)).astype(np.float32))  # many zero ties
        x[0, 1, 1, 0] = np.nan  # a window with no maximum
        x[1, :2, :2, 1] = -0.0  # a tie of -0 with the +0 around it
        out = ops.maxpool2d_forward(x, window, stride)
        g = rng.standard_normal(out.shape).astype(np.float32)
        g.reshape(-1)[rng.choice(g.size, size=(4, 5), replace=False)] = [[-0.0], [np.nan], [np.inf], [-np.inf]]
        with np.errstate(invalid="ignore"):  # inf * 0, and inf + -inf where windows overlap
            got = ops.maxpool2d_backward(g, (x, out), x.shape, window, stride)
            want = first_max_backward_oracle(x, out, window, stride, g)
        assert_same_bits(got, want)

    def test_non_overlapping_pool_backward_does_not_scatter(self, monkeypatch):
        def no_scatter(*args):
            raise AssertionError("_scatter_add called")

        monkeypatch.setattr(ops, "_scatter_add", no_scatter)
        x = np.random.default_rng(19).standard_normal((2, 7, 9, 3)).astype(np.float32)
        for window in (2, 3):
            out = ops.maxpool2d_forward(x, window)
            g = np.ones(out.shape, np.float32)
            assert_same_bits(ops.maxpool2d_backward(g, (x, out), x.shape, window),
                             first_max_backward_oracle(x, out, window, window, g))
        out = ops.maxpool2d_forward(x, 2, 1)
        with pytest.raises(AssertionError, match="_scatter_add called"):
            ops.maxpool2d_backward(np.ones(out.shape, np.float32), (x, out), x.shape, 2, 1)

    def test_odd_side_pools_to_floor(self):
        x = np.zeros((1, 109, 109, 1), dtype=np.float32)
        assert ops.maxpool2d_forward(x, 2, 2).shape == (1, 54, 54, 1)

    def test_mixed_sign_zero_tie_keeps_first(self):
        # windows [-0, 0, 0, 0] and [0, -0, -0, -0] in row-major order
        x = np.array([[-0.0, 0.0, 0.0, -0.0], [0.0, 0.0, -0.0, -0.0]], dtype=np.float32).reshape(1, 2, 4, 1)
        out = ops.maxpool2d_forward(x, 2)
        assert_same_bits(out, maxpool_oracle(x, 2, 2, np.ones((1, 1, 2, 1), np.float32))[0])
        assert np.signbit(out).ravel().tolist() == [True, False]

    @pytest.mark.parametrize("kernel", [(3, 3), (3, 2), (2, 3)])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("cin", [1, 3])
    def test_conv_forward_and_grads(self, kernel, stride, cin):
        for cout in (4, 1):
            self.check_conv((2, 11, 10, cin), kernel, stride, cout)

    @pytest.mark.parametrize("cin", [1, 3])
    def test_conv_tall_input_pins_bias_summation_order(self, cin):
        # 2*68*68 = 9,248 output rows, more than numpy's 8,192-element iterator buffer
        for cout in (4, 1):
            self.check_conv((2, 70, 70, cin), (3, 3), 1, cout)

    @pytest.mark.parametrize("cout", [1, 8, 16])
    def test_conv_bias_is_added_to_the_gemm_result(self, cout):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((2, 11, 15, 3)).astype(np.float32)  # stride 2: OW = 7
        w = rng.standard_normal((3, 3, 3, cout)).astype(np.float32)
        b = rng.standard_normal(cout).astype(np.float32)
        want = (ops._im2col(x, 3, 3, 2) @ w.reshape(-1, cout) + b).reshape(2, 5, 7, cout)
        assert_same_bits(ops.conv2d_forward(x, w, b, 2), want)

    @staticmethod
    def check_conv(x_shape, kernel, stride, cout):
        """conv2d_forward and conv2d_backward against conv_oracle, bit for bit."""
        rng = np.random.default_rng(17)
        x = rng.standard_normal(x_shape).astype(np.float32)
        w = rng.standard_normal((*kernel, x_shape[3], cout)).astype(np.float32)
        b = rng.standard_normal(cout).astype(np.float32)
        out = ops.conv2d_forward(x, w, b, stride)
        g = rng.standard_normal(out.shape).astype(np.float32)
        want_out, want_grads = conv_oracle(x, w, b, stride, g)
        assert_same_bits(out, want_out)
        for got, want in zip(ops.conv2d_backward(g, x, w, stride), want_grads):
            assert_same_bits(got, want)


class TestKernelsMatchLoopOraclesWithAHelper(TestKernelsMatchLoopOracles):
    """Every oracle case above, run again with a ``split_thread`` helper open.

    The conv backward then computes its weight gradient on the helper, and a
    pool of two or more images runs half of them there.
    """

    @pytest.fixture(autouse=True)
    def helper(self, monkeypatch):
        monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
        with split_thread():
            assert parallel.helper_open()
            yield


class TestIm2col:
    def test_index_plane_is_built_once_per_shape_and_read_only(self):
        plane = ops._window_pixels(11, 10, 3, 3, 2)
        assert ops._window_pixels(11, 10, 3, 3, 2) is plane
        assert ops._window_pixels(11, 10, 3, 3, 1) is not plane
        assert not plane.flags.writeable
        with pytest.raises(ValueError):
            plane[0] = 1


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
