"""Tests for the tape-based autograd engine."""

import numpy as np
import pytest

from repro.nn import autograd as ag
from repro.nn import functional as F


def numerical_gradient(loss_fn, array, eps=1e-6):
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        original = array[idx]
        array[idx] = original + eps
        plus = loss_fn()
        array[idx] = original - eps
        minus = loss_fn()
        array[idx] = original
        grad[idx] = (plus - minus) / (2 * eps)
    return grad


class TestTensorBasics:
    def test_leaf_requires_grad(self):
        p = ag.parameter(np.zeros(3))
        assert p.requires_grad

    def test_requires_grad_propagates(self):
        p = ag.parameter(np.ones((2, 2)))
        x = ag.Tensor(np.ones((2, 2)))
        assert ag.relu(p).requires_grad
        assert not ag.relu(x).requires_grad

    def test_zero_grad(self):
        p = ag.parameter(np.ones(2))
        out = ag.mean(ag.relu(p))
        out.backward()
        assert p.grad is not None
        p.zero_grad()
        assert p.grad is None

    def test_gradient_accumulates_across_backward_calls(self):
        p = ag.parameter(np.ones(2))
        ag.mean(p).backward()
        first = p.grad.copy()
        ag.mean(p).backward()
        np.testing.assert_allclose(p.grad, 2 * first)

    def test_diamond_graph_accumulates_once_per_path(self):
        """Two branches reading the same parameter each contribute their
        gradient exactly once."""
        p = ag.parameter(np.array([2.0]))
        a = ag.relu(p)
        b = ag.relu(p)
        total = ag.Tensor(
            a.data + b.data, (a, b),
            lambda g: (a._accumulate(g), b._accumulate(g)),
        )
        ag.mean(total).backward()
        np.testing.assert_allclose(p.grad, [2.0])

    @pytest.mark.parametrize("grad", [
        np.array([[-0.0, 1.5, np.nan], [0.0, -2.0, -0.0]]),
        np.array([-0.0, 3.0, np.inf]),        # broadcast over rows
        np.array(-0.0),                       # broadcast scalar
    ])
    def test_first_gradient_matches_zeros_plus_grad(self, grad):
        """The first gradient keeps the bits of ``zeros_like(data) += g``
        (signed zeros and NaN included) and never aliases *grad*."""
        data = np.ones((2, 3))
        expected = np.zeros_like(data)
        expected += grad
        p = ag.parameter(data)
        p._accumulate(grad)
        assert p.grad.shape == data.shape and p.grad.dtype == data.dtype
        assert np.array_equal(p.grad, expected, equal_nan=True)
        assert np.array_equal(np.signbit(p.grad), np.signbit(expected))
        assert not np.shares_memory(p.grad, grad)


class TestOps:
    def test_relu_gradient(self, rng):
        x = ag.parameter(rng.standard_normal((3, 4)))
        ag.mean(ag.relu(x)).backward()
        expected = numerical_gradient(
            lambda: np.maximum(x.data, 0).mean(), x.data)
        np.testing.assert_allclose(x.grad, expected, atol=1e-6)

    def test_linear_gradients(self, rng):
        x = ag.parameter(rng.standard_normal((4, 3)))
        w = ag.parameter(rng.standard_normal((2, 3)))
        b = ag.parameter(rng.standard_normal(2))
        ag.mean(ag.linear(x, w, b)).backward()
        for t in (x, w, b):
            expected = numerical_gradient(
                lambda: (x.data @ w.data.T + b.data).mean(), t.data)
            np.testing.assert_allclose(t.grad, expected, atol=1e-6)

    def test_conv2d_gradients(self, rng):
        x = ag.parameter(rng.standard_normal((2, 2, 6, 6)))
        w = ag.parameter(rng.standard_normal((3, 2, 3, 3)))
        b = ag.parameter(rng.standard_normal(3))
        ag.mean(ag.conv2d(x, w, b, padding=1)).backward()
        for t in (x, w, b):
            expected = numerical_gradient(
                lambda: F.conv2d(x.data, w.data, b.data, 1,
                                 algorithm="naive").mean(),
                t.data)
            np.testing.assert_allclose(t.grad, expected, atol=1e-5)

    def test_max_pool_gradient(self, rng):
        x = ag.parameter(rng.standard_normal((2, 2, 6, 6)))
        ag.mean(ag.max_pool2d(x, 2)).backward()
        expected = numerical_gradient(
            lambda: F.max_pool2d(x.data, 2).mean(), x.data)
        np.testing.assert_allclose(x.grad, expected, atol=1e-6)

    def test_flatten_gradient(self, rng):
        x = ag.parameter(rng.standard_normal((2, 3, 2, 2)))
        ag.mean(ag.flatten(x)).backward()
        np.testing.assert_allclose(x.grad, np.full(x.data.shape, 1 / 24))

    def test_cross_entropy_gradient(self, rng):
        logits = ag.parameter(rng.standard_normal((4, 5)))
        labels = np.array([0, 2, 4, 1])
        ag.cross_entropy(logits, labels).backward()

        def loss():
            from repro.nn.functional import softmax
            p = softmax(logits.data)
            return -np.log(p[np.arange(4), labels]).mean()

        expected = numerical_gradient(loss, logits.data)
        np.testing.assert_allclose(logits.grad, expected, atol=1e-5)


def _per_window_pool_grad(x, kernel_size, stride, grad):
    """Test oracle: the per-window loop ``max_pool2d``'s backward once ran,
    one ``meshgrid`` and ``np.add.at`` per window position."""
    n, c, h, w = x.shape
    oh = (h - kernel_size) // stride + 1
    ow = (w - kernel_size) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(
        x, (kernel_size, kernel_size), axis=(2, 3)
    )[:, :, ::stride, ::stride]
    arg = windows.reshape(n, c, oh, ow, -1).argmax(axis=-1)
    dx = np.zeros_like(x)
    du, dv = np.divmod(arg, kernel_size)
    for i in range(oh):
        for j in range(ow):
            rows = i * stride + du[:, :, i, j]
            cols = j * stride + dv[:, :, i, j]
            nn, cc = np.meshgrid(np.arange(n), np.arange(c), indexing="ij")
            np.add.at(dx, (nn, cc, rows, cols), grad[:, :, i, j])
    return dx


class TestMaxPoolBackward:
    """The vectorized ``max_pool2d`` backward is pinned bit for bit, sign
    of zero included, to the per-window loop it replaced."""

    @pytest.mark.parametrize("shape, kernel_size, stride", [
        ((2, 3, 8, 8), 2, 2),       # stride = kernel
        ((2, 3, 8, 8), 3, 1),       # overlapping windows
        ((2, 2, 9, 9), 3, 2),       # overlapping, strided
        ((2, 2, 7, 9), 2, 2),       # extents not divisible by the kernel
        ((1, 2, 10, 7), 4, 3),      # ragged and overlapping
        ((2, 4, 6, 6), 6, 6),       # global pool
    ])
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_per_window_loop(self, rng, shape, kernel_size, stride,
                                     ties):
        if ties:
            # Few distinct values: most windows hold a tied maximum, and
            # the zeros come in both signs.
            x_data = rng.integers(-1, 2, shape).astype(float)
            x_data[x_data == 0] = np.where(
                rng.random(np.count_nonzero(x_data == 0)) < 0.5, 0.0, -0.0)
        else:
            x_data = rng.standard_normal(shape)
        x = ag.parameter(x_data)
        out = ag.max_pool2d(x, kernel_size, stride)
        grad = rng.standard_normal(out.shape)
        grad[rng.random(out.shape) < 0.3] = -0.0
        # A -0.0 seed shows the sign of every zero the backward adds.
        x.grad = np.full(shape, -0.0)
        out._backward_fn(grad)
        expected = np.full(shape, -0.0) + _per_window_pool_grad(
            x_data, kernel_size, stride, grad)
        assert np.array_equal(x.grad, expected)
        assert np.array_equal(np.signbit(x.grad), np.signbit(expected))

    @pytest.mark.parametrize("kernel_size, stride, match", [
        (2, 0, "stride must be positive"),
        (0, None, "kernel_size must be positive"),
        (5, 1, "does not fit"),
    ])
    def test_rejects_what_the_functional_door_rejects(
            self, rng, kernel_size, stride, match):
        x_data = rng.standard_normal((1, 2, 4, 4))
        with pytest.raises(ValueError, match=match):
            F.max_pool2d(x_data, kernel_size, stride)
        with pytest.raises(ValueError, match=match):
            ag.max_pool2d(ag.parameter(x_data), kernel_size, stride)


class TestTraining:
    def test_sgd_reduces_quadratic(self):
        p = ag.parameter(np.array([5.0, -3.0]))
        opt = ag.SGD([p], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            loss = ag.mean(ag.relu(ag.Tensor(p.data ** 2, (p,),
                                             lambda g: p._accumulate(
                                                 2 * p.data * g))))
            loss.backward()
            opt.step()
        assert np.abs(p.data).max() < 0.5

    def test_sgd_momentum_state(self):
        p = ag.parameter(np.array([1.0]))
        opt = ag.SGD([p], lr=0.1, momentum=0.9)
        p.grad = np.array([1.0])
        opt.step()
        first = p.data.copy()
        p.grad = np.array([0.0])
        opt.step()  # momentum keeps moving
        assert p.data[0] < first[0]

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            ag.SGD([], lr=0.0)

    def test_tiny_cnn_learns_separable_task(self, rng):
        """A one-conv-layer network learns to separate bright-left from
        bright-right images, training entirely through PolyHankel."""
        n = 40
        x_data = rng.standard_normal((n, 1, 8, 8)) * 0.1
        labels = rng.integers(0, 2, size=n)
        x_data[labels == 0, :, :, :4] += 1.0
        x_data[labels == 1, :, :, 4:] += 1.0

        w = ag.parameter(rng.standard_normal((2, 1, 3, 3)) * 0.3)
        b = ag.parameter(np.zeros(2))
        lw = ag.parameter(rng.standard_normal((2, 2 * 36)) * 0.1)
        opt = ag.SGD([w, b, lw], lr=0.05, momentum=0.9)

        losses = []
        for _ in range(30):
            opt.zero_grad()
            h = ag.relu(ag.conv2d(ag.Tensor(x_data), w, b))
            logits = ag.linear(ag.flatten(h), lw)
            loss = ag.cross_entropy(logits, labels)
            loss.backward()
            opt.step()
            losses.append(float(loss.data))

        assert losses[-1] < losses[0] * 0.5
        preds = np.argmax(
            ag.linear(ag.flatten(ag.relu(ag.conv2d(
                ag.Tensor(x_data), w, b))), lw).data, axis=1)
        assert (preds == labels).mean() > 0.9
