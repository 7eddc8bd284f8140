"""Finite-difference checks for the N-dimensional backward passes.

Covers the rank-generic gradients (``convnd_backward_*`` for conv1d and
conv3d) and the transposed-convolution gradients, over the extended
parameter space — depthwise groups, dilation, per-axis stride and
asymmetric padding included.  Shapes stay tiny: the probe perturbs every
element of the differentiated tensor.
"""

import numpy as np
import pytest

from repro.baselines.registry import ConvOp, convolve
from repro.nn.grad import (
    conv_transpose2d_backward_input,
    conv_transpose2d_backward_weight,
    convnd_backward_bias,
    convnd_backward_input,
    convnd_backward_weight,
)
from tests.nn.test_grad import numerical_gradient


def _forward(op, x, w, **kwargs):
    return convolve(x, w, op=op, **kwargs)


#: (op, x_shape, w_shape, params) — every case exercises a distinct corner.
CASES = [
    pytest.param(ConvOp.CONV1D, (2, 3, 8), (2, 3, 3),
                 dict(padding=1, stride=1, dilation=1, groups=1),
                 id="1d-basic"),
    pytest.param(ConvOp.CONV1D, (1, 4, 9), (4, 1, 3),
                 dict(padding=2, stride=2, dilation=2, groups=4),
                 id="1d-depthwise-dilated"),
    pytest.param(ConvOp.CONV1D, (1, 2, 10), (2, 2, 3),
                 dict(padding=(2, 0), stride=3, dilation=1, groups=1),
                 id="1d-asym-strided"),
    pytest.param(ConvOp.CONV3D, (1, 2, 4, 4, 4), (2, 2, 2, 2, 2),
                 dict(padding=1, stride=1, dilation=1, groups=1),
                 id="3d-basic"),
    pytest.param(ConvOp.CONV3D, (1, 2, 5, 4, 6), (2, 1, 2, 2, 2),
                 dict(padding=1, stride=(1, 2, 1), dilation=(2, 1, 1),
                      groups=2),
                 id="3d-grouped-mixed"),
]

TCONV_CASES = [
    pytest.param((1, 2, 4, 4), (2, 3, 3, 3),
                 dict(padding=1, stride=1, dilation=1, groups=1,
                      output_padding=0),
                 id="t2d-basic"),
    pytest.param((1, 4, 4, 3), (4, 1, 3, 2),
                 dict(padding=1, stride=2, dilation=1, groups=2,
                      output_padding=1),
                 id="t2d-grouped-strided-op1"),
    pytest.param((1, 2, 3, 4), (2, 2, 2, 2),
                 dict(padding=(1, 0, 0, 1), stride=(2, 3), dilation=2,
                      groups=1, output_padding=(1, 2)),
                 id="t2d-asym-everything"),
]


class TestConvNdBackward:
    @pytest.mark.parametrize("op,x_shape,w_shape,params", CASES)
    def test_input_gradient(self, rng, op, x_shape, w_shape, params):
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape)
        go = rng.standard_normal(_forward(op, x, w, **params).shape)
        dx = convnd_backward_input(go, w, x.shape, **params)
        expected = numerical_gradient(
            lambda: np.sum(_forward(op, x, w, **params) * go), x)
        np.testing.assert_allclose(dx, expected, atol=1e-4)

    @pytest.mark.parametrize("op,x_shape,w_shape,params", CASES)
    def test_weight_gradient(self, rng, op, x_shape, w_shape, params):
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape)
        go = rng.standard_normal(_forward(op, x, w, **params).shape)
        dw = convnd_backward_weight(go, x, w.shape[2:], **params)
        expected = numerical_gradient(
            lambda: np.sum(_forward(op, x, w, **params) * go), w)
        np.testing.assert_allclose(dw, expected, atol=1e-4)

    def test_bias_gradient_any_rank(self, rng):
        for shape in [(2, 3, 5), (2, 3, 4, 4), (2, 3, 3, 4, 5)]:
            go = rng.standard_normal(shape)
            axes = (0,) + tuple(range(2, go.ndim))
            np.testing.assert_allclose(convnd_backward_bias(go),
                                       go.sum(axis=axes))


class TestConvTranspose2dBackward:
    @pytest.mark.parametrize("x_shape,w_shape,params", TCONV_CASES)
    def test_input_gradient(self, rng, x_shape, w_shape, params):
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape)
        go = rng.standard_normal(
            _forward(ConvOp.CONV_TRANSPOSE2D, x, w, **params).shape)
        grad_params = {k: v for k, v in params.items()
                       if k != "output_padding"}
        dx = conv_transpose2d_backward_input(go, w, **grad_params)
        expected = numerical_gradient(
            lambda: np.sum(_forward(ConvOp.CONV_TRANSPOSE2D, x, w,
                                    **params) * go), x)
        np.testing.assert_allclose(dx, expected, atol=1e-4)

    @pytest.mark.parametrize("x_shape,w_shape,params", TCONV_CASES)
    def test_weight_gradient(self, rng, x_shape, w_shape, params):
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape)
        go = rng.standard_normal(
            _forward(ConvOp.CONV_TRANSPOSE2D, x, w, **params).shape)
        grad_params = {k: v for k, v in params.items()
                       if k != "output_padding"}
        dw = conv_transpose2d_backward_weight(go, x, w.shape[2:],
                                              **grad_params)
        expected = numerical_gradient(
            lambda: np.sum(_forward(ConvOp.CONV_TRANSPOSE2D, x, w,
                                    **params) * go), w)
        np.testing.assert_allclose(dw, expected, atol=1e-4)


class TestAutogradNd:
    """End-to-end tape check: the Tensor ops wire the gradients above."""

    def test_conv1d_autograd_matches_fd(self, rng):
        from repro.nn import autograd as ag

        x = ag.parameter(rng.standard_normal((1, 2, 8)))
        w = ag.parameter(rng.standard_normal((2, 2, 3)))
        b = ag.parameter(rng.standard_normal(2))
        out = ag.conv1d(x, w, b, padding=1, stride=2)
        out.backward()
        for p in (x, w, b):
            expected = numerical_gradient(
                lambda: float(np.sum(convolve(
                    x.data, w.data, op=ConvOp.CONV1D, padding=1, stride=2)
                    + b.data[None, :, None])), p.data)
            np.testing.assert_allclose(p.grad, expected, atol=1e-4)

    def test_conv_transpose2d_autograd_matches_fd(self, rng):
        from repro.nn import autograd as ag

        x = ag.parameter(rng.standard_normal((1, 2, 3, 3)))
        w = ag.parameter(rng.standard_normal((2, 2, 3, 3)))
        out = ag.conv_transpose2d(x, w, padding=1, stride=2,
                                  output_padding=1)
        out.backward()
        for p in (x, w):
            expected = numerical_gradient(
                lambda: float(np.sum(convolve(
                    x.data, w.data, op=ConvOp.CONV_TRANSPOSE2D, padding=1,
                    stride=2, output_padding=1))), p.data)
            np.testing.assert_allclose(p.grad, expected, atol=1e-4)
