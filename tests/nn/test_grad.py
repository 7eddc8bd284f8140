"""Tests for the convolution backward passes (finite-difference checked)."""

import numpy as np
import pytest

from repro.baselines.naive import convnd_naive
from repro.baselines.registry import ConvAlgorithm
from repro.nn.grad import (
    convnd_backward_bias,
    convnd_backward_input,
    convnd_backward_weight,
    dilate_spatial,
)


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


CASES = [
    (1, 1, 1, 5, 5, 3, 3, 0, 1),
    (2, 2, 3, 5, 6, 3, 2, 1, 1),
    (1, 1, 1, 6, 6, 3, 3, 0, 2),
    (2, 3, 2, 7, 5, 2, 2, 2, 2),
    (1, 2, 2, 8, 8, 3, 3, 1, 3),
]


class TestAgainstFiniteDifferences:
    @pytest.mark.parametrize("case", CASES)
    def test_input_gradient(self, rng, case):
        n, c, f, ih, iw, kh, kw, p, s = case
        x = rng.standard_normal((n, c, ih, iw))
        w = rng.standard_normal((f, c, kh, kw))
        go = rng.standard_normal(convnd_naive(x, w, p, s).shape)
        dx = convnd_backward_input(go, w, x.shape, p, s)
        expected = numerical_gradient(
            lambda: np.sum(convnd_naive(x, w, p, s) * go), x)
        np.testing.assert_allclose(dx, expected, atol=1e-4)

    @pytest.mark.parametrize("case", CASES)
    def test_weight_gradient(self, rng, case):
        n, c, f, ih, iw, kh, kw, p, s = case
        x = rng.standard_normal((n, c, ih, iw))
        w = rng.standard_normal((f, c, kh, kw))
        go = rng.standard_normal(convnd_naive(x, w, p, s).shape)
        dw = convnd_backward_weight(go, x, (kh, kw), p, s)
        expected = numerical_gradient(
            lambda: np.sum(convnd_naive(x, w, p, s) * go), w)
        np.testing.assert_allclose(dw, expected, atol=1e-4)

    def test_bias_gradient(self, rng):
        go = rng.standard_normal((2, 3, 4, 4))
        np.testing.assert_allclose(convnd_backward_bias(go),
                                   go.sum(axis=(0, 2, 3)))


#: (c, f, ih, iw, padding, stride, dilation, groups) — the extended space.
#: Shapes stay tiny: the finite-difference probe visits every element.
EXTENDED_CASES = [
    pytest.param(2, 2, 7, 6, "same", 1, 2, 2, id="depthwise-dilated-same"),
    pytest.param(3, 3, 6, 6, 1, 1, 1, 3, id="depthwise"),
    pytest.param(2, 2, 7, 7, (1, 0, 2, 1), (2, 1), (1, 2), 1,
                 id="asym-everything"),
    pytest.param(4, 2, 8, 7, 2, 2, 2, 2, id="grouped-strided-dilated"),
]


class TestExtendedParamsAgainstFiniteDifferences:
    """Backward passes over the full parameter space (the acceptance
    criterion: depthwise + dilation must train, not just infer)."""

    @pytest.mark.parametrize("c,f,ih,iw,p,s,d,g", EXTENDED_CASES)
    def test_input_gradient(self, rng, c, f, ih, iw, p, s, d, g):
        x = rng.standard_normal((1, c, ih, iw))
        w = rng.standard_normal((f, c // g, 3, 3))
        kwargs = dict(padding=p, stride=s, dilation=d, groups=g)
        go = rng.standard_normal(convnd_naive(x, w, **kwargs).shape)
        dx = convnd_backward_input(go, w, x.shape, **kwargs)
        expected = numerical_gradient(
            lambda: np.sum(convnd_naive(x, w, **kwargs) * go), x)
        np.testing.assert_allclose(dx, expected, atol=1e-4)

    @pytest.mark.parametrize("c,f,ih,iw,p,s,d,g", EXTENDED_CASES)
    def test_weight_gradient(self, rng, c, f, ih, iw, p, s, d, g):
        x = rng.standard_normal((1, c, ih, iw))
        w = rng.standard_normal((f, c // g, 3, 3))
        kwargs = dict(padding=p, stride=s, dilation=d, groups=g)
        go = rng.standard_normal(convnd_naive(x, w, **kwargs).shape)
        dw = convnd_backward_weight(go, x, (3, 3), **kwargs)
        expected = numerical_gradient(
            lambda: np.sum(convnd_naive(x, w, **kwargs) * go), w)
        np.testing.assert_allclose(dw, expected, atol=1e-4)


class TestAlgorithmChoice:
    @pytest.mark.parametrize("algorithm", [
        ConvAlgorithm.POLYHANKEL, ConvAlgorithm.GEMM, ConvAlgorithm.FFT,
    ])
    def test_all_algorithms_agree_on_gradients(self, rng, algorithm):
        x = rng.standard_normal((2, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        go = rng.standard_normal((2, 3, 4, 4))
        dx_ref = convnd_backward_input(go, w, x.shape,
                                       algorithm=ConvAlgorithm.NAIVE)
        dw_ref = convnd_backward_weight(go, x, (3, 3),
                                        algorithm=ConvAlgorithm.NAIVE)
        np.testing.assert_allclose(
            convnd_backward_input(go, w, x.shape, algorithm=algorithm),
            dx_ref, atol=1e-8)
        np.testing.assert_allclose(
            convnd_backward_weight(go, x, (3, 3), algorithm=algorithm),
            dw_ref, atol=1e-8)


class TestDilate:
    def test_identity_for_stride_one(self, rng):
        x = rng.standard_normal((2, 2, 3, 3))
        assert dilate_spatial(x, 1) is x

    def test_inserts_zeros(self):
        x = np.ones((1, 1, 2, 2))
        out = dilate_spatial(x, 3)
        assert out.shape == (1, 1, 4, 4)
        assert out.sum() == 4
        assert out[0, 0, 0, 0] == out[0, 0, 3, 3] == 1

    def test_shape_mismatch_rejected(self, rng):
        w = rng.standard_normal((1, 1, 3, 3))
        with pytest.raises(ValueError, match="grad_out shape"):
            convnd_backward_input(rng.standard_normal((1, 1, 9, 9)), w,
                                  (1, 1, 5, 5))
