"""Property-based tests: convolution equivalence across algorithms."""

import numpy as np
from hypothesis import given, strategies as st

from repro.baselines.naive import convnd_naive
from repro.baselines.registry import ConvAlgorithm, convolve, supports
from repro.core.multichannel import conv2d_polyhankel
from repro.core.polyhankel import conv2d_single
from repro.utils.shapes import ConvShape
from tests.conftest import assert_conv_close, naive_conv2d_reference


@st.composite
def conv_problems(draw, max_size=12, max_kernel=5, channels=True):
    """A random, always-valid convolution problem."""
    ih = draw(st.integers(1, max_size))
    iw = draw(st.integers(1, max_size))
    padding = draw(st.integers(0, 2))
    kh = draw(st.integers(1, min(max_kernel, ih + 2 * padding)))
    kw = draw(st.integers(1, min(max_kernel, iw + 2 * padding)))
    stride = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3)) if channels else 1
    c = draw(st.integers(1, 3)) if channels else 1
    f = draw(st.integers(1, 3)) if channels else 1
    shape = ConvShape((ih, iw), (kh, kw), n=n, c=c, f=f, padding=padding,
                      stride=stride)
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape.input_shape())
    w = rng.standard_normal(shape.weight_shape())
    return shape, x, w


@given(conv_problems(channels=False))
def test_polyhankel_single_matches_naive(problem):
    shape, x, w = problem
    got = conv2d_single(x[0, 0], w[0, 0], padding=shape.padding,
                        stride=shape.stride)
    ref = convnd_naive(x, w, shape.padding, shape.stride)[0, 0]
    np.testing.assert_allclose(got, ref, atol=1e-7)


@given(conv_problems())
def test_polyhankel_batched_matches_naive(problem):
    shape, x, w = problem
    got = conv2d_polyhankel(x, w, padding=shape.padding,
                            stride=shape.stride)
    ref = convnd_naive(x, w, shape.padding, shape.stride)
    np.testing.assert_allclose(got, ref, atol=1e-7)


@given(conv_problems())
def test_merge_strategy_matches_sum(problem):
    shape, x, w = problem
    a = conv2d_polyhankel(x, w, padding=shape.padding, stride=shape.stride,
                          strategy="sum")
    b = conv2d_polyhankel(x, w, padding=shape.padding, stride=shape.stride,
                          strategy="merge")
    np.testing.assert_allclose(a, b, atol=1e-7)


@given(conv_problems(max_size=10, max_kernel=4),
       st.sampled_from([ConvAlgorithm.GEMM, ConvAlgorithm.FFT,
                        ConvAlgorithm.FFT_TILING, ConvAlgorithm.WINOGRAD,
                        ConvAlgorithm.FINEGRAIN_FFT,
                        ConvAlgorithm.IMPLICIT_PRECOMP_GEMM]))
def test_every_algorithm_matches_naive(problem, algorithm):
    shape, x, w = problem
    if not supports(algorithm, shape):
        return
    got = convolve(x, w, algorithm=algorithm, padding=shape.padding,
                   stride=shape.stride)
    ref = convnd_naive(x, w, shape.padding, shape.stride)
    np.testing.assert_allclose(got, ref, atol=1e-6)


@given(conv_problems(max_size=8, max_kernel=3))
def test_linearity_in_input(problem):
    """conv(a*x1 + b*x2, w) == a*conv(x1, w) + b*conv(x2, w)."""
    shape, x, w = problem
    rng = np.random.default_rng(0)
    x2 = rng.standard_normal(x.shape)
    lhs = conv2d_polyhankel(2.0 * x + 3.0 * x2, w, padding=shape.padding,
                            stride=shape.stride)
    rhs = (2.0 * conv2d_polyhankel(x, w, padding=shape.padding,
                                   stride=shape.stride)
           + 3.0 * conv2d_polyhankel(x2, w, padding=shape.padding,
                                     stride=shape.stride))
    np.testing.assert_allclose(lhs, rhs, atol=1e-6)


@st.composite
def full_conv_problems(draw):
    """A random, always-valid problem over the *extended* parameter space:
    per-axis stride and dilation, asymmetric or ``"same"`` padding, groups.
    Sizes are chosen so the dilated kernel always fits the padded input."""
    kh = draw(st.integers(1, 3))
    kw = draw(st.integers(1, 3))
    dh = draw(st.integers(1, 3))
    dw = draw(st.integers(1, 3))
    eff_kh = dh * (kh - 1) + 1
    eff_kw = dw * (kw - 1) + 1
    ih = draw(st.integers(eff_kh, eff_kh + 8))
    iw = draw(st.integers(eff_kw, eff_kw + 8))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    padding = draw(st.one_of(
        st.integers(0, 2),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.integers(0, 2), st.integers(0, 2),
                  st.integers(0, 2), st.integers(0, 2)),
        st.just("same"),
    ))
    groups = draw(st.sampled_from([1, 2, 4]))
    c = groups * draw(st.integers(1, 2))
    f = groups * draw(st.integers(1, 2))
    n = draw(st.integers(1, 2))
    shape = ConvShape((ih, iw), (kh, kw), n=n, c=c, f=f, padding=padding,
                      stride=stride, dilation=(dh, dw), groups=groups)
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape.input_shape())
    w = rng.standard_normal(shape.weight_shape())
    return shape, x, w


@given(full_conv_problems())
def test_polyhankel_full_params_match_reference(problem):
    shape, x, w = problem
    got = conv2d_polyhankel(x, w, padding=shape.padding,
                            stride=shape.stride, dilation=shape.dilation,
                            groups=shape.groups)
    ref = naive_conv2d_reference(x, w, shape.padding, shape.stride,
                                 shape.dilation, shape.groups)
    assert_conv_close(got, ref)


@given(full_conv_problems())
def test_merge_strategy_full_params_match_sum(problem):
    shape, x, w = problem
    kwargs = dict(padding=shape.padding, stride=shape.stride,
                  dilation=shape.dilation, groups=shape.groups)
    a = conv2d_polyhankel(x, w, strategy="sum", **kwargs)
    b = conv2d_polyhankel(x, w, strategy="merge", **kwargs)
    assert_conv_close(a, b)


@given(full_conv_problems())
def test_grouped_equals_per_group_convolutions(problem):
    """conv(x, w, groups=g) == concat of g independent convolutions."""
    shape, x, w = problem
    got = conv2d_polyhankel(x, w, padding=shape.padding,
                            stride=shape.stride, dilation=shape.dilation,
                            groups=shape.groups)
    c_per, f_per = shape.group_channels, shape.group_filters
    pieces = [
        conv2d_polyhankel(x[:, g * c_per:(g + 1) * c_per],
                          w[g * f_per:(g + 1) * f_per],
                          padding=sum(shape.pad_pairs, ()),
                          stride=shape.stride, dilation=shape.dilation)
        for g in range(shape.groups)
    ]
    assert_conv_close(got, np.concatenate(pieces, axis=1))


@given(full_conv_problems(),
       st.sampled_from([ConvAlgorithm.GEMM, ConvAlgorithm.FFT,
                        ConvAlgorithm.WINOGRAD,
                        ConvAlgorithm.IMPLICIT_GEMM]))
def test_every_algorithm_full_params_match_reference(problem, algorithm):
    shape, x, w = problem
    if not supports(algorithm, shape):
        return
    got = convolve(x, w, algorithm=algorithm, padding=shape.padding,
                   stride=shape.stride, dilation=shape.dilation,
                   groups=shape.groups)
    ref = naive_conv2d_reference(x, w, shape.padding, shape.stride,
                                 shape.dilation, shape.groups)
    assert_conv_close(got, ref)


@given(conv_problems(max_size=8, max_kernel=3))
def test_linearity_in_kernel(problem):
    shape, x, w = problem
    rng = np.random.default_rng(1)
    w2 = rng.standard_normal(w.shape)
    lhs = conv2d_polyhankel(x, w - w2, padding=shape.padding,
                            stride=shape.stride)
    rhs = (conv2d_polyhankel(x, w, padding=shape.padding,
                             stride=shape.stride)
           - conv2d_polyhankel(x, w2, padding=shape.padding,
                               stride=shape.stride))
    np.testing.assert_allclose(lhs, rhs, atol=1e-6)
