"""Direct (definition-following) convolution.

The correctness reference every other algorithm is tested against.  It
follows the naive definition from Sec. 1 of the paper:

``conv2D(I, K)[ih, iw] = sum_kh sum_kw I[ih + kh, iw + kw] * K[kh, kw]``

(i.e. cross-correlation, the deep-learning convention used throughout the
paper and in cuDNN/PyTorch), extended to the full conv2d parameter space:
per-axis stride/dilation, asymmetric padding and channel groups.
"""

from __future__ import annotations

import numpy as np

from repro.hankel.im2col_view import pad2d
from repro.utils.shapes import ConvShape
from repro.utils.validation import check_conv_inputs, ensure_array


def conv2d_naive(x: np.ndarray, weight: np.ndarray, padding=0,
                 stride: int | tuple = 1, dilation: int | tuple = 1,
                 groups: int = 1) -> np.ndarray:
    """Direct NCHW convolution; O(N*F*C/G*Oh*Ow*Kh*Kw), loops over output.

    Dilation subsamples the taps inside each window, stride moves the
    window per axis, and groups restrict each filter block to its channel
    block — all expressed directly on the padded input view so the code
    stays a transliteration of the definition.
    """
    x = ensure_array(x, "x", dtype=float)
    weight = ensure_array(weight, "weight", dtype=float)
    check_conv_inputs(x, weight, padding, stride, dilation, groups)
    shape = ConvShape.from_tensors(x.shape, weight.shape, padding, stride,
                                   dilation, groups)

    xp = pad2d(x, shape.padding)
    sh, sw = shape.stride_nd
    dh, dw = shape.dilation_nd
    eff_kh, eff_kw = shape.eff_kernel
    g, c_per, f_per = shape.groups, shape.group_channels, shape.group_filters
    xg = xp.reshape(shape.n, g, c_per, *xp.shape[-2:])
    wg = weight.reshape(g, f_per, c_per, shape.kh, shape.kw)
    out = np.zeros(shape.output_shape(), dtype=float)
    out_g = out.reshape(shape.n, g, f_per, shape.oh, shape.ow)
    for i in range(shape.oh):
        for j in range(shape.ow):
            top = i * sh
            left = j * sw
            patch = xg[:, :, :, top: top + eff_kh: dh,
                       left: left + eff_kw: dw]
            out_g[:, :, :, i, j] = np.einsum("ngchw,gfchw->ngf", patch, wg)
    return out
