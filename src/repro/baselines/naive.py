"""Direct (definition-following) convolution.

The correctness reference every other algorithm is tested against.  It
follows the naive definition from Sec. 1 of the paper:

``conv2D(I, K)[ih, iw] = sum_kh sum_kw I[ih + kh, iw + kw] * K[kh, kw]``

(i.e. cross-correlation, the deep-learning convention used throughout the
paper and in cuDNN/PyTorch), extended to every spatial rank and the full
parameter space: per-axis stride/dilation, asymmetric padding and channel
groups.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.hankel.im2col_view import pad_spatial
from repro.utils.shapes import ConvShape
from repro.utils.validation import ensure_array

#: Spatial einsum subscripts, innermost last (``hw`` at rank 2).
_SPATIAL = "ijklmdhw"


def convnd_naive(x: np.ndarray, weight: np.ndarray, padding=0,
                 stride: int | tuple = 1, dilation: int | tuple = 1,
                 groups: int = 1) -> np.ndarray:
    """Direct convolution of an ``(n, c, *spatial)`` batch; loops over the
    output positions, O(N*F*C/G*prod(out)*prod(kernel)).

    *weight* is ``(f, c // groups, *kernel)``.  Dilation subsamples the
    taps inside each window, stride moves the window per axis, and groups
    restrict each filter block to its channel block — all expressed
    directly on the padded input view so the code stays a transliteration
    of the definition.  The per-position einsum sums one image without
    regard to how many ride along (batch invariance).
    """
    x = ensure_array(x, "x", dtype=float)
    weight = ensure_array(weight, "weight", dtype=float)
    shape = ConvShape.from_tensors(x.shape, weight.shape, padding, stride,
                                   dilation, groups)

    xp = pad_spatial(x, shape.pad_pairs)
    g, c_per, f_per = shape.groups, shape.group_channels, shape.group_filters
    xg = xp.reshape(shape.n, g, c_per, *xp.shape[2:])
    wg = weight.reshape(g, f_per, c_per, *shape.kernel)
    out = np.zeros(shape.output_shape(), dtype=float)
    out_g = out.reshape(shape.n, g, f_per, *shape.out_extents)
    taps = _SPATIAL[-shape.ndim:]
    subscripts = f"ngc{taps},gfc{taps}->ngf"
    lead = (slice(None),) * 3
    for idx in itertools.product(*map(range, shape.out_extents)):
        window = tuple(slice(i * s, i * s + e, d) for i, s, e, d in
                       zip(idx, shape.stride_nd, shape.eff_kernel,
                           shape.dilation_nd))
        out_g[lead + idx] = np.einsum(subscripts, xg[lead + window], wg)
    return out
