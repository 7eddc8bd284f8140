"""The im2col + GEMM algorithm (cuDNN's explicit GEMM path).

Materializes the unrolled patch matrix — the doubly blocked Hankel matrix of
Sec. 2.1, with its full data redundancy — and hands the work to a dense
matrix multiply.  This is the "high data redundancy, high operational
efficiency" corner of the paper's design space, and at ranks 1 and 3 the
explicit lowered reference Vasudevan et al. describe.
"""

from __future__ import annotations

import numpy as np

from repro.hankel.im2col_view import unroll_patches
from repro.observe import span
from repro.utils.shapes import ConvShape
from repro.utils.validation import ensure_array


def convnd_im2col_gemm(x: np.ndarray, weight: np.ndarray, padding=0,
                       stride: int | tuple = 1, dilation: int | tuple = 1,
                       groups: int = 1) -> np.ndarray:
    """Convolution of an ``(n, c, *spatial)`` batch via explicit im2col
    expansion and one GEMM.

    Patch columns are channel-major, so groups split them into contiguous
    blocks and the grouped product is one batched GEMM over the group axis.
    """
    x = ensure_array(x, "x", dtype=float)
    weight = ensure_array(weight, "weight", dtype=float)
    shape = ConvShape.from_tensors(x.shape, weight.shape, padding, stride,
                                   dilation, groups)

    with span("stage.im2col", bytes=x.nbytes) as im2col_span:
        patches = unroll_patches(x, shape)    # (n, prod(out), c*prod(k))
        im2col_span.add_attrs(workspace_bytes=patches.nbytes)
    with span("stage.gemm", bytes=patches.nbytes + weight.nbytes):
        if shape.groups == 1:
            kernel_matrix = weight.reshape(shape.f, -1)  # (f, c*prod(k))
            out = patches @ kernel_matrix.T              # (n, prod(out), f)
            return out.transpose(0, 2, 1).reshape(shape.output_shape())
        g, f_per = shape.groups, shape.group_filters
        taps = shape.group_channels * shape.kernel_elems
        pg = patches.reshape(shape.n, shape.output_elems, g, taps)
        wg = weight.reshape(g, f_per, taps)
        out = np.einsum("npgk,gfk->ngfp", pg, wg)
        return out.reshape(shape.output_shape())


def im2col_workspace_elems(shape: ConvShape) -> int:
    """Elements of the materialized im2col matrix (Table 3, row 1)."""
    return shape.n * shape.c * shape.kernel_elems * shape.output_elems
