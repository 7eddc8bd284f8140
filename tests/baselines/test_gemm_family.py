"""Tests for the GEMM-family algorithms."""

import numpy as np
import pytest

from repro.baselines.im2col_gemm import (
    convnd_im2col_gemm,
    im2col_workspace_elems,
)
from repro.baselines.implicit_gemm import (
    clear_offset_cache,
    conv2d_implicit_gemm,
    conv2d_implicit_precomp_gemm,
    precomputed_offsets,
)
from repro.baselines.naive import convnd_naive
from repro.utils.shapes import ConvShape

CASES = [
    (1, 1, 1, 5, 5, 3, 3, 0, 1),
    (2, 3, 4, 8, 9, 3, 3, 1, 1),
    (2, 2, 3, 10, 6, 2, 4, 0, 2),
    (1, 4, 2, 7, 7, 5, 5, 2, 1),
    (3, 1, 1, 6, 6, 1, 1, 0, 1),
    (1, 2, 2, 9, 8, 3, 2, 1, 3),
]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("impl", [
    # The GEMM runs every rank; this grid pins its conv2d.
    pytest.param(convnd_im2col_gemm, id="conv2d_im2col_gemm"),
    conv2d_implicit_gemm, conv2d_implicit_precomp_gemm])
def test_matches_naive(rng, case, impl):
    n, c, f, ih, iw, kh, kw, p, s = case
    x = rng.standard_normal((n, c, ih, iw))
    w = rng.standard_normal((f, c, kh, kw))
    np.testing.assert_allclose(impl(x, w, padding=p, stride=s),
                               convnd_naive(x, w, p, s), atol=1e-9)


class TestWorkspace:
    def test_im2col_workspace_formula(self):
        shape = ConvShape((5, 5), (3, 3), n=2, c=3)
        # Table 3 row 1: Kh*Kw*Oh*Ow per (image, channel).
        assert im2col_workspace_elems(shape) == 2 * 3 * 9 * 9


class TestOffsetCache:
    def setup_method(self):
        clear_offset_cache()

    def test_offsets_cached_per_shape(self):
        shape = ConvShape((8, 8), (3, 3))
        rows1, _ = precomputed_offsets(shape)
        rows2, _ = precomputed_offsets(shape)
        assert rows1 is rows2

    def test_offsets_content(self):
        shape = ConvShape((5, 5), (2, 2), stride=2)
        rows, cols = precomputed_offsets(shape)
        assert rows.shape == (shape.oh, shape.ow, 2, 2)
        # Output (1, 0), tap (1, 1) reads padded input row 2*1+1 = 3.
        assert rows[1, 0, 1, 1] == 3
        assert cols[0, 1, 0, 1] == 3

    def test_cache_key_includes_stride(self):
        a = precomputed_offsets(ConvShape((8, 8), (3, 3), stride=1))
        b = precomputed_offsets(ConvShape((9, 9), (3, 3), stride=2))
        assert a[0].shape != b[0].shape


def test_implicit_variants_identical(rng):
    x = rng.standard_normal((2, 3, 8, 8))
    w = rng.standard_normal((4, 3, 3, 3))
    np.testing.assert_allclose(
        conv2d_implicit_gemm(x, w, padding=1),
        conv2d_implicit_precomp_gemm(x, w, padding=1), atol=1e-12)
