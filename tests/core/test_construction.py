"""Tests for the polynomial construction (Sec. 2.2, Eqs. 10-12)."""

import numpy as np

from repro.core.construction import (
    channel_kernel_stack,
    input_polynomial,
    kernel_polynomial,
    merged_input_polynomial,
    merged_kernel_polynomial,
    merged_output_gather_indices,
    output_gather_indices,
    polynomial_lengths,
)
from repro.core.polynomial import Polynomial
from repro.utils.shapes import ConvShape


class TestInputPolynomial:
    def test_is_flatten(self, rng):
        img = rng.standard_normal((4, 5))
        np.testing.assert_array_equal(input_polynomial(img), img.ravel())

    def test_padding(self, rng):
        img = rng.standard_normal((2, 2))
        coeffs = input_polynomial(img, padding=1)
        assert len(coeffs) == 16
        assert coeffs[0] == 0
        assert coeffs[5] == img[0, 0]


class TestKernelPolynomial:
    def test_paper_eq6_layout(self):
        """u[i,j] lands at degree 12 - (5i + j) for the 5x5/3x3 example."""
        u = np.arange(1.0, 10.0).reshape(3, 3)
        coeffs = kernel_polynomial(u, iw=5)
        assert len(coeffs) == 13  # combined kernel size (Kh-1)*Iw + Kw
        assert coeffs[12] == u[0, 0]
        assert coeffs[11] == u[0, 1]
        assert coeffs[10] == u[0, 2]
        assert coeffs[7] == u[1, 0]
        assert coeffs[0] == u[2, 2]

    def test_row_gaps_are_zero(self):
        """Each kernel row is followed by Iw - Kw zeros (Sec. 3.2)."""
        u = np.ones((2, 2))
        coeffs = kernel_polynomial(u, iw=6)
        np.testing.assert_array_equal(coeffs, [1, 1, 0, 0, 0, 0, 1, 1])

    def test_combined_kernel_size_formula(self):
        """KernelSize = (Kh - 1) * Iw + Kw (Sec. 3.2)."""
        for kh, kw, iw in [(3, 3, 5), (2, 4, 9), (5, 1, 6)]:
            coeffs = kernel_polynomial(np.ones((kh, kw)), iw)
            assert len(coeffs) == (kh - 1) * iw + kw


class TestPaperWorkedExample:
    """Multiply A(t) and U(t) for the 5x5/3x3 example and read off Eq. 7."""

    def test_product_coefficients_are_convolution(self, rng):
        a = rng.standard_normal((5, 5))
        u = rng.standard_normal((3, 3))
        pa = Polynomial(input_polynomial(a))
        pu = Polynomial(kernel_polynomial(u, 5))
        product = pa * pu

        shape = ConvShape((5, 5), (3, 3))
        gather = output_gather_indices(shape)
        d = np.array([[product.coeff(int(k)) for k in row] for row in gather])

        expected = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                expected[i, j] = np.sum(a[i:i + 3, j:j + 3] * u)
        np.testing.assert_allclose(d, expected, atol=1e-9)

    def test_gather_degrees_match_eq12(self):
        shape = ConvShape((5, 5), (3, 3))
        np.testing.assert_array_equal(
            output_gather_indices(shape).reshape(-1),
            [12, 13, 14, 17, 18, 19, 22, 23, 24],
        )


class TestChannelKernelStack:
    def test_shape_and_content(self, rng):
        w = rng.standard_normal((4, 3, 2, 2))
        stack = channel_kernel_stack(w, iw=6)
        assert stack.shape == (4, 3, 8)
        np.testing.assert_array_equal(
            stack[2, 1], kernel_polynomial(w[2, 1], 6)
        )


class TestMergedLayout:
    def test_interleaving(self, rng):
        x = rng.standard_normal((3, 2, 2))
        merged = merged_input_polynomial(x)
        assert len(merged) == 12
        # Degree f*C + c: element (c=1, flat=2) at index 2*3 + 1 = 7.
        assert merged[7] == x[1, 1, 0]

    def test_kernel_degrees_disjoint_across_channels(self, rng):
        w = rng.standard_normal((3, 2, 2))
        merged = merged_kernel_polynomial(w, iw=4)
        nonzero = np.nonzero(merged)[0]
        # Channel c occupies residue (C-1-c) mod C: all distinct.
        assert len(nonzero) == w.size
        residues = {int(d) % 3 for d in nonzero}
        assert residues == {0, 1, 2}

    def test_merged_gather_positions(self):
        shape = ConvShape((5, 5), (3, 3), c=2)
        single = output_gather_indices(shape)
        merged = merged_output_gather_indices(shape)
        np.testing.assert_array_equal(merged, 2 * single + 1)

    def test_merged_product_computes_multichannel_conv(self, rng):
        from tests.conftest import naive_conv2d_reference

        x = rng.standard_normal((1, 3, 4, 4))
        w = rng.standard_normal((1, 3, 2, 2))
        merged_a = merged_input_polynomial(x[0])
        merged_u = merged_kernel_polynomial(w[0], iw=4)
        product = np.convolve(merged_a, merged_u)
        shape = ConvShape.from_tensors(x.shape, w.shape)
        gather = merged_output_gather_indices(shape)
        out = product[gather][None, None]
        np.testing.assert_allclose(out, naive_conv2d_reference(x, w),
                                   atol=1e-9)


class TestPolynomialLengths:
    def test_matches_shape_properties(self):
        shape = ConvShape((6, 7), (3, 2), padding=1)
        len_a, len_u, transform_len = polynomial_lengths(shape)
        assert len_a == shape.poly_input_len
        assert len_u == shape.poly_kernel_len
        # Eq. 12 reads no degree at or above len A, so the cyclic bound
        # (not the linear length len A + len U - 1) sizes the transform.
        assert transform_len == len_a


class TestRankGenericDegrees:
    """The engine's rank-generic tap degrees and gather indices equal the
    2D degree map (Eqs. 11-12) on every rank-2 geometry."""

    def test_match_the_2d_degree_map(self):
        import itertools

        from repro.core.construction import tap_degrees
        from repro.core.degree_map import kernel_degrees, output_degrees

        for p, s, d in itertools.product([0, 1, (0, 1, 2, 1)],
                                         [1, 2, (2, 1)], [1, (1, 2)]):
            shape = ConvShape((7, 9), (3, 2), padding=p, stride=s, dilation=d)
            padded_iw = shape.padded_extents[1]
            np.testing.assert_array_equal(
                tap_degrees(shape),
                kernel_degrees(3, 2, padded_iw, shape.dilation_nd))
            np.testing.assert_array_equal(
                output_gather_indices(shape),
                output_degrees(shape.oh, shape.ow, padded_iw, 3, 2,
                               shape.stride_nd, shape.dilation_nd))
