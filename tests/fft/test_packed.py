"""Real-pair packing: Hermitian fold/split against the plain transforms."""

import numpy as np
import pytest

from repro import fft as _fft
from repro.fft.packed import (
    conj_reverse_half,
    fold_half_spectra,
    fold_pairs,
    packed_irfft,
    packed_rfft,
    split_pair_spectra,
)


def _rows(rng, shape):
    return rng.standard_normal(shape)


class TestFoldPairs:
    def test_even_rows_pack_real_imag(self):
        rng = np.random.default_rng(0)
        x = _rows(rng, (4, 6))
        z, rest = fold_pairs(x, 8)
        assert rest is None
        assert z.shape == (2, 8)
        np.testing.assert_array_equal(z.real[:, :6], x[0::2])
        np.testing.assert_array_equal(z.imag[:, :6], x[1::2])
        # zero padding beyond the row length
        assert np.all(z[:, 6:] == 0)

    def test_odd_rows_leave_leftover(self):
        rng = np.random.default_rng(1)
        x = _rows(rng, (5, 6))
        z, rest = fold_pairs(x, 8)
        assert z.shape == (2, 8)
        np.testing.assert_array_equal(rest, x[4:])

    def test_single_row_has_no_pairs(self):
        rng = np.random.default_rng(2)
        x = _rows(rng, (1, 6))
        z, rest = fold_pairs(x, 8)
        assert z.shape == (0, 8)
        np.testing.assert_array_equal(rest, x)

    def test_rejects_complex(self):
        with pytest.raises(TypeError, match="real"):
            fold_pairs(np.ones((2, 4), dtype=complex), 4)

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="rows"):
            fold_pairs(np.ones(4), 4)

    def test_rejects_overlong_rows(self):
        with pytest.raises(ValueError, match="exceeds"):
            fold_pairs(np.ones((2, 9)), 8)


class TestHermitianSplit:
    @pytest.mark.parametrize("n", [8, 9, 12, 15])
    def test_split_recovers_both_spectra(self, n):
        rng = np.random.default_rng(3)
        a, b = _rows(rng, (n,)), _rows(rng, (n,))
        z_hat = np.fft.fft(a + 1j * b)
        bins = n // 2 + 1
        got_a, got_b = split_pair_spectra(z_hat, bins)
        np.testing.assert_allclose(got_a, np.fft.rfft(a), atol=1e-12)
        np.testing.assert_allclose(got_b, np.fft.rfft(b), atol=1e-12)

    def test_conj_reverse_half_is_hermitian_image(self):
        rng = np.random.default_rng(4)
        z_hat = np.fft.fft(_rows(rng, (3, 10)) + 1j * _rows(rng, (3, 10)))
        rev = conj_reverse_half(z_hat, 6)
        n = 10
        for k in range(6):
            np.testing.assert_allclose(
                rev[:, k], np.conj(z_hat[:, (n - k) % n]), atol=0)


class TestPackedRfft:
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 7, 16, 17])
    @pytest.mark.parametrize("n", [8, 15])
    def test_matches_plain_rfft(self, rows, n):
        rng = np.random.default_rng(rows * 31 + n)
        x = _rows(rng, (2, rows, 6))
        got = packed_rfft(x, n)
        want = np.fft.rfft(x, n)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_strided_input(self):
        rng = np.random.default_rng(5)
        base = _rows(rng, (8, 12))
        x = base[::2, ::2]                     # non-contiguous both axes
        assert not x.flags["C_CONTIGUOUS"]
        np.testing.assert_allclose(
            packed_rfft(x, 16), np.fft.rfft(np.ascontiguousarray(x), 16),
            atol=1e-12)

    def test_rejects_complex(self):
        with pytest.raises(TypeError, match="real"):
            packed_rfft(np.ones((2, 4), dtype=complex), 8)

    def test_builtin_backend(self):
        rng = np.random.default_rng(6)
        x = _rows(rng, (4, 10))
        got = packed_rfft(x, 16, fft="builtin")
        np.testing.assert_allclose(got, np.fft.rfft(x, 16), atol=1e-10)


class TestPackedIrfft:
    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("n", [8, 15])
    def test_roundtrip(self, rows, n):
        rng = np.random.default_rng(rows * 17 + n)
        x = _rows(rng, (rows, n))
        spec = np.fft.rfft(x, n)
        np.testing.assert_allclose(packed_irfft(spec, n), x, atol=1e-12)

    def test_fold_half_spectra_requires_even_rows(self):
        with pytest.raises(ValueError, match="even"):
            fold_half_spectra(np.ones((3, 5), dtype=complex), 8)

    def test_bin_count_must_match_size(self):
        with pytest.raises(ValueError, match="bins"):
            packed_irfft(np.ones((2, 5), dtype=complex), 12)


class TestPublicSurface:
    def test_exported_from_fft_package(self):
        assert _fft.packed_rfft is packed_rfft
        assert _fft.packed_irfft is packed_irfft
