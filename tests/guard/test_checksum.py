"""Tests for repro.guard.checksum: content stamps on cached spectra."""

import zlib

import numpy as np
import pytest

from repro.guard.checksum import array_checksum, verify_checksum


class TestArrayChecksum:
    def test_deterministic(self):
        a = np.arange(64, dtype=float).reshape(8, 8)
        assert array_checksum(a) == array_checksum(a.copy())

    def test_layout_independent(self):
        a = np.arange(64, dtype=float).reshape(8, 8)
        assert array_checksum(a) == array_checksum(np.asfortranarray(a))

    def test_single_element_flip_changes_checksum(self):
        a = np.arange(64, dtype=float)
        stamp = array_checksum(a)
        a[17] += 1e-9
        assert array_checksum(a) != stamp

    def test_complex_arrays(self):
        a = np.arange(8) + 1j * np.arange(8)
        stamp = array_checksum(a)
        a[3] = np.nan
        assert array_checksum(a) != stamp


    @pytest.mark.parametrize("make", [
        lambda rng: rng.standard_normal((6, 5)),                 # C order
        lambda rng: rng.standard_normal((6, 10))[:, ::3],        # strided
        lambda rng: np.asfortranarray(rng.standard_normal((4, 7))),
        lambda rng: rng.standard_normal((3, 4)) + 1j * rng.standard_normal(
            (3, 4)),                                             # complex
        lambda rng: (rng.standard_normal((4, 6))
                     + 1j * rng.standard_normal((4, 6)))[::2, 1::2],
    ])
    def test_equals_crc32_of_the_bytes(self, rng, make):
        """Hashing the buffer in place gives the CRC of ``tobytes()``."""
        a = make(rng)
        assert array_checksum(a) == zlib.crc32(a.tobytes())


class TestVerifyChecksum:
    def test_match(self):
        a = np.ones(16)
        assert verify_checksum(a, array_checksum(a))

    def test_mismatch(self):
        a = np.ones(16)
        stamp = array_checksum(a)
        a[0] = 2.0
        assert not verify_checksum(a, stamp)

    def test_none_stamp_verifies_trivially(self):
        assert verify_checksum(np.ones(4), None)
