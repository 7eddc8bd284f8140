"""Tests for repro.guard.checksum: content stamps on cached spectra."""

import zlib

import numpy as np
import pytest

from repro.core import multichannel as mc
from repro.guard.checksum import array_checksum, verify_checksum
from repro.guard.state import guarded
from repro.nn.layers import Conv2d
from repro.utils.shapes import ConvShape


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


class TestCachedSpectrumStamps:
    """Entries are stamped only while the guard is on, and a guarded hit
    never serves an unstamped entry."""

    @pytest.fixture(autouse=True)
    def _fresh_spectrum_cache(self):
        mc.clear_spectrum_cache()
        yield
        mc.clear_spectrum_cache()

    def _plan(self):
        return mc.get_plan(ConvShape((8, 8), (3, 3), n=1, c=2, f=3,
                                     padding=1))

    def test_guard_off_stores_no_stamp(self, rng):
        plan = self._plan()
        w = rng.standard_normal((3, 2, 3, 3))
        plan.weight_spectrum(w)
        assert mc._SPECTRUM_CACHE[(id(w), id(plan))][4] is None

    def test_guard_on_stamps_the_entry(self, rng):
        plan = self._plan()
        w = rng.standard_normal((3, 2, 3, 3))
        with guarded():
            spectrum = plan.weight_spectrum(w)
        assert mc._SPECTRUM_CACHE[(id(w), id(plan))][4] == \
            array_checksum(spectrum)

    def test_unstamped_corrupt_entry_is_not_served(self, rng):
        plan = self._plan()
        w = rng.standard_normal((3, 2, 3, 3))
        plan.weight_spectrum(w)                  # inserted with guard off
        key = (id(w), id(plan))
        mc._SPECTRUM_CACHE[key][3].flat[0] = np.nan
        with guarded():
            served = plan.weight_spectrum(w)
        assert np.array_equal(served, plan.transform_weight(w))
        # Recomputed and stamped: the next guarded hit verifies it.
        assert mc._SPECTRUM_CACHE[key][4] == array_checksum(served)
        with guarded():
            assert plan.weight_spectrum(w) is served

    def test_layer_cache_follows_the_same_rule(self, rng):
        layer = Conv2d(2, 3, 3, padding=1, rng=rng)
        x = rng.standard_normal((1, 2, 8, 8))
        expect = layer(x)                        # inserted with guard off
        (entry,) = mc._SPECTRUM_CACHE.values()
        assert entry[4] is None
        entry[3].flat[0] = np.nan
        with guarded():
            out = layer(x)
        assert np.array_equal(out, expect)
        (entry,) = mc._SPECTRUM_CACHE.values()
        assert entry[4] == array_checksum(entry[3])
