"""Content checksums for cached weight spectra.

A cached spectrum that silently rots (bad RAM, a stray in-place write, a
doctored entry from :mod:`repro.guard.faults`) propagates into every later
forward that hits the cache.  Callers stamp entries at insert time with
:func:`array_checksum` and verify on hit while the guard is enabled; a
mismatch is treated as a cache miss (recompute) and reported through the
``guard.cache_corrupt`` counter, never served.

CRC32 is deliberate: the threat model is accidental corruption, not an
adversary, and crc32 of a few-hundred-KB spectrum costs microseconds.
"""

from __future__ import annotations

import zlib

import numpy as np


def array_checksum(arr: np.ndarray) -> int:
    """CRC32 of the array's contents (layout-independent).

    Hashes the C-contiguous buffer in place; only a non-contiguous input
    is copied first.
    """
    return zlib.crc32(np.ascontiguousarray(arr))


def verify_checksum(arr: np.ndarray, expected: int | None) -> bool:
    """Whether *arr* still matches the checksum taken at insert time.

    ``expected=None`` (entry stored while the guard was off) verifies
    trivially — there is nothing to compare against.
    """
    if expected is None:
        return True
    return array_checksum(arr) == expected
