"""Content checksums for cached weight spectra.

A cached spectrum that silently rots (bad RAM, a stray in-place write, a
doctored entry from :mod:`repro.guard.faults`) propagates into every later
forward that hits the cache.  While the guard is enabled, callers stamp
entries at insert time (:func:`guard_stamp`) and verify them on every hit
(:func:`servable`); a mismatch is treated as a cache miss (recompute) and
reported through the ``guard.cache_corrupt`` counter, never served.

A stamp is not free: the crc32 of a 2.37 MB spectrum took 0.6-1.1 ms
on a 2-vCPU x86 host.  So while the guard is off no entry is stamped,
and while it is on an unstamped entry (one inserted while it was off) is
recomputed and stamped rather than served unverified.

CRC32 is deliberate: the threat model is accidental corruption, not an
adversary.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.guard.state import guard_enabled
from repro.observe.registry import counters


def array_checksum(arr: np.ndarray) -> int:
    """CRC32 of the array's contents (layout-independent).

    Hashes the C-contiguous buffer in place; only a non-contiguous input
    is copied first.
    """
    return zlib.crc32(np.ascontiguousarray(arr))


def verify_checksum(arr: np.ndarray, expected: int | None) -> bool:
    """Whether *arr* still matches the checksum taken at insert time.

    ``expected=None`` verifies trivially — there is nothing to compare
    against; :func:`servable` never lets an unstamped cache entry get
    this far.
    """
    if expected is None:
        return True
    return array_checksum(arr) == expected


def guard_stamp(arr: np.ndarray) -> int | None:
    """The insert-time stamp of a cache entry: *arr*'s checksum while the
    guard is enabled, ``None`` (at no cost) while it is off."""
    return array_checksum(arr) if guard_enabled() else None


def servable(arr: np.ndarray, stamp: int | None, cache: str) -> bool:
    """Whether the cached *arr* of a content-checked hit may be served.

    Always while the guard is off.  While it is on, only a stamped, intact
    entry is: an unstamped one is recomputed, and a mismatched one also
    counts ``guard.cache_corrupt`` for *cache*.
    """
    if not guard_enabled():
        return True
    if stamp is None:
        return False
    if verify_checksum(arr, stamp):
        return True
    counters.add("guard.cache_corrupt", cache=cache)
    return False
