"""FFT size planning.

cuFFT performs best on sizes of the form ``2^a * 3^b * 5^c * 7^d`` (Sec. 3.2
of the paper).  The paper additionally reports that plain multiples of two
performed best in their tests, so the PolyHankel planner exposes both
policies.  This module provides the smoothness predicates and the
``next_fast_len`` search both policies rely on.
"""

from __future__ import annotations

DEFAULT_RADICES: tuple[int, ...] = (2, 3, 5, 7)


def is_smooth(n: int, radices: tuple[int, ...] = DEFAULT_RADICES) -> bool:
    """True when *n* factors completely over *radices*.

    >>> is_smooth(840)
    True
    >>> is_smooth(11)
    False
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    for p in radices:
        while n % p == 0:
            n //= p
    return n == 1


def is_power_of_two(n: int) -> bool:
    """True when *n* is a positive power of two (1 counts)."""
    return n >= 1 and (n & (n - 1)) == 0


def next_pow2(n: int) -> int:
    """Smallest power of two >= *n*.

    >>> next_pow2(1)
    1
    >>> next_pow2(100)
    128
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1 << (n - 1).bit_length()


def next_fast_len(n: int,
                  radices: tuple[int, ...] = DEFAULT_RADICES) -> int:
    """Smallest *radices*-smooth integer >= *n*.

    Mirrors cuFFT's (and pocketfft's) preferred sizes.  The search enumerates
    smooth numbers by breadth-first expansion, which is exact and fast for
    the sizes convolution planning encounters (up to a few million).

    >>> next_fast_len(97)
    98
    >>> next_fast_len(1000)
    1000
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if is_smooth(n, radices):
        return n
    if 2 not in radices:
        raise ValueError("radix 2 is required for the search upper bound")
    best = next_pow2(n)  # guaranteed smooth upper bound

    def search(value: int, remaining: tuple[int, ...]) -> None:
        nonlocal best
        if value >= n:
            best = min(best, value)
            return
        if not remaining:
            return
        p = remaining[0]
        # Either stop using p, or multiply by p again (value stays < best).
        search(value, remaining[1:])
        if value * p < best:
            search(value * p, remaining)
        elif value * p >= n:
            best = min(best, value * p)

    # Consider radices largest-first so big factors are pruned early.
    search(1, tuple(sorted(radices, reverse=True)))
    return best


def factorize(n: int,
              radices: tuple[int, ...] = DEFAULT_RADICES) -> list[int]:
    """Factor *n* over *radices*, smallest factor first.

    Raises ``ValueError`` if a non-smooth remainder is left.

    >>> factorize(12)
    [2, 2, 3]
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    factors: list[int] = []
    for p in sorted(radices):
        while n % p == 0:
            factors.append(p)
            n //= p
    if n != 1:
        raise ValueError(f"residual factor {n} is not in radices {radices}")
    return factors
