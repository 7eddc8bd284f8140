"""Real-pair packing: two real transforms for the price of one complex FFT.

Convolution inputs are real, so their spectra are Hermitian — a complex
FFT of ``z = a + 1j * b`` therefore carries the spectra of *both* real
rows ``a`` and ``b``, recoverable exactly by the Hermitian split

    A[k] = (Z[k] + conj(Z[(N - k) mod N])) / 2
    B[k] = (Z[k] - conj(Z[(N - k) mod N])) / (2j)

for ``k in [0, N//2]``.  Folding adjacent rows of a stacked transform
request in pairs halves the number of transform rows (the ``fft.rows``
counter the bench gate tracks) while leaving the FLOP count unchanged:
``R`` real transforms of cost ``2.5 N log N`` become ``R/2`` complex ones
of cost ``5 N log N``.

The same trick runs backwards: two Hermitian half-spectra ``G0, G1`` fold
into one full-length complex sequence ``G0 + 1j * G1`` (Hermitian-extended
per component), whose single inverse complex FFT returns row ``0`` in its
real part and row ``1`` in its imaginary part.

Everything here transforms along the **last** axis and pairs rows along
the **second-to-last** axis of a ``(..., rows, n)`` stack.  An odd row
count leaves the final row unpaired; it runs through the ordinary
half-spectrum transforms.  All entry points accept
non-contiguous (strided) inputs — staging into the packed complex block is
itself the one contiguous pass the batched transform needs.
"""

from __future__ import annotations

import numpy as np


def _require_real(x: np.ndarray, name: str) -> np.ndarray:
    if np.iscomplexobj(x):
        raise TypeError(
            f"{name} must be real for real-pair packing; got dtype "
            f"{np.asarray(x).dtype} (use the complex fft directly)"
        )
    return np.asarray(x, dtype=float)


def fold_pairs(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Stage real rows into the packed complex block, zero-padded to *n*.

    *x* has shape ``(..., R, L)`` with ``L <= n``.  Returns ``(z, rest)``
    where ``z`` is the ``(..., R // 2, n)`` complex block whose real parts
    are the even-indexed rows and imaginary parts the odd-indexed rows,
    and ``rest`` is the final unpaired row ``(..., 1, L)`` when ``R`` is
    odd (``None`` otherwise).  This is the single contiguous staging pass
    of the batched transform: the source may be arbitrarily strided, the
    destination is one fresh contiguous buffer.
    """
    x = _require_real(x, "x")
    if x.ndim < 2:
        raise ValueError(
            "pair packing needs a (..., rows, n) stack; got a "
            f"{x.ndim}-d array"
        )
    rows, length = x.shape[-2], x.shape[-1]
    if length > n:
        raise ValueError(
            f"row length {length} exceeds transform size {n}"
        )
    pairs = rows // 2
    z = np.zeros(x.shape[:-2] + (pairs, n), dtype=complex)
    z.real[..., :length] = x[..., 0: 2 * pairs: 2, :]
    z.imag[..., :length] = x[..., 1: 2 * pairs: 2, :]
    rest = x[..., 2 * pairs:, :] if rows % 2 else None
    return z, rest


def conj_reverse_half(z_hat: np.ndarray, bins: int) -> np.ndarray:
    """``conj(Z[(N - k) mod N])`` for ``k in [0, bins)``.

    *z_hat* is a full complex spectrum ``(..., N)`` with ``bins = N//2+1``.
    Together with ``z_hat[..., :bins]`` this covers every bin of *z_hat*
    exactly once (the DC bin is shared), so the Hermitian split consumes
    the complex FFT with no redundant arithmetic.
    """
    n = z_hat.shape[-1]
    out = np.empty(z_hat.shape[:-1] + (bins,), dtype=complex)
    out[..., 0] = np.conj(z_hat[..., 0])
    if bins > 1:
        out[..., 1:] = np.conj(z_hat[..., : n - bins: -1])
    return out


def split_pair_spectra(z_hat: np.ndarray,
                       bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-spectra ``(A, B)`` of the two real rows packed into *z_hat*."""
    half = z_hat[..., :bins]
    rev = conj_reverse_half(z_hat, bins)
    return 0.5 * (half + rev), -0.5j * (half - rev)


def packed_rfft(x: np.ndarray, n: int | None = None,
                fft=None) -> np.ndarray:
    """Drop-in ``rfft`` over stacked real rows via real-pair packing.

    Transforms ``(..., R, L)`` to ``(..., R, n//2 + 1)`` using
    ``R // 2`` complex transforms (one batched call) plus one real
    transform for the leftover row when ``R`` is odd.  Results match
    ``fft.rfft`` to rounding error (not bit-exactly: the Hermitian split
    reassociates the butterfly arithmetic).
    """
    from repro import fft as _fft

    backend = _fft.get_backend(fft)
    x = _require_real(x, "x")
    if x.ndim < 2:
        raise ValueError(
            "packed_rfft needs a (..., rows, n) stack; got a "
            f"{x.ndim}-d array"
        )
    if n is None:
        n = x.shape[-1]
    if n < 1:
        raise ValueError("transform length must be >= 1")
    if x.shape[-1] > n:
        x = x[..., :n]
    bins = n // 2 + 1
    out = np.empty(x.shape[:-1] + (bins,), dtype=complex)
    z, rest = fold_pairs(x, n)
    if z.shape[-2]:
        z_hat = backend.fft(z)
        even, odd = split_pair_spectra(z_hat, bins)
        out[..., 0: 2 * z.shape[-2]: 2, :] = even
        out[..., 1: 2 * z.shape[-2]: 2, :] = odd
    if rest is not None:
        out[..., -1:, :] = backend.rfft(rest, n)
    return out


def fold_half_spectra(spec: np.ndarray, n: int) -> np.ndarray:
    """Hermitian-extend and pack half-spectrum pairs for one inverse FFT.

    *spec* is ``(..., 2P, bins)`` (an even row count of Hermitian
    half-spectra with ``bins = n//2 + 1``).  Returns the ``(..., P, n)``
    complex block ``G = S_even + 1j * S_odd`` whose tail bins are the
    Hermitian images ``conj(S[.., n - k])`` of each component — the exact
    preimage such that ``ifft(G).real`` and ``ifft(G).imag`` are the two
    rows' inverse real transforms.
    """
    bins = spec.shape[-1]
    rows = spec.shape[-2]
    if rows % 2:
        raise ValueError("fold_half_spectra needs an even row count")
    even = spec[..., 0::2, :]
    odd = spec[..., 1::2, :]
    g = np.empty(spec.shape[:-2] + (rows // 2, n), dtype=complex)
    g[..., :bins] = even + 1j * odd
    if n > bins:
        g[..., bins:] = (np.conj(even[..., n - bins: 0: -1])
                         + 1j * np.conj(odd[..., n - bins: 0: -1]))
    return g


def packed_irfft(spec: np.ndarray, n: int | None = None,
                 fft=None) -> np.ndarray:
    """Drop-in ``irfft`` over stacked half-spectra via real-pair packing.

    Inverts ``(..., R, bins)`` to ``(..., R, n)`` using ``R // 2`` complex
    inverse transforms (one batched call) plus one real inverse for the
    leftover row when ``R`` is odd.
    """
    from repro import fft as _fft

    backend = _fft.get_backend(fft)
    spec = np.asarray(spec, dtype=complex)
    if spec.ndim < 2:
        raise ValueError(
            "packed_irfft needs a (..., rows, bins) stack; got a "
            f"{spec.ndim}-d array"
        )
    bins = spec.shape[-1]
    if n is None:
        n = 2 * (bins - 1) if bins > 1 else 1
    expected = n // 2 + 1
    if bins != expected:
        raise ValueError(
            f"spectrum has {bins} bins; transform size {n} needs {expected}"
        )
    rows = spec.shape[-2]
    pairs = rows // 2
    out = np.empty(spec.shape[:-1] + (n,), dtype=float)
    if pairs:
        g = fold_half_spectra(spec[..., : 2 * pairs, :], n)
        y = backend.ifft(g)
        out[..., 0: 2 * pairs: 2, :] = y.real
        out[..., 1: 2 * pairs: 2, :] = y.imag
    if rows % 2:
        out[..., -1:, :] = backend.irfft(spec[..., -1:, :], n)
    return out
