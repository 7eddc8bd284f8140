"""Winograd convolution F(m, r) with generated transforms (cuDNN WINOGRAD).

cuDNN ships hand-derived transforms for 3x3 kernels only (the paper's Fig. 4
shows Winograd as a single data point at kernel size 3).  Here the transform
matrices for any ``F(m, r)`` are *generated* from first principles:

The length-``alpha = m + r - 1`` linear convolution of a length-``m`` signal
with the length-``r`` filter is computed exactly by Toom-Cook
evaluation/interpolation at ``alpha`` points (``alpha - 1`` finite points
plus infinity).  Writing that bilinear algorithm as
``conv = V^-1 . diag(R g) . Q``, the *correlation* needed by CNNs is its
transpose (transposition principle):

    y = A^T [ (G g) . (B^T d) ]   with
    A^T = Q^T (m x alpha),  G = R (alpha x r),  B^T = (V^-1)^T (alpha x alpha)

where Q, R, V are Vandermonde matrices of the chosen points over degrees
m, r and alpha respectively.  All matrices are computed in exact rational
arithmetic and converted to float once.  For (m, r) = (2, 3) this reproduces
the classic F(2,3) matrices up to the known diagonal-scaling freedom.

Numerical accuracy degrades as ``alpha`` grows (Vandermonde conditioning);
``MAX_ALPHA`` guards the supported range, mirroring why real libraries stop
at small tiles.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from repro.hankel.im2col_view import pad2d
from repro.utils.shapes import ConvShape
from repro.utils.validation import ensure_array, require

MAX_ALPHA = 10

# Canonical interpolation points, chosen small and symmetric to keep the
# Vandermonde systems well conditioned: 0, +-1, +-1/2, +-2, +-1/4, +-4, ...
_CANONICAL_POINTS: list[Fraction] = [Fraction(0)]
for _k in (1, 2, 4, 8):
    _CANONICAL_POINTS += [Fraction(_k), Fraction(-_k),
                          Fraction(1, _k), Fraction(-1, _k)]
# Deduplicate while keeping order (1 == 1/1 appears twice above).
_seen: set[Fraction] = set()
_CANONICAL_POINTS = [p for p in _CANONICAL_POINTS
                     if not (p in _seen or _seen.add(p))]


def _vandermonde(points: list[Fraction], cols: int) -> list[list[Fraction]]:
    """Rows ``[p^0 .. p^(cols-1)]`` for finite points, plus the infinity row
    ``[0, ..., 0, 1]`` selecting the leading coefficient."""
    rows = [[p ** j for j in range(cols)] for p in points]
    rows.append([Fraction(0)] * (cols - 1) + [Fraction(1)])
    return rows


def _invert(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact Gauss-Jordan inverse over the rationals."""
    n = len(matrix)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(
            (r for r in range(col, n) if aug[r][col] != 0), None
        )
        if pivot is None:
            raise ValueError("transform point set is degenerate")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = Fraction(1) / aug[col][col]
        aug[col] = [v * inv_p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@functools.lru_cache(maxsize=32)
def winograd_transforms(m: int, r: int) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]:
    """(A^T, G, B^T) for F(m, r); float64 arrays of shapes
    ``(m, alpha)``, ``(alpha, r)``, ``(alpha, alpha)``."""
    require(m >= 1 and r >= 1, "m and r must be positive")
    alpha = m + r - 1
    require(alpha >= 2, "F(1,1) needs no transform")
    require(alpha <= MAX_ALPHA,
            f"F({m},{r}) needs alpha={alpha} > {MAX_ALPHA}; transforms would "
            "be too ill-conditioned")
    points = _CANONICAL_POINTS[: alpha - 1]

    q = _vandermonde(points, m)       # (alpha, m)
    rr = _vandermonde(points, r)      # (alpha, r)
    v = _vandermonde(points, alpha)   # (alpha, alpha)
    v_inv = _invert(v)

    at = np.array([[float(q[i][k]) for i in range(alpha)]
                   for k in range(m)])
    g = np.array([[float(c) for c in row] for row in rr])
    bt = np.array([[float(v_inv[j][i]) for j in range(alpha)]
                   for i in range(alpha)])
    return at, g, bt


def winograd_correlate_1d(d: np.ndarray, g: np.ndarray, m: int) -> np.ndarray:
    """F(m, r) on one data segment: ``y_k = sum_j d[k+j] g[j]``, k < m."""
    d = ensure_array(d, "d", ndim=1, dtype=float)
    g = ensure_array(g, "g", ndim=1, dtype=float)
    r = len(g)
    require(len(d) == m + r - 1, f"data segment must have {m + r - 1} samples")
    at, gm, bt = winograd_transforms(m, r)
    return at @ ((gm @ g) * (bt @ d))


def conv2d_winograd(x: np.ndarray, weight: np.ndarray, padding: int = 0,
                    stride: int = 1, m: int = 2,
                    variant: str = "fused") -> np.ndarray:
    """NCHW convolution with nested 2D Winograd tiles F(m x m, kh x kw).

    Stride must be 1 (as in cuDNN's Winograd).  ``variant`` selects the
    execution style: ``"fused"`` contracts per-tile products in one einsum;
    ``"nonfused"`` materializes the transformed-tile workspace and runs an
    explicit batched GEMM per transform coordinate, mirroring cuDNN's
    WINOGRAD_NONFUSED pipeline.  Both produce identical results.
    """
    x = ensure_array(x, "x", dtype=float, ndim=4)
    weight = ensure_array(weight, "weight", dtype=float)
    require(stride == 1, "Winograd supports stride 1 only")
    if variant not in ("fused", "nonfused"):
        raise ValueError(f"unknown Winograd variant {variant!r}")
    shape = ConvShape.from_tensors(x.shape, weight.shape, padding, stride)
    kh, kw = shape.kh, shape.kw

    at_h, g_h, bt_h = winograd_transforms(m, kh)
    at_w, g_w, bt_w = winograd_transforms(m, kw)
    alpha_h, alpha_w = m + kh - 1, m + kw - 1

    # Round the output plane up to whole m x m tiles; crop at the end.
    tiles_h = -(-shape.oh // m)
    tiles_w = -(-shape.ow // m)
    xp = pad2d(x, padding)
    need_h = tiles_h * m + kh - 1
    need_w = tiles_w * m + kw - 1
    xp = np.pad(xp, [(0, 0), (0, 0), (0, need_h - xp.shape[2]),
                     (0, need_w - xp.shape[3])])

    # Filter transform: U = G k G^T per (f, c).
    u = np.einsum("au,fcuv,bv->fcab", g_h, weight, g_w)

    # Extract overlapping data tiles (n, c, tiles_h, tiles_w, ah, aw).
    view = np.lib.stride_tricks.sliding_window_view(
        xp, (alpha_h, alpha_w), axis=(2, 3)
    )[:, :, ::m, ::m]
    # Data transform: V = B^T d B per tile.
    v = np.einsum("ay,nctsyx,bx->nctsab", bt_h, view, bt_w)

    if variant == "fused":
        prod = np.einsum("fcab,nctsab->nftsab", u, v)
    else:
        # Non-fused: per transform coordinate (a, b), a (f, c) x (c, n*t*s)
        # GEMM over an explicit workspace.
        n, c = shape.n, shape.c
        v_ws = v.transpose(5, 4, 1, 0, 2, 3).reshape(
            alpha_w, alpha_h, c, n * tiles_h * tiles_w
        )
        prod_ws = np.empty(
            (alpha_w, alpha_h, shape.f, n * tiles_h * tiles_w)
        )
        for b in range(alpha_w):
            for a in range(alpha_h):
                prod_ws[b, a] = u[:, :, a, b] @ v_ws[b, a]
        prod = prod_ws.reshape(
            alpha_w, alpha_h, shape.f, n, tiles_h, tiles_w
        ).transpose(3, 2, 4, 5, 1, 0)

    # Output transform: y = A^T M A per tile, then stitch tiles.
    y = np.einsum("ka,nftsab,lb->nftskl", at_h, prod, at_w)
    out = y.transpose(0, 1, 2, 4, 3, 5).reshape(
        shape.n, shape.f, tiles_h * m, tiles_w * m
    )
    return out[:, :, : shape.oh, : shape.ow]


def conv2d_winograd_nonfused(x: np.ndarray, weight: np.ndarray,
                             padding: int = 0, stride: int = 1,
                             m: int = 2) -> np.ndarray:
    """Convenience wrapper for the non-fused pipeline."""
    return conv2d_winograd(x, weight, padding, stride, m, variant="nonfused")
