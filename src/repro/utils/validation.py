"""Input validation helpers shared across the library."""

from __future__ import annotations

import numpy as np


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError`` with *message* when *condition* is false."""
    if not condition:
        raise ValueError(message)


def ensure_array(x, name: str = "array", dtype=None,
                 ndim: int | None = None) -> np.ndarray:
    """Coerce *x* to an ndarray, optionally checking rank and casting dtype."""
    arr = np.asarray(x)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} dimensions, got {arr.ndim}")
    return arr


def check_conv_inputs(x: np.ndarray, w: np.ndarray, padding, stride,
                      dilation=1, groups: int = 1) -> None:
    """Validate an NCHW/FCKhKw convolution call; raise ValueError on misuse.

    Accepts the full conv2d parameter space: *padding* may be an int,
    ``(ph, pw)``, ``(pt, pb, pl, pr)`` or ``"same"``; *stride* and
    *dilation* an int or ``(h, w)`` pair.  Every rejection carries an
    actionable message naming the offending value.
    """
    from repro.utils.shapes import (
        ensure_int,
        normalize_padding_nd,
        normalize_tuple,
    )

    if x.ndim != 4:
        raise ValueError(f"input must be 4D NCHW, got {x.ndim}D")
    if w.ndim != 4:
        raise ValueError(f"weight must be 4D FCKhKw, got {w.ndim}D")
    groups = ensure_int(groups, "groups")
    if groups < 1:
        raise ValueError(f"groups must be positive, got {groups}")
    c, f = x.shape[1], w.shape[0]
    if c % groups:
        raise ValueError(
            f"input channels ({c}) must be divisible by groups ({groups})"
        )
    if f % groups:
        raise ValueError(
            f"filters ({f}) must be divisible by groups ({groups})"
        )
    if w.shape[1] != c // groups:
        raise ValueError(
            f"channel mismatch: weight expects C/groups = {c // groups} "
            f"input channels per group, got {w.shape[1]}"
        )
    sh, sw = normalize_tuple(stride, 2, "stride")
    if sh < 1 or sw < 1:
        raise ValueError(
            f"stride must be >= 1 in both axes, got ({sh}, {sw}); "
            "zero or negative strides are not a convolution"
        )
    dh, dw = normalize_tuple(dilation, 2, "dilation")
    if dh < 1 or dw < 1:
        raise ValueError(
            f"dilation must be >= 1 in both axes, got ({dh}, {dw}); "
            "use dilation=1 for an undilated kernel"
        )
    ih, iw = x.shape[2], x.shape[3]
    kh, kw = w.shape[2], w.shape[3]
    (pt, pb), (pl, pr) = normalize_padding_nd(padding, (ih, iw), (kh, kw),
                                              (sh, sw), (dh, dw))
    if min(pt, pb, pl, pr) < 0:
        raise ValueError(
            f"padding must be non-negative, got (pt={pt}, pb={pb}, "
            f"pl={pl}, pr={pr})"
        )
    eff_kh = dh * (kh - 1) + 1
    eff_kw = dw * (kw - 1) + 1
    if ih + pt + pb < eff_kh or iw + pl + pr < eff_kw:
        raise ValueError(
            f"kernel {kh}x{kw} (dilated extent {eff_kh}x{eff_kw}) does not "
            f"fit padded input {ih + pt + pb}x{iw + pl + pr}; "
            "increase padding or reduce kernel size/dilation"
        )
