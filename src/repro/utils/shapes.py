"""Convolution shape arithmetic.

All algorithms in this library speak the same shape language, captured by
:class:`ConvShape` at every spatial rank (conv1d is rank 1, conv2d rank 2,
conv3d rank 3).  The notation follows Table 1 of the paper:

==============  ==========================================================
``n``           mini-batch size (N)
``c``           input channels (C)
``f``           number of kernels / filters (K in the paper)
``extents``     input spatial extents; ``ih, iw`` at rank 2
``kernel``      kernel spatial extents; ``kh, kw`` at rank 2
``out_extents`` output spatial extents; ``oh, ow`` at rank 2
``padding``     zero padding — int, one int per axis, a flat ``(lo, hi)``
                pair per axis (``(pt, pb, pl, pr)`` at rank 2) or
                ``"same"``
``stride``      convolution stride — int or one int per axis
``dilation``    kernel tap spacing — int or one int per axis
``groups``      channel groups (``c`` and ``f`` both divisible by it)
==============  ==========================================================

Parameters are canonicalized at construction time by
:func:`canonical_params` (uniform tuples collapse back to ints, per-axis
padding expands to flat ``(lo, hi)`` pairs, ``"same"`` resolves to concrete
pads), so equal geometries always hash to the same plan-cache key
regardless of how they were spelled; request and table keys use the same
function.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace


def ensure_int(value, name: str) -> int:
    """Coerce *value* to a plain int, rejecting non-integral values.

    ``int(1.9)`` silently truncates — a stride of 1.9 would run as stride 1
    and return an answer for a different problem.  Integral values of any
    type (numpy ints included) pass; everything else raises ``ValueError``.
    """
    if type(value) is int:
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    raise ValueError(
        f"{name} must be an integer, got {value!r} of type "
        f"{type(value).__name__}"
    )


def normalize_tuple(value, ndim: int, name: str) -> tuple[int, ...]:
    """Coerce an int or length-*ndim* sequence into one int per spatial dim.

    A wrong-length sequence is rejected with the expected rank in the
    message instead of being broadcast into a different problem.
    """
    if isinstance(value, (tuple, list)):
        if len(value) != ndim:
            raise ValueError(
                f"{name} must be an int or a length-{ndim} sequence (one "
                f"entry per spatial dimension), got {value!r} of length "
                f"{len(value)}"
            )
        return tuple(ensure_int(v, name) for v in value)
    v = ensure_int(value, name)
    return (v,) * ndim


def normalize_padding_nd(padding, extents: tuple[int, ...],
                         kernel: tuple[int, ...],
                         stride: int | tuple = 1,
                         dilation: int | tuple = 1
                         ) -> tuple[tuple[int, int], ...]:
    """Resolve any padding spelling to per-axis ``(lo, hi)`` pairs.

    Accepts every spelling :func:`canonical_params` does, plus ``"same"``
    (output extent ``ceil(input/stride)``), which needs the geometry
    arguments.
    """
    ndim = len(extents)
    if not isinstance(padding, str):
        return _pad_pairs(canonical_params(padding, 1, 1, ndim)[0], ndim)
    if padding != "same":
        raise ValueError(
            f"unknown padding mode {padding!r}; the only string mode is "
            "'same'"
        )
    stride = normalize_tuple(stride, ndim, "stride")
    dilation = normalize_tuple(dilation, ndim, "dilation")
    return tuple(
        same_padding_1d(e, k, s, d)
        for e, k, s, d in zip(extents, kernel, stride, dilation)
    )


def _pad_pairs(padding: int | tuple, ndim: int
               ) -> tuple[tuple[int, int], ...]:
    """Per-axis ``(lo, hi)`` pairs of a canonical int-or-flat padding."""
    if type(padding) is int:
        return ((padding, padding),) * ndim
    return tuple(zip(padding[::2], padding[1::2]))


def same_padding_1d(input_size: int, kernel_size: int, stride: int = 1,
                    dilation: int = 1) -> tuple[int, int]:
    """``(lo, hi)`` zero padding so the output extent is ``ceil(in/stride)``.

    TensorFlow/PyTorch ``"same"`` convention: the total pad is split evenly
    with the extra element on the high (bottom/right) side.
    """
    eff_k = dilation * (kernel_size - 1) + 1
    out = -(-input_size // stride)  # ceil division
    total = max((out - 1) * stride + eff_k - input_size, 0)
    return total // 2, total - total // 2


def _by(extents) -> str:
    """``8x8``-style spelling of per-axis extents for messages."""
    return "x".join(map(str, extents))


def _uniform(values: tuple[int, ...]) -> int | tuple[int, ...]:
    """Collapse a tuple whose entries all agree back to a plain int."""
    return values[0] if len(set(values)) == 1 else values


def canonical_params(padding, stride, dilation, ndim: int
                     ) -> tuple[int | tuple | str, int | tuple, int | tuple]:
    """The one canonical spelling of a rank-*ndim* problem's parameters.

    Returns ``(padding, stride, dilation)`` such that equal geometries
    compare and hash equal however they were spelled:

    - *stride* / *dilation*: an int or one int per spatial axis; a uniform
      tuple collapses to a plain int;
    - *padding*: an int, one int per axis (symmetric) or a flat ``(lo,
      hi)`` pair per axis in axis order (``(pt, pb, pl, pr)`` at rank 2);
      a per-axis spelling expands to the flat pairs, then a uniform
      tuple collapses to a plain int.  A string (``"same"``) passes
      through untouched: resolving it needs the extents, which
      :class:`ConvShape` has and a request key does not.

    Every entry must be integral and every sequence the right length;
    value ranges (``stride >= 1``, ``padding >= 0``) are the shape's to
    check.  :class:`ConvShape`, the serving layer's ``CoalesceKey`` and
    the selection bandit's ``key_digest`` all spell parameters through
    this function.
    """
    if type(padding) is not int and not isinstance(padding, str):
        if isinstance(padding, (tuple, list)):
            flat = tuple(ensure_int(p, "padding") for p in padding)
            if len(flat) == ndim:
                flat = tuple(p for p in flat for _ in (0, 1))
            elif len(flat) != 2 * ndim:
                raise ValueError(
                    f"padding must be an int, a length-{ndim} per-axis "
                    f"sequence (one entry per spatial dimension), a "
                    f"length-{2 * ndim} (lo, hi) flat sequence or 'same'; "
                    f"got {padding!r} of length {len(flat)}"
                )
            padding = _uniform(flat)
        else:
            padding = ensure_int(padding, "padding")
    return (padding, canonical_axes(stride, ndim, "stride"),
            canonical_axes(dilation, ndim, "dilation"))


def canonical_axes(value, ndim: int, name: str) -> int | tuple[int, ...]:
    """An int-or-per-axis parameter in canonical form (see
    :func:`canonical_params`): a plain int when every axis agrees."""
    if type(value) is int:
        return value
    return _uniform(normalize_tuple(value, ndim, name))


def conv_output_size(input_size: int, kernel_size: int,
                     padding: int | tuple[int, int] = 0, stride: int = 1,
                     dilation: int = 1) -> int:
    """Output extent of a 1D valid convolution.

    *padding* may be a single int (symmetric) or a ``(lo, hi)`` pair.

    >>> conv_output_size(5, 3)
    3
    >>> conv_output_size(5, 3, padding=1)
    5
    >>> conv_output_size(224, 7, padding=3, stride=2)
    112
    >>> conv_output_size(7, 3, padding=(0, 1), stride=2, dilation=2)
    2
    """
    if input_size <= 0 or kernel_size <= 0:
        raise ValueError("input and kernel sizes must be positive")
    lo, hi = (padding, padding) if isinstance(padding, int) else padding
    if lo < 0 or hi < 0:
        raise ValueError("padding must be non-negative")
    if stride <= 0:
        raise ValueError(
            f"stride must be a positive integer, got {stride}"
        )
    if dilation <= 0:
        raise ValueError(
            f"dilation must be a positive integer, got {dilation}"
        )
    eff_k = dilation * (kernel_size - 1) + 1
    padded = input_size + lo + hi
    if padded < eff_k:
        raise ValueError(
            f"dilated kernel extent {eff_k} (kernel {kernel_size}, "
            f"dilation {dilation}) exceeds padded input {padded}; "
            "increase padding or reduce dilation"
        )
    return (padded - eff_k) // stride + 1


@dataclass(frozen=True)
class ConvShape:
    """Complete description of a convolution problem of any spatial rank.

    *extents* and *kernel* are the spatial extents of the input and the
    kernel (rank >= 1; 2D is rank 2).  The parameters canonicalize at
    construction through :func:`canonical_params`, so a ``ConvShape`` is
    a plain frozen value type that serves as a cache key.  Derived
    quantities follow the paper's degree map generalized to rank N:
    ``t^(sum_l s_l i_l)`` over the row-major strides ``s_l`` of the
    padded extents (Eq. 10 at rank 2).
    """

    extents: tuple
    kernel: tuple
    n: int = 1
    c: int = 1
    f: int = 1
    padding: int | tuple | str = 0
    stride: int | tuple = 1
    dilation: int | tuple = 1
    groups: int = 1

    def __post_init__(self) -> None:
        # Each field is normalized once.  The per-axis views the properties
        # return are kept beside the canonical fields; they take no part in
        # equality or hashing.  (A frozen dataclass: the instance dict is
        # written directly.)
        extents = tuple([ensure_int(e, "extents") for e in self.extents])
        kernel = tuple([ensure_int(k, "kernel") for k in self.kernel])
        if not extents:
            raise ValueError("extents must name at least one spatial dim")
        ndim = len(extents)
        if len(kernel) != ndim:
            raise ValueError(
                f"kernel rank {len(kernel)} does not match input rank "
                f"{ndim} (kernel {kernel} vs extents {extents})"
            )
        padding, stride, dilation = canonical_params(
            self.padding, self.stride, self.dilation, ndim)
        stride_nd = (stride,) * ndim if type(stride) is int else stride
        dilation_nd = ((dilation,) * ndim if type(dilation) is int
                       else dilation)
        axes = "in both axes" if ndim == 2 else "per axis"
        if min(stride_nd) < 1:
            raise ValueError(
                f"stride must be >= 1 {axes}, got {stride_nd}; zero or "
                "negative strides are not a convolution"
            )
        if min(dilation_nd) < 1:
            raise ValueError(
                f"dilation must be >= 1 {axes}, got {dilation_nd}; use "
                "dilation=1 for an undilated kernel"
            )
        if isinstance(padding, str):
            pairs = normalize_padding_nd(padding, extents, kernel, stride_nd,
                                         dilation_nd)
            padding = _uniform(tuple([p for pair in pairs for p in pair]))
        pad_pairs = _pad_pairs(padding, ndim)
        if (padding if type(padding) is int else min(padding)) < 0:
            raise ValueError(f"padding must be non-negative, got {pad_pairs}")
        groups = ensure_int(self.groups, "groups")
        if groups < 1:
            raise ValueError(f"groups must be positive, got {groups}")
        if self.c % groups or self.f % groups:
            raise ValueError(
                f"channels ({self.c}) and filters ({self.f}) must both be "
                f"divisible by groups ({groups})"
            )
        # The fit is checked across all axes for the message; computing
        # the output extents then validates each axis (sizes positive).
        padded = [e + lo + hi for e, (lo, hi) in zip(extents, pad_pairs)]
        eff = [d * (k - 1) + 1 for d, k in zip(dilation_nd, kernel)]
        if min(extents) > 0 and min(kernel) > 0 \
                and any(p < k for p, k in zip(padded, eff)):
            raise ValueError(
                f"kernel {_by(kernel)} (dilated extent {_by(eff)}) does not "
                f"fit: it exceeds padded input {_by(padded)}; increase "
                "padding or reduce kernel size/dilation"
            )
        out_extents = tuple([
            conv_output_size(e, k, pair, s, d)
            for e, k, pair, s, d in zip(extents, kernel, pad_pairs,
                                        stride_nd, dilation_nd)
        ])
        self.__dict__.update(
            extents=extents, kernel=kernel, padding=padding, stride=stride,
            dilation=dilation, groups=groups, _stride_nd=stride_nd,
            _dilation_nd=dilation_nd, _pad_pairs=pad_pairs,
            _out_extents=out_extents)

    # -- per-axis parameter views -------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.extents)

    @property
    def stride_nd(self) -> tuple[int, ...]:
        """One stride per axis, however stride was spelled."""
        return self._stride_nd

    @property
    def dilation_nd(self) -> tuple[int, ...]:
        """One dilation per axis, however dilation was spelled."""
        return self._dilation_nd

    @property
    def pad_pairs(self) -> tuple[tuple[int, int], ...]:
        """Per-axis ``(lo, hi)`` pairs, however padding was spelled."""
        return self._pad_pairs

    @property
    def eff_kernel(self) -> tuple[int, ...]:
        """Dilated (effective) kernel extents ``d*(k-1) + 1`` per axis."""
        return tuple(d * (k - 1) + 1
                     for d, k in zip(self._dilation_nd, self.kernel))

    @property
    def group_channels(self) -> int:
        """Input channels seen by one filter: ``c // groups``."""
        return self.c // self.groups

    @property
    def group_filters(self) -> int:
        """Filters per group: ``f // groups``."""
        return self.f // self.groups

    # -- spatial extents ------------------------------------------------------

    @property
    def padded_extents(self) -> tuple[int, ...]:
        return tuple(e + lo + hi
                     for e, (lo, hi) in zip(self.extents, self._pad_pairs))

    @property
    def out_extents(self) -> tuple[int, ...]:
        return self._out_extents

    # The paper's Table 1 names, for rank-2 problems.

    def _plane(self, values: tuple) -> tuple:
        if len(values) != 2:
            raise ValueError(
                "ih, iw, kh, kw, oh and ow name a rank-2 problem; this one "
                f"has rank {len(values)}"
            )
        return values

    @property
    def ih(self) -> int:
        return self._plane(self.extents)[0]

    @property
    def iw(self) -> int:
        return self._plane(self.extents)[1]

    @property
    def kh(self) -> int:
        return self._plane(self.kernel)[0]

    @property
    def kw(self) -> int:
        return self._plane(self.kernel)[1]

    @property
    def oh(self) -> int:
        return self._plane(self._out_extents)[0]

    @property
    def ow(self) -> int:
        return self._plane(self._out_extents)[1]

    # -- element and operation counts ---------------------------------------

    @property
    def kernel_elems(self) -> int:
        return math.prod(self.kernel)

    @property
    def output_elems(self) -> int:
        return math.prod(self._out_extents)

    @property
    def macs(self) -> int:
        """Multiply-accumulate count of the direct algorithm."""
        return (self.n * self.f * self.group_channels
                * self.output_elems * self.kernel_elems)

    # -- PolyHankel degree map (Sec. 2.2 / 3.2 of the paper) ----------------

    @property
    def poly_strides(self) -> tuple[int, ...]:
        """Row-major degree strides ``s_l`` over the padded extents."""
        strides = [1]
        for extent in self.padded_extents[:0:-1]:
            strides.append(strides[-1] * extent)
        return tuple(reversed(strides))

    @property
    def poly_input_len(self) -> int:
        """Length of the flattened (padded) input polynomial A(t)."""
        return math.prod(self.padded_extents)

    @property
    def poly_kernel_len(self) -> int:
        """Combined kernel polynomial length ``M + 1`` (Sec. 3.2).

        With the stretched (dilated) degree map,
        ``M = sum_l s_l * d_l * (K_l - 1)``; at rank 2 with ``dilation=1``
        this is the paper's ``(Kh-1)*Iw + Kw``.
        """
        return 1 + sum(
            s * d * (k - 1)
            for s, d, k in zip(self.poly_strides, self._dilation_nd,
                               self.kernel)
        )

    @property
    def poly_product_len(self) -> int:
        """Linear-convolution length of A(t) * U(t)."""
        return self.poly_input_len + self.poly_kernel_len - 1

    # -- convenience ---------------------------------------------------------

    def with_(self, **kwargs) -> "ConvShape":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def group_view(self) -> "ConvShape":
        """The per-group sub-problem: ``c/groups`` channels, ``f/groups``
        filters, ``groups=1``, same spatial geometry."""
        return replace(self, c=self.group_channels, f=self.group_filters,
                       groups=1)

    def input_shape(self) -> tuple:
        """``(n, c, *extents)`` shape of the input tensor."""
        return (self.n, self.c, *self.extents)

    def weight_shape(self) -> tuple:
        """``(f, c/groups, *kernel)`` shape of the weight tensor."""
        return (self.f, self.group_channels, *self.kernel)

    def output_shape(self) -> tuple:
        """``(n, f, *out_extents)`` shape of the output tensor."""
        return (self.n, self.f, *self._out_extents)

    @classmethod
    def from_tensors(cls, x_shape, w_shape, padding: int | tuple | str = 0,
                     stride: int | tuple = 1, dilation: int | tuple = 1,
                     groups: int = 1) -> "ConvShape":
        """Build a ConvShape from ``(n, c, *spatial)`` input and ``(f,
        c/groups, *kernel)`` weight shapes (NCHW / FCKhKw at rank 2).

        This is the one validator of a convolution call: every front
        door and kernel builds its problem here, and each rejection (a
        rank mismatch, a channel mismatch, a kernel that does not fit, a
        non-positive or non-integral parameter) raises ``ValueError``
        naming the offending value.
        """
        if len(x_shape) < 3:
            raise ValueError(
                f"input must be (n, c, *spatial) with at least one spatial "
                f"dim, got shape {tuple(x_shape)}"
            )
        if len(w_shape) != len(x_shape):
            raise ValueError(
                f"kernel rank {len(w_shape)} does not match input rank "
                f"{len(x_shape)} (shapes {tuple(w_shape)} vs "
                f"{tuple(x_shape)}): the input is (n, c, *spatial) — NCL, "
                "NCHW or NCDHW — and the weight (f, c/groups, *kernel) — "
                "FCK, FCKhKw or FCKdKhKw"
            )
        n, c = x_shape[:2]
        f, wc = w_shape[:2]
        groups = ensure_int(groups, "groups")
        if groups < 1:
            raise ValueError(f"groups must be positive, got {groups}")
        if c % groups:
            raise ValueError(
                f"input channels ({c}) must be divisible by groups ({groups})"
            )
        if wc != c // groups:
            raise ValueError(
                f"channel mismatch: weight expects C/groups = "
                f"{c // groups} input channels per group, got {wc}"
            )
        return cls(tuple(x_shape[2:]), tuple(w_shape[2:]), n, c, f, padding,
                   stride, dilation, groups)
