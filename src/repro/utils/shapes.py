"""Convolution shape arithmetic.

All algorithms in this library speak the same shape language, captured by
:class:`ConvShape`.  The notation follows Table 1 of the paper:

===========  =============================
``n``        mini-batch size (N)
``c``        input channels (C)
``f``        number of kernels / filters (K in the paper)
``ih, iw``   input height / width
``kh, kw``   kernel height / width
``oh, ow``   output height / width
``padding``  zero padding — int, ``(ph, pw)``, ``(pt, pb, pl, pr)`` or
             ``"same"``
``stride``   convolution stride — int or ``(sh, sw)``
``dilation`` kernel tap spacing — int or ``(dh, dw)``
``groups``   channel groups (``c`` and ``f`` both divisible by it)
===========  =============================

Parameters are canonicalized at construction time (symmetric tuples collapse
back to ints, ``"same"`` resolves to concrete pads), so equal geometries
always hash to the same plan-cache key regardless of how they were spelled.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace


def ensure_int(value, name: str) -> int:
    """Coerce *value* to a plain int, rejecting non-integral values.

    ``int(1.9)`` silently truncates — a stride of 1.9 would run as stride 1
    and return an answer for a different problem.  Integral values of any
    type (numpy ints included) pass; everything else raises ``ValueError``.
    """
    if isinstance(value, numbers.Integral):
        return int(value)
    raise ValueError(
        f"{name} must be an integer, got {value!r} of type "
        f"{type(value).__name__}"
    )


def normalize_pair(value: int | tuple, name: str) -> tuple[int, int]:
    """Coerce an int or 2-sequence into an ``(h, w)`` int pair."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(
                f"{name} must be an int or an (h, w) pair, got {value!r}"
            )
        return ensure_int(value[0], name), ensure_int(value[1], name)
    v = ensure_int(value, name)
    return v, v


def normalize_tuple(value, ndim: int, name: str) -> tuple[int, ...]:
    """Coerce an int or length-*ndim* sequence into one int per spatial dim.

    The N-dimensional analogue of :func:`normalize_pair` — a wrong-length
    sequence is rejected with the expected rank in the message instead of
    being broadcast into a different problem.
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
    """Resolve any N-D padding spelling to per-axis ``(lo, hi)`` pairs.

    Accepts an int (every edge), a length-``ndim`` sequence (per-axis
    symmetric), a length-``2*ndim`` flat sequence of ``(lo, hi)`` pairs in
    axis order (the N-D generalization of ``(pt, pb, pl, pr)``), or
    ``"same"``.
    """
    ndim = len(extents)
    stride = normalize_tuple(stride, ndim, "stride")
    dilation = normalize_tuple(dilation, ndim, "dilation")
    if isinstance(padding, str):
        if padding != "same":
            raise ValueError(
                f"unknown padding mode {padding!r}; the only string mode "
                "is 'same'"
            )
        return tuple(
            same_padding_1d(e, k, s, d)
            for e, k, s, d in zip(extents, kernel, stride, dilation)
        )
    if isinstance(padding, (tuple, list)):
        vals = tuple(ensure_int(p, "padding") for p in padding)
        if len(vals) == ndim:
            return tuple((p, p) for p in vals)
        if len(vals) == 2 * ndim:
            return tuple((vals[2 * i], vals[2 * i + 1]) for i in range(ndim))
        raise ValueError(
            f"padding must be an int, a length-{ndim} per-axis sequence "
            f"(one entry per spatial dimension), a length-{2 * ndim} "
            f"(lo, hi) flat sequence or 'same'; got {padding!r} of length "
            f"{len(vals)}"
        )
    p = ensure_int(padding, "padding")
    return ((p, p),) * ndim


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


def normalize_padding(padding, ih: int, iw: int, kh: int, kw: int,
                      stride: int | tuple = 1, dilation: int | tuple = 1
                      ) -> tuple[int, int, int, int]:
    """Resolve any accepted padding spelling to ``(pt, pb, pl, pr)``.

    Accepts an int (all four sides), an ``(ph, pw)`` pair (per-axis
    symmetric), a ``(pt, pb, pl, pr)`` 4-tuple, or the string ``"same"``
    (output extent ``ceil(input/stride)``; needs the geometry arguments).
    """
    if isinstance(padding, str):
        if padding != "same":
            raise ValueError(
                f"unknown padding mode {padding!r}; the only string mode "
                "is 'same'"
            )
        sh, sw = normalize_pair(stride, "stride")
        dh, dw = normalize_pair(dilation, "dilation")
        pt, pb = same_padding_1d(ih, kh, sh, dh)
        pl, pr = same_padding_1d(iw, kw, sw, dw)
        return pt, pb, pl, pr
    if isinstance(padding, (tuple, list)):
        vals = tuple(ensure_int(p, "padding") for p in padding)
        if len(vals) == 2:
            return vals[0], vals[0], vals[1], vals[1]
        if len(vals) == 4:
            return vals
        raise ValueError(
            "padding must be an int, (ph, pw), (pt, pb, pl, pr) or 'same'; "
            f"got {padding!r}"
        )
    p = ensure_int(padding, "padding")
    return p, p, p, p


def _canonical_pair(pair: tuple[int, int]) -> int | tuple[int, int]:
    """Collapse a uniform pair back to a plain int (stable cache keys)."""
    return pair[0] if pair[0] == pair[1] else pair


def _canonical_padding(tblr: tuple[int, int, int, int]
                       ) -> int | tuple[int, int, int, int]:
    return tblr[0] if len(set(tblr)) == 1 else tblr


def _canonical_nd(values: tuple[int, ...]) -> int | tuple[int, ...]:
    """Collapse a uniform per-axis tuple back to a plain int (stable cache
    keys across spellings, any rank)."""
    return values[0] if len(set(values)) == 1 else values


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
    """Complete description of a 2D convolution problem.

    The derived quantities (``oh``, ``ow``, FLOP counts, ...) are computed
    lazily from the primary fields so a ``ConvShape`` stays a plain frozen
    value type that can be used as a cache key.
    """

    ih: int
    iw: int
    kh: int
    kw: int
    n: int = 1
    c: int = 1
    f: int = 1
    padding: int | tuple | str = 0
    stride: int | tuple = 1
    dilation: int | tuple = 1
    groups: int = 1

    def __post_init__(self) -> None:
        # Canonicalize the parameter spellings in place (frozen dataclass,
        # hence object.__setattr__) so equal geometries share a hash.
        sh, sw = normalize_pair(self.stride, "stride")
        dh, dw = normalize_pair(self.dilation, "dilation")
        if sh < 1 or sw < 1:
            raise ValueError(
                f"stride must be >= 1 in both axes, got ({sh}, {sw})"
            )
        if dh < 1 or dw < 1:
            raise ValueError(
                f"dilation must be >= 1 in both axes, got ({dh}, {dw})"
            )
        tblr = normalize_padding(self.padding, self.ih, self.iw,
                                 self.kh, self.kw, (sh, sw), (dh, dw))
        if min(tblr) < 0:
            raise ValueError(f"padding must be non-negative, got {tblr}")
        object.__setattr__(self, "stride", _canonical_pair((sh, sw)))
        object.__setattr__(self, "dilation", _canonical_pair((dh, dw)))
        object.__setattr__(self, "padding", _canonical_padding(tblr))
        object.__setattr__(self, "groups", ensure_int(self.groups, "groups"))
        if self.groups < 1:
            raise ValueError(f"groups must be positive, got {self.groups}")
        if self.c % self.groups or self.f % self.groups:
            raise ValueError(
                f"channels ({self.c}) and filters ({self.f}) must both be "
                f"divisible by groups ({self.groups})"
            )
        # Trigger validation of every derived extent at construction time.
        _ = self.oh, self.ow

    # -- normalized parameter views -----------------------------------------

    @property
    def stride_hw(self) -> tuple[int, int]:
        """``(sh, sw)`` regardless of how stride was spelled."""
        return normalize_pair(self.stride, "stride")

    @property
    def dilation_hw(self) -> tuple[int, int]:
        """``(dh, dw)`` regardless of how dilation was spelled."""
        return normalize_pair(self.dilation, "dilation")

    @property
    def pad_tblr(self) -> tuple[int, int, int, int]:
        """``(pt, pb, pl, pr)`` regardless of how padding was spelled."""
        p = self.padding
        if isinstance(p, int):
            return p, p, p, p
        return p  # canonicalized 4-tuple

    @property
    def eff_kh(self) -> int:
        """Dilated (effective) kernel height ``dh*(kh-1) + 1``."""
        return self.dilation_hw[0] * (self.kh - 1) + 1

    @property
    def eff_kw(self) -> int:
        """Dilated (effective) kernel width ``dw*(kw-1) + 1``."""
        return self.dilation_hw[1] * (self.kw - 1) + 1

    @property
    def group_channels(self) -> int:
        """Input channels seen by one filter: ``c // groups``."""
        return self.c // self.groups

    @property
    def group_filters(self) -> int:
        """Filters per group: ``f // groups``."""
        return self.f // self.groups

    # -- derived spatial extents -------------------------------------------

    @property
    def padded_ih(self) -> int:
        pt, pb, _, _ = self.pad_tblr
        return self.ih + pt + pb

    @property
    def padded_iw(self) -> int:
        _, _, pl, pr = self.pad_tblr
        return self.iw + pl + pr

    @property
    def oh(self) -> int:
        pt, pb, _, _ = self.pad_tblr
        return conv_output_size(self.ih, self.kh, (pt, pb),
                                self.stride_hw[0], self.dilation_hw[0])

    @property
    def ow(self) -> int:
        _, _, pl, pr = self.pad_tblr
        return conv_output_size(self.iw, self.kw, (pl, pr),
                                self.stride_hw[1], self.dilation_hw[1])

    # -- element counts -----------------------------------------------------

    @property
    def input_elems(self) -> int:
        """Elements in one input feature map (no padding)."""
        return self.ih * self.iw

    @property
    def kernel_elems(self) -> int:
        return self.kh * self.kw

    @property
    def output_elems(self) -> int:
        return self.oh * self.ow

    @property
    def total_input_elems(self) -> int:
        return self.n * self.c * self.input_elems

    @property
    def total_kernel_elems(self) -> int:
        return self.f * self.group_channels * self.kernel_elems

    @property
    def total_output_elems(self) -> int:
        return self.n * self.f * self.output_elems

    # -- classic operation counts -------------------------------------------

    @property
    def macs(self) -> int:
        """Multiply-accumulate count of the direct algorithm."""
        return (self.n * self.f * self.group_channels
                * self.output_elems * self.kernel_elems)

    @property
    def direct_flops(self) -> int:
        """FLOPs of the direct algorithm (one mul + one add per MAC)."""
        return 2 * self.macs

    # -- PolyHankel-specific extents (Sec. 2.2 / 3.2 of the paper) ----------

    @property
    def poly_input_len(self) -> int:
        """Length of the flattened (padded) input polynomial A(t)."""
        return self.padded_ih * self.padded_iw

    @property
    def poly_kernel_len(self) -> int:
        """Combined kernel polynomial length ``M + 1`` (Sec. 3.2).

        With the stretched (dilated) degree map, tap ``(i, j)`` sits at
        degree ``M - (Iw*dh*i + dw*j)``, so ``M = (Kh-1)*dh*Iw + (Kw-1)*dw``.
        For ``dilation=1`` this is the paper's ``(Kh-1)*Iw + Kw``.
        """
        dh, dw = self.dilation_hw
        return (self.kh - 1) * dh * self.padded_iw + (self.kw - 1) * dw + 1

    @property
    def poly_product_len(self) -> int:
        """Linear-convolution length of A(t) * U(t)."""
        return self.poly_input_len + self.poly_kernel_len - 1

    # -- the rank-generic names of ConvShapeNd -------------------------------

    @property
    def extents(self) -> tuple[int, int]:
        return self.ih, self.iw

    @property
    def kernel(self) -> tuple[int, int]:
        return self.kh, self.kw

    @property
    def stride_nd(self) -> tuple[int, int]:
        return self.stride_hw

    @property
    def dilation_nd(self) -> tuple[int, int]:
        return self.dilation_hw

    @property
    def pad_pairs(self) -> tuple[tuple[int, int], tuple[int, int]]:
        pt, pb, pl, pr = self.pad_tblr
        return (pt, pb), (pl, pr)

    @property
    def padded_extents(self) -> tuple[int, int]:
        return self.padded_ih, self.padded_iw

    @property
    def out_extents(self) -> tuple[int, int]:
        return self.oh, self.ow

    @property
    def poly_strides(self) -> tuple[int, int]:
        """Row-major degree strides over the padded plane (Eq. 10)."""
        return self.padded_iw, 1

    # -- convenience ---------------------------------------------------------

    def with_(self, **kwargs) -> "ConvShape":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def group_view(self) -> "ConvShape":
        """The per-group sub-problem: ``c/groups`` channels, ``f/groups``
        filters, ``groups=1``, same spatial geometry."""
        return replace(self, c=self.group_channels, f=self.group_filters,
                       groups=1)

    def input_shape(self) -> tuple[int, int, int, int]:
        """NCHW shape of the input tensor."""
        return (self.n, self.c, self.ih, self.iw)

    def weight_shape(self) -> tuple[int, int, int, int]:
        """FCKhKw shape of the weight tensor (``C`` is per-group)."""
        return (self.f, self.group_channels, self.kh, self.kw)

    def output_shape(self) -> tuple[int, int, int, int]:
        """NFOhOw shape of the output tensor."""
        return (self.n, self.f, self.oh, self.ow)

    @classmethod
    def from_tensors(cls, x_shape, w_shape, padding: int | tuple | str = 0,
                     stride: int | tuple = 1, dilation: int | tuple = 1,
                     groups: int = 1) -> "ConvShape":
        """Build a ConvShape from NCHW input and FCKhKw weight shapes.

        The spatial rank must be exactly 2 on *both* tensors: a rank
        mismatch (e.g. a 3D kernel against a 4D input) is rejected with an
        explicit error instead of broadcasting into a different problem —
        rank-3/rank-5 problems belong to ``conv1d``/``conv3d`` and
        :class:`ConvShapeNd`.
        """
        if len(x_shape) != len(w_shape):
            raise ValueError(
                f"input rank {len(x_shape)} does not match kernel rank "
                f"{len(w_shape)} (shapes {tuple(x_shape)} vs "
                f"{tuple(w_shape)}): conv2d expects a 4D NCHW input and a "
                "FCKhKw weight; rank-1/rank-3 problems belong to "
                "conv1d/conv3d (ConvShapeNd)"
            )
        if len(x_shape) != 4:
            raise ValueError(
                f"input must be 4D NCHW, got shape {tuple(x_shape)}; "
                "use conv1d/conv3d (ConvShapeNd) for other spatial ranks"
            )
        n, c, ih, iw = x_shape
        f, wc, kh, kw = w_shape
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
        return cls(ih=ih, iw=iw, kh=kh, kw=kw, n=n, c=c, f=f,
                   padding=padding, stride=stride, dilation=dilation,
                   groups=groups)


@dataclass(frozen=True)
class ConvShapeNd:
    """Complete description of an N-dimensional convolution problem.

    The rank-generic sibling of :class:`ConvShape`: *extents* and *kernel*
    are the spatial extents of the input and kernel (any rank >= 1), and
    all parameters canonicalize exactly as in the 2D case so equal
    geometries share a hash.  The PolyHankel quantities follow the N-D
    degree map ``t^(sum_l s_l i_l)`` over the row-major strides ``s_l`` of
    the padded extents (see ``repro.core.ndim``).
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
        extents = tuple(ensure_int(e, "extents") for e in self.extents)
        kernel = tuple(ensure_int(k, "kernel") for k in self.kernel)
        if not extents:
            raise ValueError("extents must name at least one spatial dim")
        if len(kernel) != len(extents):
            raise ValueError(
                f"kernel rank {len(kernel)} does not match input rank "
                f"{len(extents)} (kernel {kernel} vs extents {extents})"
            )
        ndim = len(extents)
        stride = normalize_tuple(self.stride, ndim, "stride")
        dilation = normalize_tuple(self.dilation, ndim, "dilation")
        if min(stride) < 1:
            raise ValueError(f"stride must be >= 1 per axis, got {stride}")
        if min(dilation) < 1:
            raise ValueError(
                f"dilation must be >= 1 per axis, got {dilation}"
            )
        pairs = normalize_padding_nd(self.padding, extents, kernel,
                                     stride, dilation)
        if min(p for pair in pairs for p in pair) < 0:
            raise ValueError(f"padding must be non-negative, got {pairs}")
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "stride", _canonical_nd(stride))
        object.__setattr__(self, "dilation", _canonical_nd(dilation))
        flat = tuple(p for pair in pairs for p in pair)
        object.__setattr__(self, "padding", _canonical_nd(flat))
        object.__setattr__(self, "groups", ensure_int(self.groups, "groups"))
        if self.groups < 1:
            raise ValueError(f"groups must be positive, got {self.groups}")
        if self.c % self.groups or self.f % self.groups:
            raise ValueError(
                f"channels ({self.c}) and filters ({self.f}) must both be "
                f"divisible by groups ({self.groups})"
            )
        # Trigger derived-extent validation at construction time.
        _ = self.out_extents

    # -- normalized parameter views -----------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.extents)

    @property
    def stride_nd(self) -> tuple[int, ...]:
        return normalize_tuple(self.stride, self.ndim, "stride")

    @property
    def dilation_nd(self) -> tuple[int, ...]:
        return normalize_tuple(self.dilation, self.ndim, "dilation")

    @property
    def pad_pairs(self) -> tuple[tuple[int, int], ...]:
        """Per-axis ``(lo, hi)`` pairs regardless of padding spelling."""
        p = self.padding
        if isinstance(p, int):
            return ((p, p),) * self.ndim
        return tuple((p[2 * i], p[2 * i + 1]) for i in range(self.ndim))

    @property
    def eff_kernel(self) -> tuple[int, ...]:
        """Dilated (effective) kernel extents ``d*(k-1) + 1`` per axis."""
        return tuple(d * (k - 1) + 1
                     for d, k in zip(self.dilation_nd, self.kernel))

    @property
    def group_channels(self) -> int:
        return self.c // self.groups

    @property
    def group_filters(self) -> int:
        return self.f // self.groups

    # -- derived spatial extents -------------------------------------------

    @property
    def padded_extents(self) -> tuple[int, ...]:
        return tuple(e + lo + hi
                     for e, (lo, hi) in zip(self.extents, self.pad_pairs))

    @property
    def out_extents(self) -> tuple[int, ...]:
        return tuple(
            conv_output_size(e, k, pair, s, d)
            for e, k, pair, s, d in zip(self.extents, self.kernel,
                                        self.pad_pairs, self.stride_nd,
                                        self.dilation_nd)
        )

    # -- element counts -----------------------------------------------------

    @property
    def kernel_elems(self) -> int:
        out = 1
        for k in self.kernel:
            out *= k
        return out

    @property
    def output_elems(self) -> int:
        out = 1
        for o in self.out_extents:
            out *= o
        return out

    @property
    def macs(self) -> int:
        return (self.n * self.f * self.group_channels
                * self.output_elems * self.kernel_elems)

    # -- PolyHankel degree-map extents --------------------------------------

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
        out = 1
        for e in self.padded_extents:
            out *= e
        return out

    @property
    def poly_kernel_len(self) -> int:
        """Combined kernel polynomial length ``M + 1`` with the stretched
        degree map: ``M = sum_l s_l * d_l * (K_l - 1)``."""
        return 1 + sum(
            s * d * (k - 1)
            for s, d, k in zip(self.poly_strides, self.dilation_nd,
                               self.kernel)
        )

    @property
    def poly_product_len(self) -> int:
        """Linear-convolution length of A(t) * U(t)."""
        return self.poly_input_len + self.poly_kernel_len - 1

    # -- convenience ---------------------------------------------------------

    def with_(self, **kwargs) -> "ConvShapeNd":
        return replace(self, **kwargs)

    def group_view(self) -> "ConvShapeNd":
        return replace(self, c=self.group_channels, f=self.group_filters,
                       groups=1)

    def input_shape(self) -> tuple:
        return (self.n, self.c, *self.extents)

    def weight_shape(self) -> tuple:
        return (self.f, self.group_channels, *self.kernel)

    def output_shape(self) -> tuple:
        return (self.n, self.f, *self.out_extents)

    def to_2d(self) -> ConvShape:
        """The equivalent :class:`ConvShape` of a rank-2 problem."""
        if self.ndim != 2:
            raise ValueError(
                f"to_2d needs a rank-2 problem, got rank {self.ndim}"
            )
        flat = tuple(p for pair in self.pad_pairs for p in pair)
        return ConvShape(ih=self.extents[0], iw=self.extents[1],
                         kh=self.kernel[0], kw=self.kernel[1], n=self.n,
                         c=self.c, f=self.f, padding=flat,
                         stride=self.stride_nd, dilation=self.dilation_nd,
                         groups=self.groups)

    @classmethod
    def from_tensors(cls, x_shape, w_shape, padding: int | tuple | str = 0,
                     stride: int | tuple = 1, dilation: int | tuple = 1,
                     groups: int = 1) -> "ConvShapeNd":
        """Build a ConvShapeNd from ``(n, c, *spatial)`` / ``(f, c_per,
        *kernel)`` shapes, rejecting rank mismatches explicitly."""
        x_shape, w_shape = tuple(x_shape), tuple(w_shape)
        if len(x_shape) < 3:
            raise ValueError(
                f"input must be (n, c, *spatial) with at least one spatial "
                f"dim, got shape {x_shape}"
            )
        if len(w_shape) != len(x_shape):
            raise ValueError(
                f"kernel rank {len(w_shape)} does not match input rank "
                f"{len(x_shape)} (shapes {w_shape} vs {x_shape}); weight "
                "must be (f, c/groups, *kernel) with one kernel extent per "
                "input spatial dimension"
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
        return cls(extents=x_shape[2:], kernel=w_shape[2:], n=n, c=c, f=f,
                   padding=padding, stride=stride, dilation=dilation,
                   groups=groups)
