"""Algorithm registry: cuDNN-style enumeration and the one conv dispatch.

The paper compares PolyHankel against the full cuDNN menu (Sec. 4, Fig. 5).
This registry mirrors cuDNN's ``cudnnConvolutionFwdAlgo_t`` naming so the
benchmarks read like the paper's figures, and adds the two research methods
(fine-grain FFT, PolyHankel).

The degree map does not depend on rank, so one dispatch serves every op:
:func:`convolve` takes conv1d, conv2d and conv3d from the input rank and
conv_transpose2d by name.  :func:`op_shape` describes each op's problem
once as a :class:`ConvShape` — of the input's rank, or the transposed
adjoint's rank-2 problem — and :func:`supports` / :func:`fallback_chain`
answer against that shape.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.baselines.fft2d import conv2d_fft
from repro.baselines.fft_tiling import conv2d_fft_tiling
from repro.baselines.finegrain_fft import conv2d_finegrain_fft
from repro.baselines.im2col_gemm import convnd_im2col_gemm
from repro.baselines.implicit_gemm import (
    conv2d_implicit_gemm,
    conv2d_implicit_precomp_gemm,
)
from repro.baselines.naive import convnd_naive
from repro.baselines.ndops import (
    conv_transpose2d_naive,
    conv_transpose2d_output_shape,
    lift_1d_shape,
    transpose_internal_shape,
)
from repro.baselines.winograd import (
    MAX_ALPHA,
    conv2d_winograd,
    conv2d_winograd_nonfused,
)
from repro.core.ndim import convnd_polyhankel
from repro.hankel.im2col_view import pad2d
from repro.utils.shapes import (
    ConvShape,
    normalize_padding_nd,
    normalize_tuple,
)
from repro.utils.validation import ensure_array


class ConvAlgorithm(enum.Enum):
    """Every convolution algorithm known to the library."""

    NAIVE = "naive"
    GEMM = "gemm"
    IMPLICIT_GEMM = "implicit_gemm"
    IMPLICIT_PRECOMP_GEMM = "implicit_precomp_gemm"
    FFT = "fft"
    FFT_TILING = "fft_tiling"
    WINOGRAD = "winograd"
    WINOGRAD_NONFUSED = "winograd_nonfused"
    FINEGRAIN_FFT = "finegrain_fft"
    POLYHANKEL = "polyhankel"
    POLYHANKEL_OS = "polyhankel_os"


class ConvOp(enum.Enum):
    """Every convolution operation known to the library."""

    CONV1D = "conv1d"
    CONV2D = "conv2d"
    CONV3D = "conv3d"
    CONV_TRANSPOSE2D = "conv_transpose2d"


#: The forward op an input of each rank (``x.ndim``) runs.
_OP_BY_NDIM = {3: ConvOp.CONV1D, 4: ConvOp.CONV2D, 5: ConvOp.CONV3D}


def resolve_op(op: ConvOp | str | None, x_ndim: int | None = None
               ) -> ConvOp:
    """Resolve an op (enum or its string value); ``None`` takes the
    forward op of the input rank *x_ndim*."""
    if isinstance(op, ConvOp):
        return op
    if op is None:
        if x_ndim not in _OP_BY_NDIM:
            raise ValueError(
                f"no convolution takes a {x_ndim}-D input; expected "
                "(n, c, length), NCHW or NCDHW")
        return _OP_BY_NDIM[x_ndim]
    try:
        return ConvOp(op)
    except ValueError:
        names = [o.value for o in ConvOp]
        raise ValueError(f"unknown op {op!r}; one of {names}") from None


def op_shape(op: ConvOp | str | None, x_shape, w_shape, padding=0,
             stride=1, dilation=1, groups: int = 1, output_padding=0):
    """The problem shape dispatch and guarding decide on.

    conv1d/conv2d/conv3d → the :class:`ConvShape` of the input's rank;
    conv_transpose2d → the internal adjoint :class:`ConvShape` (see
    :func:`repro.baselines.ndops.transpose_internal_shape`).
    """
    op = resolve_op(op, len(x_shape))
    if op is ConvOp.CONV_TRANSPOSE2D:
        return transpose_internal_shape(x_shape, w_shape, padding, stride,
                                        dilation, groups, output_padding)
    if output_padding not in (0, (0, 0)):
        raise ValueError(f"output_padding only applies to "
                         f"conv_transpose2d, not {op.value}")
    shape = ConvShape.from_tensors(x_shape, w_shape, padding, stride,
                                   dilation, groups)
    if _OP_BY_NDIM.get(shape.ndim + 2) is not op:
        raise ValueError(
            f"{op.value} does not take a rank-{shape.ndim} problem "
            f"(input shape {tuple(x_shape)})")
    return shape


@dataclass(frozen=True)
class AlgorithmEntry:
    """Dispatch record: callable plus capability predicates.

    ``native=True`` means ``fn`` itself accepts the full parameter space
    (per-axis stride/dilation, asymmetric or ``"same"`` padding, groups).
    Non-native entries keep the classic ``(x, w, padding:int, stride:int)``
    signature and are *lowered* by :func:`convolve`: groups are split,
    dilation is materialized into the kernel, asymmetric pads become an
    explicit pre-pad, and non-uniform strides run at stride 1 and
    subsample — so every registered algorithm either runs the extended
    space or rejects it explicitly through ``supports``.

    ``any_rank=True`` means ``fn`` runs every spatial rank natively (and
    is called directly for conv1d, conv2d and conv3d); any other
    algorithm runs conv1d lifted to a ``1 x L`` image and cannot run
    conv3d.
    """

    algorithm: ConvAlgorithm
    fn: Callable[..., np.ndarray]
    description: str
    supports: Callable[[ConvShape], bool]
    native: bool = False
    any_rank: bool = False


def _winograd_supported(shape: ConvShape) -> bool:
    # cuDNN restricts Winograd to 3x3 stride-1; our generated transforms are
    # a bit more general but still bounded by conditioning.  Dilation is
    # lowered into the kernel, so the *effective* extents must fit the tile.
    return (shape.stride == 1
            and 2 + max(shape.eff_kernel) - 1 <= MAX_ALPHA)


_ENTRIES: dict[ConvAlgorithm, AlgorithmEntry] = {}


def _register(algorithm: ConvAlgorithm, fn, description: str,
              supports=lambda shape: True, native: bool = False,
              any_rank: bool = False) -> None:
    _ENTRIES[algorithm] = AlgorithmEntry(algorithm, fn, description,
                                         supports, native, any_rank)


_register(ConvAlgorithm.NAIVE, convnd_naive,
          "direct definition-following convolution (reference)",
          native=True, any_rank=True)
_register(ConvAlgorithm.GEMM, convnd_im2col_gemm,
          "explicit im2col expansion + GEMM", native=True, any_rank=True)
_register(ConvAlgorithm.IMPLICIT_GEMM, conv2d_implicit_gemm,
          "GEMM with the patch gather fused into the contraction",
          native=True)
_register(ConvAlgorithm.IMPLICIT_PRECOMP_GEMM, conv2d_implicit_precomp_gemm,
          "implicit GEMM with precomputed gather offset tables", native=True)
_register(ConvAlgorithm.FFT, conv2d_fft,
          "monolithic 2D-FFT convolution")
_register(ConvAlgorithm.FFT_TILING, conv2d_fft_tiling,
          "tiled 2D-FFT convolution (2D overlap-save)")
_register(ConvAlgorithm.WINOGRAD, conv2d_winograd,
          "Winograd F(2x2, KhxKw) with generated transforms",
          _winograd_supported)
_register(ConvAlgorithm.WINOGRAD_NONFUSED, conv2d_winograd_nonfused,
          "Winograd with materialized transform workspaces",
          _winograd_supported)
_register(ConvAlgorithm.FINEGRAIN_FFT, conv2d_finegrain_fft,
          "Zhang & Li's per-row block-FFT method (PACT'20)")
_register(ConvAlgorithm.POLYHANKEL, convnd_polyhankel,
          "this paper: polynomial-multiplication convolution, one 1D FFT",
          native=True, any_rank=True)


def _polyhankel_os(x, weight, padding=0, stride=1, dilation=1, groups=1,
                   **kwargs) -> np.ndarray:
    """PolyHankel on the ``overlap_save`` strategy of the one engine;
    a ``strategy`` knob here raises, since this route fixes it."""
    return convnd_polyhankel(x, weight, padding, stride, dilation, groups,
                             strategy="overlap_save", **kwargs)


_register(ConvAlgorithm.POLYHANKEL_OS, _polyhankel_os,
          "PolyHankel streamed through overlap-save FFT blocks",
          native=True, any_rank=True)


def list_algorithms() -> list[ConvAlgorithm]:
    """All registered algorithms, in registration order."""
    return list(_ENTRIES)


def get_entry(algorithm: ConvAlgorithm | str) -> AlgorithmEntry:
    """Resolve an algorithm (enum or its string value) to its entry."""
    if isinstance(algorithm, str):
        try:
            algorithm = ConvAlgorithm(algorithm)
        except ValueError:
            names = [a.value for a in ConvAlgorithm]
            raise ValueError(
                f"unknown algorithm {algorithm!r}; one of {names}"
            ) from None
    return _ENTRIES[algorithm]


def _planar(shape: ConvShape) -> ConvShape | None:
    """The 2D problem *shape* runs as (conv1d lifts to ``1 x L``), or
    ``None`` for a problem only the rank-generic engines run."""
    if shape.ndim == 2:
        return shape
    return lift_1d_shape(shape) if shape.ndim == 1 else None


def _supported(entry: AlgorithmEntry, planar: ConvShape | None) -> bool:
    return entry.any_rank if planar is None else entry.supports(planar)


def supports(algorithm: ConvAlgorithm | str,
             shape: ConvShape) -> bool:
    """Whether *algorithm* can run the problem *shape* (any op's shape,
    as :func:`op_shape` builds it)."""
    return _supported(get_entry(algorithm), _planar(shape))


#: Default descent for guarded execution: the research method first, then
#: the exact non-FFT routes.  GEMM and naive share no machinery with the
#: FFT pipeline, so a broken backend or poisoned spectrum cannot follow
#: the chain all the way down.  The overlap-save variant is left out: it
#: runs the same plan, spectrum cache and fault hooks as PolyHankel, so a
#: PolyHankel fault would only fail a second time before GEMM.
FALLBACK_ORDER = (
    ConvAlgorithm.POLYHANKEL,
    ConvAlgorithm.GEMM,
    ConvAlgorithm.NAIVE,
)


def fallback_chain(shape: ConvShape,
                   primary: ConvAlgorithm | str | None = None,
                   order=None) -> list[ConvAlgorithm]:
    """Ordered algorithms guarded execution may try for *shape* (any
    op's shape, as :func:`op_shape` builds it).

    The requested *primary* comes first, followed by *order*
    (:data:`FALLBACK_ORDER` by default, enums or string values) minus
    duplicates, keeping only algorithms whose ``supports`` predicate
    accepts the shape.  Never empty in practice: naive supports
    everything.
    """
    planar = _planar(shape)
    if order is None:
        order = FALLBACK_ORDER
    elif isinstance(order, str):
        raise ValueError(f"unknown chain order {order!r}; expected a "
                         "sequence of algorithms")
    ordered: list[ConvAlgorithm] = []
    if primary is not None:
        ordered.append(get_entry(primary).algorithm)
    for algo in order:
        algo = get_entry(algo).algorithm
        if algo not in ordered:
            ordered.append(algo)
    return [algo for algo in ordered if _supported(_ENTRIES[algo], planar)]


def _basic_space(shape: ConvShape) -> bool:
    """Whether *shape* sits in the classic (int padding/stride, dilation 1,
    one group) space every legacy kernel signature understands."""
    return (shape.groups == 1 and shape.dilation == 1
            and isinstance(shape.padding, int)
            and isinstance(shape.stride, int))


def _dilate_kernel(weight: np.ndarray,
                   dilation: tuple[int, int]) -> np.ndarray:
    """Materialize a dilated kernel by inserting zeros between taps."""
    dh, dw = dilation
    f, c, kh, kw = weight.shape
    out = np.zeros((f, c, (kh - 1) * dh + 1, (kw - 1) * dw + 1),
                   dtype=weight.dtype)
    out[:, :, ::dh, ::dw] = weight
    return out


def _convolve_lowered(entry: AlgorithmEntry, x: np.ndarray,
                      weight: np.ndarray, shape: ConvShape,
                      **kwargs) -> np.ndarray:
    """Run a basic-space kernel on an extended-space problem.

    Lowering steps, applied in order: split groups into independent
    sub-convolutions, turn asymmetric padding into an explicit pre-pad,
    materialize dilation into the kernel, and express non-uniform stride
    as stride 1 followed by per-axis output subsampling.  Each step
    preserves the exact arithmetic of the extended-space definition.
    """
    x = np.asarray(x)
    weight = np.asarray(weight)
    if shape.groups > 1:
        c_per, f_per = shape.group_channels, shape.group_filters
        sub = shape.group_view()
        outs = [
            _convolve_lowered(entry, x[:, g * c_per:(g + 1) * c_per],
                              weight[g * f_per:(g + 1) * f_per], sub,
                              **kwargs)
            for g in range(shape.groups)
        ]
        return np.concatenate(outs, axis=1)
    if not isinstance(shape.padding, int):
        (pt, pb), (pl, pr) = shape.pad_pairs
        x = pad2d(x, (pt, pb, pl, pr))
        shape = shape.with_(extents=shape.padded_extents, padding=0)
    if shape.dilation != 1:
        weight = _dilate_kernel(weight, shape.dilation_nd)
        shape = shape.with_(kernel=shape.eff_kernel, dilation=1)
    sh, sw = shape.stride_nd
    if sh == sw:
        return entry.fn(x, weight, padding=shape.padding, stride=sh,
                        **kwargs)
    out = entry.fn(x, weight, padding=shape.padding, stride=1, **kwargs)
    return out[:, :, ::sh, ::sw]


def _convolve_planar(entry: AlgorithmEntry, x: np.ndarray,
                     weight: np.ndarray, shape: ConvShape,
                     **kwargs) -> np.ndarray:
    """Run one 2D problem: natively, in the basic space, or lowered."""
    if entry.native:
        return entry.fn(x, weight, padding=shape.padding,
                        stride=shape.stride, dilation=shape.dilation,
                        groups=shape.groups, **kwargs)
    if _basic_space(shape):
        return entry.fn(x, weight, padding=shape.padding,
                        stride=shape.stride, **kwargs)
    return _convolve_lowered(entry, x, weight, shape, **kwargs)


def convolve(x: np.ndarray, weight: np.ndarray,
             algorithm: ConvAlgorithm | str = ConvAlgorithm.POLYHANKEL,
             padding=0, stride: int | tuple = 1,
             dilation: int | tuple = 1, groups: int = 1,
             op: ConvOp | str | None = None, output_padding=0,
             **kwargs) -> np.ndarray:
    """Run any convolution op with an explicitly chosen algorithm.

    The op comes from the input rank — ``(n, c, length)`` is conv1d,
    NCHW conv2d, NCDHW conv3d — or from an explicit
    ``op="conv_transpose2d"`` (PyTorch's ``(c_in, c_out/g, kh, kw)``
    weight layout, which *is* the forward layout of the adjoint problem,
    so it passes through to :func:`repro.nn.grad.convnd_backward_input`
    untouched; ``naive`` runs the scatter oracle instead).  Each op takes
    the full parameter space.  Native algorithms receive the parameters
    directly; legacy kernels are lowered (group split, explicit pre-pad,
    kernel dilation, stride-1 + subsample).  An any-rank algorithm runs
    every forward op itself; any other runs conv2d planar and conv1d as a
    ``1 x L`` image.  An
    algorithm whose ``supports`` predicate rejects the problem raises
    ``ValueError`` — mirroring cuDNN's NOT_SUPPORTED — e.g. Winograd with
    stride 2 or FFT on conv3d.  Engine *kwargs* (``workers``,
    ``strategy``, ``backend``, ...) reach the chosen route unfiltered, so
    a knob that route does not take raises.
    """
    entry = get_entry(algorithm)
    x_shape, w_shape = np.shape(x), np.shape(weight)
    op = resolve_op(op, len(x_shape))
    shape = op_shape(op, x_shape, w_shape, padding, stride, dilation,
                     groups, output_padding)
    planar = _planar(shape)
    if not _supported(entry, planar):
        raise ValueError(
            f"algorithm {entry.algorithm.value} does not support "
            f"{op.value} with this shape (input {tuple(x_shape)}, weight "
            f"{tuple(w_shape)}, stride={stride}, dilation={dilation}, "
            f"groups={groups})"
        )
    if op is not ConvOp.CONV_TRANSPOSE2D:
        if entry.any_rank:
            return entry.fn(x, weight, padding, stride, dilation, groups,
                            **kwargs)
        if op is ConvOp.CONV2D:
            return _convolve_planar(entry, x, weight, planar, **kwargs)
        x4 = np.asarray(x, dtype=float)[:, :, None, :]
        w4 = np.asarray(weight, dtype=float)[:, :, None, :]
        return _convolve_planar(entry, x4, w4, planar, **kwargs)[:, :, 0]
    if entry.algorithm is ConvAlgorithm.NAIVE:
        return conv_transpose2d_naive(x, weight, padding, stride, dilation,
                                      groups, output_padding, **kwargs)
    from repro.nn.grad import convnd_backward_input

    pad_pairs = normalize_padding_nd(padding, x_shape[2:], w_shape[2:],
                                     stride, dilation)
    return convnd_backward_input(
        np.asarray(x, dtype=float), np.asarray(weight, dtype=float),
        conv_transpose2d_output_shape(x_shape, w_shape, padding, stride,
                                      dilation, groups, output_padding),
        padding=tuple(p for pair in pad_pairs for p in pair),
        stride=normalize_tuple(stride, 2, "stride"),
        dilation=normalize_tuple(dilation, 2, "dilation"),
        groups=groups, algorithm=entry.algorithm, **kwargs)


def add_bias(out: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    """*out* plus a per-output-channel *bias* (axis 1), if any."""
    if bias is None:
        return out
    bias = ensure_array(bias, "bias", ndim=1)
    return out + bias.reshape((1, -1) + (1,) * (out.ndim - 2))
