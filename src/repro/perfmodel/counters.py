"""Analytic FLOP and memory-traffic counters for every algorithm.

These are the Table 2 / Table 3 complexity expressions of the paper, made
concrete: every algorithm is decomposed into the stages its implementation
actually runs (im2col, GEMM, row/column FFT passes, pointwise products,
inverse transforms, gathers), and each stage carries a FLOP count and the
bytes it streams through DRAM.  ``transactions`` divides bytes by the
32-byte sector size NVIDIA's performance counters use, which is what Fig. 7b
plots.

Conventions:

- arithmetic is FP32 (4 bytes); spectra are complex64 (8 bytes);
- a real FFT of size n costs ``2.5 * n * log2(n)`` FLOPs, a complex one
  ``5 * n * log2(n)`` (the standard split-radix estimates);
- a complex multiply costs 6 FLOPs; a complex multiply-accumulate 8;
- "conceptual" data redundancy counts as traffic even if a real kernel
  might cache some of it — exactly the paper's argument in Sec. 1 ("the
  number of memory transfers required is still determined by the conceptual
  redundancy").

The PolyHankel model follows the paper's actual implementation (Sec. 3.2):
overlap-save streaming with the FFT block size tied to the *combined kernel
polynomial* length — which is why its cost steps up when the kernel vector
crosses a power of two (the paper's explanation of Fig. 4) — with channels
summed in the frequency domain.  The block geometry lives in
:func:`repro.core.planning.overlap_save_blocks`, which the engine's
``overlap_save`` strategy runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.baselines.registry import ConvAlgorithm
from repro.core.planning import fft_passes, overlap_save_blocks, plan_fft_size
from repro.utils.shapes import ConvShape

FLOAT_BYTES = 4
COMPLEX_BYTES = 8
TRANSACTION_BYTES = 32


@dataclass(frozen=True)
class Stage:
    """One launched kernel: its arithmetic and its DRAM traffic."""

    name: str
    kind: str  # 'gemm' | 'fft' | 'elementwise' | 'transform' | 'gather'
    flops: float
    bytes_read: float
    bytes_written: float

    @property
    def bytes_moved(self) -> float:
        return self.bytes_read + self.bytes_written


@dataclass(frozen=True)
class CounterReport:
    """All stages of one algorithm on one problem shape."""

    algorithm: ConvAlgorithm
    shape: ConvShape
    stages: tuple[Stage, ...]
    workspace_bytes: float = 0.0

    @property
    def flops(self) -> float:
        return sum(s.flops for s in self.stages)

    @property
    def bytes_moved(self) -> float:
        return sum(s.bytes_moved for s in self.stages)

    @property
    def transactions(self) -> float:
        """32-byte DRAM transactions — the Fig. 7b metric."""
        return self.bytes_moved / TRANSACTION_BYTES

    @property
    def launches(self) -> int:
        return len(self.stages)


def _rfft_flops(n: float) -> float:
    return 2.5 * n * math.log2(max(n, 2))


def _cfft_flops(n: float) -> float:
    return 5.0 * n * math.log2(max(n, 2))


# ---------------------------------------------------------------------------
# GEMM family
# ---------------------------------------------------------------------------

def count_gemm(shape: ConvShape) -> CounterReport:
    """Explicit im2col + GEMM (Table 2/3 row 1).

    The workspace holds ``Kh*Kw*Oh*Ow`` elements per (image, channel) — the
    paper's im2col space expression — and is both written and re-read.
    """
    b, c, f = shape.n, shape.c, shape.f
    patch = shape.kernel_elems * shape.output_elems          # Kh*Kw*Oh*Ow
    workspace = b * c * patch * FLOAT_BYTES
    # The unrolling gather reads 4-byte elements at kernel-strided offsets;
    # at the 32-byte sector granularity performance counters see, that
    # inflates read traffic well beyond the element count.
    gather_inflation = 2.0
    im2col = Stage(
        "im2col", "transform", flops=0.0,
        bytes_read=gather_inflation * workspace, bytes_written=workspace,
    )
    gemm = Stage(
        "gemm", "gemm",
        flops=2.0 * b * f * c * patch,
        bytes_read=workspace + f * c * shape.kernel_elems * FLOAT_BYTES,
        bytes_written=b * f * shape.output_elems * FLOAT_BYTES,
    )
    return CounterReport(ConvAlgorithm.GEMM, shape, (im2col, gemm),
                         workspace_bytes=workspace)


def count_implicit_gemm(shape: ConvShape) -> CounterReport:
    """Fused gather + GEMM: same redundant reads, no materialized workspace.

    The in-flight im2col loads are just as strided as the explicit gather,
    so they carry the same 32-byte-sector inflation; what the implicit
    variants save is the workspace write + re-read.
    """
    b, c, f = shape.n, shape.c, shape.f
    patch = shape.kernel_elems * shape.output_elems
    gather_inflation = 2.0
    gemm = Stage(
        "implicit_gemm", "gemm",
        flops=2.0 * b * f * c * patch,
        bytes_read=(gather_inflation * b * c * patch
                    + f * c * shape.kernel_elems) * FLOAT_BYTES,
        bytes_written=b * f * shape.output_elems * FLOAT_BYTES,
    )
    return CounterReport(ConvAlgorithm.IMPLICIT_GEMM, shape, (gemm,))


def count_implicit_precomp_gemm(shape: ConvShape) -> CounterReport:
    """Implicit GEMM plus a small precomputed offset-table workspace."""
    base = count_implicit_gemm(shape)
    table = shape.output_elems * shape.kernel_elems * 8  # two int32 indices
    gemm = base.stages[0]
    stage = Stage(
        "implicit_precomp_gemm", "gemm",
        flops=gemm.flops,
        bytes_read=gemm.bytes_read + table,
        bytes_written=gemm.bytes_written,
    )
    return CounterReport(ConvAlgorithm.IMPLICIT_PRECOMP_GEMM, shape,
                         (stage,), workspace_bytes=table)


# ---------------------------------------------------------------------------
# FFT family
# ---------------------------------------------------------------------------

def _fft2d_extents(shape: ConvShape,
                   policy: str = "pow2") -> tuple[int, int]:
    # cuDNN's FFT algorithm requires power-of-two transform extents (its
    # documented FFT-algo constraint), unlike free-standing cuFFT.
    ph, pw = shape.padded_extents
    fh = plan_fft_size(ph + shape.kh - 1, policy)
    fw = plan_fft_size(pw + shape.kw - 1, policy)
    return fh, fw


def count_fft(shape: ConvShape) -> CounterReport:
    """Monolithic 2D FFT (Table 2/3 row 2).

    Each 2D transform is a row pass (real) plus a column pass (complex),
    with the intermediate complex plane streamed between them — the
    "multiple passes" the paper charges this method with.
    """
    b, c, f = shape.n, shape.c, shape.f
    fh, fw = _fft2d_extents(shape)
    bins = fh * (fw // 2 + 1)

    def fft2d_stages(prefix: str, count: int,
                     input_elems: float) -> list[Stage]:
        rows = Stage(
            f"{prefix}_fft_rows", "fft",
            flops=count * fh * _rfft_flops(fw),
            bytes_read=count * input_elems * FLOAT_BYTES,
            bytes_written=count * bins * COMPLEX_BYTES,
        )
        cols = Stage(
            f"{prefix}_fft_cols", "fft",
            flops=count * (fw // 2 + 1) * _cfft_flops(fh),
            bytes_read=count * bins * COMPLEX_BYTES,
            bytes_written=count * bins * COMPLEX_BYTES,
        )
        return [rows, cols]

    stages = fft2d_stages("input", b * c, shape.poly_input_len)
    stages += fft2d_stages("kernel", f * c, shape.kernel_elems)
    stages.append(Stage(
        "pointwise", "cgemm",
        flops=8.0 * b * f * c * bins,
        bytes_read=(b * c + f * c) * bins * COMPLEX_BYTES,
        bytes_written=b * f * bins * COMPLEX_BYTES,
    ))
    stages.append(Stage(
        "ifft_cols", "fft",
        flops=b * f * (fw // 2 + 1) * _cfft_flops(fh),
        bytes_read=b * f * bins * COMPLEX_BYTES,
        bytes_written=b * f * bins * COMPLEX_BYTES,
    ))
    stages.append(Stage(
        "ifft_rows", "fft",
        flops=b * f * fh * _rfft_flops(fw),
        bytes_read=b * f * bins * COMPLEX_BYTES,
        bytes_written=b * f * shape.output_elems * FLOAT_BYTES,
    ))
    workspace = (b * c + f * c + b * f) * bins * COMPLEX_BYTES
    return CounterReport(ConvAlgorithm.FFT, shape, tuple(stages),
                         workspace_bytes=workspace)


def count_fft_tiling(shape: ConvShape, tile: int = 32) -> CounterReport:
    """Tiled 2D FFT: per-tile transforms with halo re-reads."""
    b, c, f = shape.n, shape.c, shape.f
    ph, pw = shape.padded_extents
    full_oh = ph - shape.kh + 1
    full_ow = pw - shape.kw + 1
    tiles = math.ceil(full_oh / tile) * math.ceil(full_ow / tile)
    fh = plan_fft_size(tile + shape.kh - 1, "pow2")
    fw = plan_fft_size(tile + shape.kw - 1, "pow2")
    bins = fh * (fw // 2 + 1)
    patch = (tile + shape.kh - 1) * (tile + shape.kw - 1)

    per_tile_fft = fh * _rfft_flops(fw) + (fw // 2 + 1) * _cfft_flops(fh)
    stages = (
        Stage("input_tile_ffts", "fft",
              flops=b * c * tiles * per_tile_fft,
              bytes_read=b * c * tiles * patch * FLOAT_BYTES,
              bytes_written=b * c * tiles * bins * COMPLEX_BYTES),
        Stage("kernel_ffts", "fft",
              flops=f * c * per_tile_fft,
              bytes_read=f * c * shape.kernel_elems * FLOAT_BYTES,
              bytes_written=f * c * bins * COMPLEX_BYTES),
        Stage("pointwise", "cgemm",
              flops=8.0 * b * f * c * tiles * bins,
              bytes_read=(b * c * tiles + f * c) * bins * COMPLEX_BYTES,
              bytes_written=b * f * tiles * bins * COMPLEX_BYTES),
        Stage("ifft_tiles", "fft",
              flops=b * f * tiles * per_tile_fft,
              bytes_read=b * f * tiles * bins * COMPLEX_BYTES,
              bytes_written=b * f * shape.output_elems * FLOAT_BYTES),
    )
    workspace = (b * c + b * f) * tiles * bins * COMPLEX_BYTES
    return CounterReport(ConvAlgorithm.FFT_TILING, shape, stages,
                         workspace_bytes=workspace)


def count_finegrain_fft(shape: ConvShape) -> CounterReport:
    """Zhang's per-row block FFTs (Table 2/3 row 3).

    Row transforms of size ~2*Iw padded to a power of two; Oh*Kh block
    products; one inverse FFT per output row.
    """
    b, c, f = shape.n, shape.c, shape.f
    ph, pw = shape.padded_extents
    nfft = plan_fft_size(pw + shape.kw - 1, "pow2")
    bins = nfft // 2 + 1
    stages = (
        Stage("input_row_ffts", "fft",
              flops=b * c * ph * _rfft_flops(nfft),
              bytes_read=b * c * ph * pw * FLOAT_BYTES,
              bytes_written=b * c * ph * bins * COMPLEX_BYTES),
        Stage("kernel_row_ffts", "fft",
              flops=f * c * shape.kh * _rfft_flops(nfft),
              bytes_read=f * c * shape.kernel_elems * FLOAT_BYTES,
              bytes_written=f * c * shape.kh * bins * COMPLEX_BYTES),
        Stage("block_products", "cgemm",
              flops=8.0 * b * f * c * shape.oh * shape.kh * bins,
              bytes_read=(b * c * shape.oh * shape.kh
                          + f * c * shape.kh) * bins * COMPLEX_BYTES,
              bytes_written=b * f * shape.oh * bins * COMPLEX_BYTES),
        Stage("row_iffts", "fft",
              flops=b * f * shape.oh * _rfft_flops(nfft),
              bytes_read=b * f * shape.oh * bins * COMPLEX_BYTES,
              bytes_written=b * f * shape.output_elems * FLOAT_BYTES),
    )
    workspace = (b * c * ph + b * f * shape.oh) \
        * bins * COMPLEX_BYTES
    return CounterReport(ConvAlgorithm.FINEGRAIN_FFT, shape, stages,
                         workspace_bytes=workspace)


# ---------------------------------------------------------------------------
# Winograd family
# ---------------------------------------------------------------------------

def count_winograd(shape: ConvShape, m: int = 2,
                   nonfused: bool = False) -> CounterReport:
    """Winograd F(m x m, Kh x Kw) tiles.

    Products drop by ~(m*r / (m+r-1))^2 versus direct; the transforms add
    matrix-vector work per tile.  The non-fused variant streams the
    transformed-tile workspaces through DRAM between stages (cuDNN's
    WINOGRAD_NONFUSED), the fused one keeps them on chip.
    """
    requested = (ConvAlgorithm.WINOGRAD_NONFUSED if nonfused
                 else ConvAlgorithm.WINOGRAD)
    b, c, f = shape.n, shape.c, shape.f
    ah, aw = m + shape.kh - 1, m + shape.kw - 1
    tiles = math.ceil(shape.oh / m) * math.ceil(shape.ow / m)
    tile_elems = ah * aw

    data_tf_flops = b * c * tiles * 2.0 * (ah * ah * aw + ah * aw * aw)
    filt_tf_flops = f * c * 2.0 * (ah * ah * shape.kw
                                   + ah * shape.kw * shape.kh)
    prod_flops = 2.0 * b * f * c * tiles * tile_elems
    out_tf_flops = b * f * tiles * 2.0 * (m * ah * aw + m * m * aw)

    v_ws = b * c * tiles * tile_elems * FLOAT_BYTES
    u_ws = f * c * tile_elems * FLOAT_BYTES
    p_ws = b * f * tiles * tile_elems * FLOAT_BYTES

    # cuDNN's fused Winograd kernel exists for 3x3 only; larger kernels run
    # the staged (workspace-streaming) pipeline regardless of the variant
    # requested — which is why Winograd degrades away from 3x3.
    if max(shape.kh, shape.kw) > 3:
        nonfused = True

    if nonfused:
        stages = (
            Stage("filter_transform", "transform", flops=filt_tf_flops,
                  bytes_read=f * c * shape.kernel_elems * FLOAT_BYTES,
                  bytes_written=u_ws),
            Stage("data_transform", "transform", flops=data_tf_flops,
                  bytes_read=b * c * tiles * tile_elems * FLOAT_BYTES,
                  bytes_written=v_ws),
            Stage("batched_gemm", "gemm", flops=prod_flops,
                  bytes_read=v_ws + u_ws, bytes_written=p_ws),
            Stage("output_transform", "transform", flops=out_tf_flops,
                  bytes_read=p_ws,
                  bytes_written=b * f * shape.output_elems * FLOAT_BYTES),
        )
        workspace = v_ws + u_ws + p_ws
    else:
        stages = (
            Stage("filter_transform", "transform", flops=filt_tf_flops,
                  bytes_read=f * c * shape.kernel_elems * FLOAT_BYTES,
                  bytes_written=u_ws),
            Stage("winograd_fused", "winograd",
                  flops=data_tf_flops + prod_flops + out_tf_flops,
                  bytes_read=b * c * tiles * tile_elems * FLOAT_BYTES + u_ws,
                  bytes_written=b * f * shape.output_elems * FLOAT_BYTES),
        )
        workspace = u_ws
    return CounterReport(requested, shape, stages, workspace_bytes=workspace)


# ---------------------------------------------------------------------------
# PolyHankel
# ---------------------------------------------------------------------------

def count_polyhankel(shape: ConvShape) -> CounterReport:
    """PolyHankel with overlap-save streaming (Table 2/3 row 4).

    One pass over the un-expanded input: per-channel forward block FFTs,
    frequency-domain channel-summed products, one inverse block FFT per
    (image, filter, block), then the Eq. 12 gather.
    """
    b, c, f = shape.n, shape.c, shape.f
    cg = shape.group_channels  # channels each filter contracts
    nfft, _, blocks = overlap_save_blocks(shape)  # blocks per image/channel
    bins = nfft // 2 + 1
    passes = fft_passes(nfft)
    # Each extra FFT pass streams the working set through DRAM once more.
    extra = (passes - 1) * 2 * blocks * bins * COMPLEX_BYTES

    stages = (
        Stage("input_block_ffts", "fft",
              flops=b * blocks * c * _rfft_flops(nfft),
              bytes_read=b * c * (shape.poly_input_len * FLOAT_BYTES
                                  + extra / 2),
              bytes_written=b * c * (blocks * bins * COMPLEX_BYTES
                                     + extra / 2)),
        Stage("kernel_ffts", "fft",
              flops=f * cg * _rfft_flops(nfft),
              bytes_read=f * cg * shape.kernel_elems * FLOAT_BYTES,
              bytes_written=f * cg * bins * COMPLEX_BYTES * passes),
        Stage("pointwise_channel_sum", "cgemm",
              flops=8.0 * b * f * cg * blocks * bins,
              bytes_read=(b * c * blocks + f * cg) * bins * COMPLEX_BYTES,
              bytes_written=b * f * blocks * bins * COMPLEX_BYTES),
        # The Eq. 12 gather runs in the inverse FFT's store epilogue (a
        # cuFFT store-callback in the paper's setting): only the useful
        # output coefficients ever reach DRAM.
        Stage("ifft_blocks_gather", "fft",
              flops=b * blocks * f * _rfft_flops(nfft),
              bytes_read=b * f * (blocks * bins * COMPLEX_BYTES + extra / 2),
              bytes_written=b * f * (shape.output_elems * FLOAT_BYTES
                                     + extra / 2)),
    )
    workspace = (b * c + b * f) * blocks * bins * COMPLEX_BYTES
    return CounterReport(ConvAlgorithm.POLYHANKEL, shape, stages,
                         workspace_bytes=workspace)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_COUNTERS = {
    ConvAlgorithm.GEMM: count_gemm,
    ConvAlgorithm.IMPLICIT_GEMM: count_implicit_gemm,
    ConvAlgorithm.IMPLICIT_PRECOMP_GEMM: count_implicit_precomp_gemm,
    ConvAlgorithm.FFT: count_fft,
    ConvAlgorithm.FFT_TILING: count_fft_tiling,
    ConvAlgorithm.WINOGRAD: lambda s: count_winograd(s, nonfused=False),
    ConvAlgorithm.WINOGRAD_NONFUSED:
        lambda s: count_winograd(s, nonfused=True),
    ConvAlgorithm.FINEGRAIN_FFT: count_finegrain_fft,
    ConvAlgorithm.POLYHANKEL: count_polyhankel,
    ConvAlgorithm.POLYHANKEL_OS: count_polyhankel,
}


def count(algorithm: ConvAlgorithm | str, shape: ConvShape) -> CounterReport:
    """Counter report for *algorithm* on *shape*."""
    if isinstance(algorithm, str):
        algorithm = ConvAlgorithm(algorithm)
    try:
        fn = _COUNTERS[algorithm]
    except KeyError:
        raise ValueError(
            f"no counter model for algorithm {algorithm.value!r}"
        ) from None
    return fn(shape)


def modeled_algorithms() -> list[ConvAlgorithm]:
    """Algorithms that have a counter model."""
    return list(_COUNTERS)
