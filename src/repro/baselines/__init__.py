"""Comparator algorithms: every method the paper evaluates against."""

from repro.baselines.fft2d import conv2d_fft, irfft2, rfft2
from repro.baselines.fft_tiling import conv2d_fft_tiling
from repro.baselines.finegrain_fft import conv2d_finegrain_fft
from repro.baselines.im2col_gemm import convnd_im2col_gemm
from repro.baselines.implicit_gemm import (
    conv2d_implicit_gemm,
    conv2d_implicit_precomp_gemm,
)
from repro.baselines.naive import convnd_naive
from repro.baselines.registry import (
    AlgorithmEntry,
    ConvAlgorithm,
    convolve,
    get_entry,
    list_algorithms,
    supports,
)
from repro.baselines.winograd import (
    conv2d_winograd,
    conv2d_winograd_nonfused,
    winograd_correlate_1d,
    winograd_transforms,
)

__all__ = [
    "ConvAlgorithm",
    "AlgorithmEntry",
    "convolve",
    "get_entry",
    "list_algorithms",
    "supports",
    "convnd_naive",
    "convnd_im2col_gemm",
    "conv2d_implicit_gemm",
    "conv2d_implicit_precomp_gemm",
    "conv2d_fft",
    "conv2d_fft_tiling",
    "conv2d_winograd",
    "conv2d_winograd_nonfused",
    "conv2d_finegrain_fft",
    "winograd_transforms",
    "winograd_correlate_1d",
    "rfft2",
    "irfft2",
]
