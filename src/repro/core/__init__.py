"""The paper's contribution: PolyHankel convolution.

Layered as in the paper:

- :mod:`repro.core.degree_map` — index-to-exponent maps (Sec. 3.1, Fig. 2);
- :mod:`repro.core.polynomial` — coefficient-form polynomials and their FFT
  product (Sec. 2.3);
- :mod:`repro.core.construction` — building A(t) and U(t) directly from the
  input/kernel (Sec. 2.2, Eqs. 10-12);
- :mod:`repro.core.polyhankel` — single-channel convolution;
- :mod:`repro.core.multichannel` — the batched production engine (Sec. 3.2),
  with the channel-sum, channel-merge and overlap-save block strategies;
- :mod:`repro.core.planning` — cuFFT-style size policies and the
  overlap-save block geometry.
"""

from repro.core.construction import (
    input_polynomial,
    kernel_polynomial,
    output_gather_indices,
)
from repro.core.degree_map import (
    input_degrees,
    kernel_degrees,
    lshaped_traversal_map,
    max_kernel_degree,
    output_degrees,
)
from repro.core.multichannel import (
    PolyHankelPlan,
    clear_plan_cache,
    conv2d_polyhankel,
    get_plan,
)
from repro.core.planning import POLICIES, plan_fft_size
from repro.core.polyhankel import conv2d_single
from repro.core.polynomial import Polynomial

__all__ = [
    "Polynomial",
    "conv2d_single",
    "conv2d_polyhankel",
    "PolyHankelPlan",
    "get_plan",
    "clear_plan_cache",
    "plan_fft_size",
    "POLICIES",
    "input_polynomial",
    "kernel_polynomial",
    "output_gather_indices",
    "input_degrees",
    "kernel_degrees",
    "output_degrees",
    "max_kernel_degree",
    "lshaped_traversal_map",
]
