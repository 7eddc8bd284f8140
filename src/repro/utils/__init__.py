"""Shared utilities: shape arithmetic, validation, seeded data generation."""

from repro.utils.shapes import ConvShape, conv_output_size
from repro.utils.validation import ensure_array, require

__all__ = [
    "ConvShape",
    "conv_output_size",
    "ensure_array",
    "require",
]
