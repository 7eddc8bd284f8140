"""Tests for repro.utils.random."""

import numpy as np

from repro.utils.random import (
    random_input,
    random_problem,
    random_weight,
    rng_for,
)
from repro.utils.shapes import ConvShape

SHAPE = ConvShape((8, 6), (3, 3), n=2, c=3, f=4)


def test_rng_default_seed_is_deterministic():
    assert rng_for().random() == rng_for().random()


def test_rng_custom_seed_differs_from_default():
    assert rng_for(1).random() != rng_for().random()


def test_random_input_shape_and_determinism():
    a = random_input(SHAPE)
    b = random_input(SHAPE)
    assert a.shape == SHAPE.input_shape()
    np.testing.assert_array_equal(a, b)


def test_random_weight_shape_and_scaling():
    w = random_weight(SHAPE)
    assert w.shape == SHAPE.weight_shape()
    # He-style scaling keeps magnitudes modest.
    assert np.abs(w).max() < 5.0 / np.sqrt(SHAPE.c * SHAPE.kernel_elems) * 3


def test_input_and_weight_use_distinct_streams():
    x = random_input(SHAPE, seed=7)
    w = random_weight(SHAPE, seed=7)
    assert x.ravel()[0] != w.ravel()[0]


def test_random_problem_matches_components():
    x, w = random_problem(SHAPE, seed=3)
    np.testing.assert_array_equal(x, random_input(SHAPE, 3))
    np.testing.assert_array_equal(w, random_weight(SHAPE, 3))


def test_dtype_override():
    x = random_input(SHAPE, dtype=np.float32)
    assert x.dtype == np.float32
