"""Unit tests for coalescing keys, request wrapping and stack/split."""

import numpy as np
import pytest

from repro.serve import (
    coalesce_key,
    make_request,
    split_result,
    stack_requests,
)


@pytest.fixture
def problem(rng):
    x = rng.standard_normal((2, 3, 8, 8))
    w = rng.standard_normal((4, 3, 3, 3))
    return x, w


class TestCoalesceKey:
    def test_same_arguments_same_key(self, problem):
        x, w = problem
        assert coalesce_key(x, w) == coalesce_key(x, w)

    def test_key_is_hashable(self, problem):
        x, w = problem
        assert len({coalesce_key(x, w), coalesce_key(x, w)}) == 1

    def test_batch_size_excluded(self, problem, rng):
        x, w = problem
        bigger = rng.standard_normal((7,) + x.shape[1:])
        assert coalesce_key(x, w) == coalesce_key(bigger, w)

    def test_image_geometry_included(self, problem, rng):
        x, w = problem
        other = rng.standard_normal((2, 3, 10, 10))
        assert coalesce_key(x, w) != coalesce_key(other, w)

    def test_weight_identity_not_equality(self, problem):
        x, w = problem
        assert coalesce_key(x, w) != coalesce_key(x, w.copy())

    def test_bias_identity(self, problem, rng):
        x, w = problem
        bias = rng.standard_normal(4)
        assert coalesce_key(x, w, bias) == coalesce_key(x, w, bias)
        assert coalesce_key(x, w, bias) != coalesce_key(x, w, bias.copy())
        assert coalesce_key(x, w, bias) != coalesce_key(x, w, None)

    def test_uniform_pair_spellings_coalesce(self, problem):
        x, w = problem
        assert coalesce_key(x, w, stride=2) == coalesce_key(x, w,
                                                            stride=(2, 2))
        assert coalesce_key(x, w, dilation=(1, 1)) == coalesce_key(x, w)

    def test_nonuniform_pair_preserved(self, problem):
        x, w = problem
        assert coalesce_key(x, w, stride=(2, 1)) != coalesce_key(x, w,
                                                                 stride=2)

    def test_padding_spellings_coalesce(self, problem):
        x, w = problem
        uniform = coalesce_key(x, w, padding=1)
        assert coalesce_key(x, w, padding=(1, 1)) == uniform
        assert coalesce_key(x, w, padding=(1, 1, 1, 1)) == uniform
        assert coalesce_key(x, w, padding=[1, 1]) == uniform

    def test_asymmetric_padding_preserved(self, problem):
        x, w = problem
        assert (coalesce_key(x, w, padding=(1, 2))
                != coalesce_key(x, w, padding=1))
        assert (coalesce_key(x, w, padding=(1, 2))
                == coalesce_key(x, w, padding=(1, 1, 2, 2)))

    def test_same_padding_string(self, problem):
        x, w = problem
        assert (coalesce_key(x, w, padding="same")
                == coalesce_key(x, w, padding="same"))
        assert (coalesce_key(x, w, padding="same")
                != coalesce_key(x, w, padding=1))

    def test_dtype_separates(self, problem):
        x, w = problem
        assert (coalesce_key(x.astype(np.float32), w)
                != coalesce_key(x, w))

    def test_engine_knobs_separate(self, problem):
        x, w = problem
        base = coalesce_key(x, w)
        assert coalesce_key(x, w, algorithm="gemm") != base
        assert coalesce_key(x, w, strategy="hybrid") != base
        assert coalesce_key(x, w, backend="numpy") != base

    def test_algorithm_enum_normalized(self, problem):
        x, w = problem
        from repro.baselines.registry import ConvAlgorithm

        assert (coalesce_key(x, w, algorithm=ConvAlgorithm.POLYHANKEL)
                == coalesce_key(x, w, algorithm="polyhankel"))


class TestConvRequest:
    def test_batch_recorded(self, problem):
        x, w = problem
        assert make_request(x, w).batch == x.shape[0]

    def test_future_starts_unresolved(self, problem):
        x, w = problem
        assert not make_request(x, w).future.done()

    def test_rejects_non_nchw_input(self, problem):
        _, w = problem
        with pytest.raises(ValueError, match="NCHW"):
            make_request(np.zeros((3, 8, 8)), w)

    def test_rejects_non_4d_weight(self, problem):
        x, _ = problem
        with pytest.raises(ValueError, match="weight"):
            make_request(x, np.zeros((3, 3)))

    @pytest.mark.parametrize("params, name", [
        (dict(stride=(1, 2, 3)), "stride"),
        (dict(dilation=1.5), "dilation"),
        (dict(padding=(1, 2, 3)), "padding"),
    ])
    def test_rejects_malformed_parameters(self, problem, params, name):
        x, w = problem
        with pytest.raises(ValueError, match=name):
            make_request(x, w, **params)


class TestStackSplit:
    def test_round_trip_bit_exact(self, rng):
        w = rng.standard_normal((2, 3, 3, 3))
        parts = [rng.standard_normal((n, 3, 8, 8)) for n in (1, 3, 2)]
        requests = [make_request(p, w) for p in parts]
        stacked = stack_requests(requests)
        assert stacked.shape[0] == 6
        pieces = split_result(stacked, requests)
        for piece, part in zip(pieces, parts):
            assert np.array_equal(piece, part)

    def test_single_request_is_passthrough(self, rng):
        w = rng.standard_normal((2, 3, 3, 3))
        request = make_request(rng.standard_normal((2, 3, 8, 8)), w)
        assert stack_requests([request]) is request.x
        out = rng.standard_normal((2, 2, 6, 6))
        assert split_result(out, [request])[0] is out

    def test_split_results_are_contiguous(self, rng):
        w = rng.standard_normal((2, 3, 3, 3))
        requests = [make_request(rng.standard_normal((2, 3, 8, 8)), w)
                    for _ in range(2)]
        out = rng.standard_normal((4, 2, 6, 6))
        for piece in split_result(out, requests):
            assert piece.flags["C_CONTIGUOUS"]
