"""Tests for repro.utils.shapes."""

import math

import pytest

from repro.utils.shapes import ConvShape, canonical_params, conv_output_size


class TestConvOutputSize:
    def test_valid_no_padding(self):
        assert conv_output_size(5, 3) == 3

    def test_same_padding(self):
        assert conv_output_size(5, 3, padding=1) == 5

    def test_stride(self):
        assert conv_output_size(224, 7, padding=3, stride=2) == 112

    def test_kernel_equals_input(self):
        assert conv_output_size(4, 4) == 1

    def test_stride_floor(self):
        # (7 - 3) // 2 + 1 = 3
        assert conv_output_size(7, 3, stride=2) == 3

    def test_kernel_too_large(self):
        with pytest.raises(ValueError, match="exceeds padded input"):
            conv_output_size(4, 5)

    def test_padding_rescues_large_kernel(self):
        assert conv_output_size(4, 5, padding=1) == 2

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_input(self, bad):
        with pytest.raises(ValueError):
            conv_output_size(bad, 3)

    def test_negative_padding(self):
        with pytest.raises(ValueError):
            conv_output_size(5, 3, padding=-1)

    def test_zero_stride(self):
        with pytest.raises(ValueError):
            conv_output_size(5, 3, stride=0)


class TestConvShape:
    def test_output_extents(self):
        s = ConvShape((5, 5), (3, 3))
        assert (s.oh, s.ow) == (3, 3)

    def test_padded_extents(self):
        s = ConvShape((5, 7), (3, 3), padding=2)
        assert s.padded_extents == (9, 11)

    def test_element_counts(self):
        s = ConvShape((6, 4), (2, 2), n=3, c=2, f=5)
        assert math.prod(s.extents) == 24
        assert s.kernel_elems == 4
        assert s.output_elems == 5 * 3
        assert math.prod(s.input_shape()) == 3 * 2 * 24
        assert math.prod(s.weight_shape()) == 5 * 2 * 4
        assert math.prod(s.output_shape()) == 3 * 5 * 15

    def test_macs_and_flops(self):
        s = ConvShape((5, 5), (3, 3), n=2, c=3, f=4)
        assert s.macs == 2 * 4 * 3 * 9 * 9

    def test_poly_lengths_match_paper(self):
        # Sec. 3.2: combined kernel size = (Kh-1)*Iw + Kw.
        s = ConvShape((5, 5), (3, 3))
        assert s.poly_input_len == 25
        assert s.poly_kernel_len == 2 * 5 + 3
        assert s.poly_product_len == 25 + 13 - 1

    def test_poly_lengths_use_padded_width(self):
        s = ConvShape((5, 5), (3, 3), padding=1)
        assert s.poly_input_len == 49
        assert s.poly_kernel_len == 2 * 7 + 3

    def test_invalid_shape_raises_at_construction(self):
        with pytest.raises(ValueError):
            ConvShape((3, 3), (5, 5))

    def test_with_replaces_fields(self):
        s = ConvShape((8, 8), (3, 3))
        s2 = s.with_(n=16, padding=1)
        assert (s2.n, s2.padding) == (16, 1)
        assert (s.n, s.padding) == (1, 0)

    def test_tensor_shapes_roundtrip(self):
        s = ConvShape((9, 7), (3, 2), n=4, c=2, f=6, padding=1, stride=2)
        s2 = ConvShape.from_tensors(s.input_shape(), s.weight_shape(),
                                    s.padding, s.stride)
        assert s2 == s

    def test_from_tensors_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            ConvShape.from_tensors((1, 3, 8, 8), (4, 2, 3, 3))

    def test_from_tensors_bad_rank(self):
        with pytest.raises(ValueError, match="NCHW"):
            ConvShape.from_tensors((3, 8, 8), (4, 3, 3, 3))
        with pytest.raises(ValueError, match="FCKhKw"):
            ConvShape.from_tensors((1, 3, 8, 8), (4, 3, 3))

    def test_hashable_for_caching(self):
        s = ConvShape((8, 8), (3, 3))
        assert {s: 1}[ConvShape((8, 8), (3, 3))] == 1


class TestEnsureInt:
    def test_plain_and_numpy_ints_pass(self):
        import numpy as np

        from repro.utils.shapes import ensure_int
        assert ensure_int(3, "stride") == 3
        got = ensure_int(np.int32(5), "stride")
        assert got == 5 and type(got) is int

    @pytest.mark.parametrize("bad", [1.0, 1.9, "2", None, (1,)])
    def test_non_integral_rejected(self, bad):
        from repro.utils.shapes import ensure_int
        with pytest.raises(ValueError, match="stride must be an integer"):
            ensure_int(bad, "stride")

    def test_conv_shape_rejects_float_groups(self):
        with pytest.raises(ValueError, match="groups must be an integer"):
            ConvShape((8, 8), (3, 3), n=1, c=4, f=4, groups=2.5)

    def test_from_tensors_rejects_float_groups(self):
        with pytest.raises(ValueError, match="groups must be an integer"):
            ConvShape.from_tensors((1, 4, 8, 8), (4, 4, 3, 3), 0, 1, 1, 2.0)


class TestConvShapeAnyRank:
    def test_rank_checks_at_construction(self):
        with pytest.raises(ValueError, match="at least one spatial"):
            ConvShape(extents=(), kernel=())
        with pytest.raises(ValueError, match="kernel rank"):
            ConvShape(extents=(8, 8), kernel=(3,))

    def test_op_shape_matches_direct_construction(self):
        from repro.baselines.registry import op_shape

        built = op_shape(None, (2, 4, 9, 7), (6, 2, 3, 2),
                         padding=(1, 0, 2, 1), stride=(2, 1), dilation=2,
                         groups=2)
        direct = ConvShape((9, 7), (3, 2), n=2, c=4, f=6,
                           padding=(1, 0, 2, 1), stride=(2, 1), dilation=2,
                           groups=2)
        assert built == direct and hash(built) == hash(direct)
        assert built.out_extents == (direct.oh, direct.ow)
        assert built.macs == direct.macs

    def test_poly_strides_are_row_major(self):
        # Padded extents (4, 6, 5): strides (30, 5, 1) — a 3D degree
        # map t^(30k + 5i + j) over the flattened padded volume.
        nd = ConvShape(extents=(4, 4, 3), kernel=(2, 2, 2),
                       padding=(0, 1, 1))
        assert nd.padded_extents == (4, 6, 5)
        assert nd.poly_strides == (30, 5, 1)
        assert nd.poly_input_len == 120
        assert nd.poly_kernel_len == 1 + 30 + 5 + 1
        assert nd.poly_product_len == 120 + 37 - 1

    def test_dilation_stretches_kernel_degrees(self):
        nd = ConvShape(extents=(8,), kernel=(3,), dilation=3)
        assert nd.eff_kernel == (7,)
        assert nd.poly_kernel_len == 1 + 3 * 2

    def test_equal_geometries_share_a_hash(self):
        a = ConvShape(extents=(8, 8), kernel=(3, 3), padding=1,
                      stride=(2, 2))
        b = ConvShape(extents=(8, 8), kernel=(3, 3),
                      padding=(1, 1, 1, 1), stride=2)
        assert a == b and hash(a) == hash(b)

    def test_from_tensors_roundtrip_any_rank(self):
        for x_shape, w_shape in [((2, 4, 11), (6, 4, 3)),
                                 ((2, 4, 5, 6, 4), (6, 2, 2, 3, 2))]:
            groups = 1 if len(x_shape) == 3 else 2
            nd = ConvShape.from_tensors(x_shape, w_shape, padding=1,
                                        groups=groups)
            assert nd.input_shape() == x_shape
            assert nd.weight_shape() == w_shape
            assert nd.output_shape()[:2] == (x_shape[0], w_shape[0])

    def test_from_tensors_rejects_rank_mismatch(self):
        with pytest.raises(ValueError, match="kernel rank"):
            ConvShape.from_tensors((1, 2, 8, 8), (2, 2, 3))
        with pytest.raises(ValueError, match="at least one spatial"):
            ConvShape.from_tensors((1, 2), (2, 2))

    def test_from_tensors_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            ConvShape.from_tensors((1, 4, 8, 8, 8), (2, 3, 3, 3, 3))

    def test_group_view_collapses_groups(self):
        nd = ConvShape(extents=(8, 8), kernel=(3, 3), c=8, f=4, groups=4)
        view = nd.group_view()
        assert (view.c, view.f, view.groups) == (2, 1, 1)

    def test_table1_names_need_rank_2(self):
        with pytest.raises(ValueError, match="rank-2"):
            ConvShape(extents=(8,), kernel=(3,)).ih
        with pytest.raises(ValueError, match="rank-2"):
            ConvShape(extents=(8, 8, 8), kernel=(3, 3, 3)).oh


class TestCanonicalParams:
    @pytest.mark.parametrize("ndim, spellings, canonical", [
        (1, [(1, 2), [1, 2]], (1, 2)),
        (1, [3, (3,), (3, 3)], 3),
        (2, [(1, 2), (1, 1, 2, 2)], (1, 1, 2, 2)),
        (2, [1, (1, 1), (1, 1, 1, 1)], 1),
        (3, [(1, 2, 3), (1, 1, 2, 2, 3, 3)], (1, 1, 2, 2, 3, 3)),
    ])
    def test_padding_spellings_collapse(self, ndim, spellings, canonical):
        for padding in spellings:
            assert canonical_params(padding, 1, 1, ndim)[0] == canonical

    def test_uniform_axes_collapse_to_int(self):
        assert canonical_params(0, (2, 2, 2), (1, 3, 1), 3)[1:] == \
            (2, (1, 3, 1))

    def test_same_passes_through(self):
        assert canonical_params("same", 1, 1, 2)[0] == "same"

    @pytest.mark.parametrize("padding", [(1, 2, 3), 1.5, (1.0, 1)])
    def test_malformed_padding_rejected(self, padding):
        with pytest.raises(ValueError, match="padding"):
            canonical_params(padding, 1, 1, 2)

    def test_wrong_length_stride_rejected(self):
        with pytest.raises(ValueError, match="length-2"):
            canonical_params(0, (1, 2, 3), 1, 2)

    def test_shape_fields_are_canonical(self):
        s = ConvShape((8, 8, 8), (3, 3, 3), padding=(1, 2, 3),
                      stride=(2, 2, 2), dilation=[1, 2, 1])
        assert (s.padding, s.stride, s.dilation) == canonical_params(
            (1, 2, 3), (2, 2, 2), [1, 2, 1], 3)
        assert s.pad_pairs == ((1, 1), (2, 2), (3, 3))
        assert s.stride_nd == (2, 2, 2)
