"""Tests for repro.utils.validation and the conv validator,
:meth:`repro.utils.shapes.ConvShape.from_tensors`."""

import numpy as np
import pytest

from repro.utils.shapes import ConvShape
from repro.utils.validation import ensure_array, require


def check_conv(x, w, padding, stride, dilation=1, groups=1):
    """Validate a convolution call the way every front door does: build
    its ``ConvShape``."""
    return ConvShape.from_tensors(x.shape, w.shape, padding, stride,
                                  dilation, groups)


class TestRequire:
    def test_passes_silently(self):
        require(True, "never raised")

    def test_raises_with_message(self):
        with pytest.raises(ValueError, match="custom message"):
            require(False, "custom message")


class TestEnsureArray:
    def test_coerces_lists(self):
        arr = ensure_array([1, 2, 3])
        assert isinstance(arr, np.ndarray)

    def test_dtype_cast(self):
        arr = ensure_array([1, 2], dtype=float)
        assert arr.dtype == np.float64

    def test_ndim_check(self):
        with pytest.raises(ValueError, match="must have 2 dimensions"):
            ensure_array([1, 2, 3], name="vec", ndim=2)

    def test_no_copy_when_possible(self):
        arr = np.zeros(3)
        assert ensure_array(arr) is arr


class TestCheckConvInputs:
    def _xw(self):
        return np.zeros((1, 3, 8, 8)), np.zeros((4, 3, 3, 3))

    def test_valid(self):
        x, w = self._xw()
        check_conv(x, w, padding=1, stride=1)

    def test_input_rank(self):
        _, w = self._xw()
        with pytest.raises(ValueError, match=r"input rank 3.*NCHW"):
            check_conv(np.zeros((3, 8, 8)), w, 0, 1)

    def test_weight_rank(self):
        x, _ = self._xw()
        with pytest.raises(ValueError, match=r"kernel rank 3.*FCKhKw"):
            check_conv(x, np.zeros((4, 3, 3)), 0, 1)

    def test_channel_mismatch(self):
        x, _ = self._xw()
        with pytest.raises(ValueError, match="channel mismatch"):
            check_conv(x, np.zeros((4, 2, 3, 3)), 0, 1)

    def test_negative_padding(self):
        x, w = self._xw()
        with pytest.raises(ValueError, match="padding"):
            check_conv(x, w, -1, 1)

    def test_zero_stride(self):
        x, w = self._xw()
        with pytest.raises(ValueError, match="stride"):
            check_conv(x, w, 0, 0)

    def test_kernel_does_not_fit(self):
        x = np.zeros((1, 1, 4, 4))
        w = np.zeros((1, 1, 6, 6))
        with pytest.raises(ValueError, match="does not fit"):
            check_conv(x, w, 0, 1)


class TestCheckConvInputsExtended:
    """Rejection paths for the extended parameter space.

    Every invalid spelling must fail with an actionable message naming the
    offending value — asserted via ``match`` so a reworded error that drops
    the key term breaks loudly here.
    """

    def _xw(self):
        return np.zeros((1, 4, 8, 8)), np.zeros((4, 4, 3, 3))

    def test_valid_full_params(self):
        x = np.zeros((1, 4, 9, 8))
        w = np.zeros((4, 2, 3, 3))
        check_conv(x, w, padding=(1, 0, 2, 1), stride=(1, 2),
                          dilation=(2, 1), groups=2)
        check_conv(x, w, padding="same", stride=2, dilation=2,
                          groups=2)

    @pytest.mark.parametrize("stride", [0, -1, (0, 1), (1, -2)])
    def test_nonpositive_stride(self, stride):
        x, w = self._xw()
        with pytest.raises(ValueError,
                           match="stride must be >= 1 in both axes"):
            check_conv(x, w, 1, stride)

    @pytest.mark.parametrize("dilation", [0, -1, (0, 2), (2, -1)])
    def test_nonpositive_dilation(self, dilation):
        x, w = self._xw()
        with pytest.raises(ValueError,
                           match="dilation must be >= 1 in both axes"):
            check_conv(x, w, 1, 1, dilation=dilation)

    def test_dilated_extent_does_not_fit(self):
        """A 3x3 kernel at dilation 4 spans 9 pixels — more than the 8+0
        padded input; the message must surface the dilated extent."""
        x, w = self._xw()
        with pytest.raises(ValueError, match=r"dilated extent 9x9"):
            check_conv(x, w, 0, 1, dilation=4)

    def test_dilated_extent_fits_with_padding(self):
        x, w = self._xw()
        check_conv(x, w, 1, 1, dilation=4)  # 8+2 >= 9: fine

    def test_negative_asymmetric_padding(self):
        x, w = self._xw()
        with pytest.raises(ValueError, match="padding must be non-negative"):
            check_conv(x, w, (1, -1, 0, 0), 1)

    def test_zero_groups(self):
        x, w = self._xw()
        with pytest.raises(ValueError, match="groups must be positive"):
            check_conv(x, w, 1, 1, groups=0)

    def test_channels_not_divisible_by_groups(self):
        x, _ = self._xw()
        with pytest.raises(ValueError, match="divisible by groups"):
            check_conv(x, np.zeros((3, 1, 3, 3)), 1, 1, groups=3)

    def test_group_channel_mismatch(self):
        x, w = self._xw()  # weight has 4 channel taps, C/groups is 2
        with pytest.raises(ValueError, match="C/groups"):
            check_conv(x, w, 1, 1, groups=2)

    @pytest.mark.parametrize("bad", [(1, 2, 3), (1, 2, 3, 4, 5)])
    def test_malformed_padding_tuple(self, bad):
        x, w = self._xw()
        with pytest.raises(ValueError, match="padding"):
            check_conv(x, w, bad, 1)


class TestIntegralityRejection:
    """Non-integer stride/dilation/groups must raise, not silently truncate.

    ``int(1.9) == 1`` answers a different problem than the caller posed;
    every non-integral spelling has to fail loudly with the offending value
    in the message.
    """

    def _xw(self):
        return np.zeros((1, 4, 8, 8)), np.zeros((4, 4, 3, 3))

    @pytest.mark.parametrize("stride", [1.9, 2.0, (1, 1.5), "2"])
    def test_non_integral_stride(self, stride):
        x, w = self._xw()
        with pytest.raises(ValueError, match="stride must be an integer"):
            check_conv(x, w, 1, stride)

    @pytest.mark.parametrize("dilation", [0.5, (2, 2.5)])
    def test_non_integral_dilation(self, dilation):
        x, w = self._xw()
        with pytest.raises(ValueError, match="dilation must be an integer"):
            check_conv(x, w, 1, 1, dilation=dilation)

    @pytest.mark.parametrize("groups", [2.5, 2.0, "4"])
    def test_non_integral_groups(self, groups):
        x, w = self._xw()
        with pytest.raises(ValueError, match="groups must be an integer"):
            check_conv(x, w, 1, 1, groups=groups)

    def test_message_names_value_and_type(self):
        x, w = self._xw()
        with pytest.raises(ValueError, match=r"got 1\.9 of type float"):
            check_conv(x, w, 1, 1.9)

    def test_numpy_integers_accepted(self):
        x = np.zeros((1, 4, 8, 8))
        w = np.zeros((4, 2, 3, 3))  # C/groups = 2 channel taps
        check_conv(x, w, 1, np.int64(2), dilation=np.int32(1),
                          groups=np.int64(2))
