"""Layer objects for the inference framework.

A deliberately small PyTorch-flavoured module system: layers hold
parameters as NumPy arrays, ``forward`` is pure, and ``Conv2d`` exposes the
``algorithm`` knob the paper's Sec. 4.2 experiment flips network-wide.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.ndops import conv_transpose2d_output_shape
from repro.baselines.registry import ConvAlgorithm, op_shape
from repro.nn import functional as F
from repro.observe import span
from repro.perfmodel.counters import count
from repro.perfmodel.device import GpuDevice
from repro.perfmodel.timing import simulate
from repro.utils.shapes import normalize_tuple
from repro.utils.validation import require


class Layer:
    """Base class: a callable with an optional simulated-GPU cost."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def output_shape(self, input_shape: tuple) -> tuple:
        """Shape produced for an NCHW (or flat) input shape."""
        raise NotImplementedError

    def simulated_time_s(self, input_shape: tuple,
                         device: GpuDevice) -> float:
        """Simulated GPU seconds for one forward call (0 if negligible)."""
        return 0.0

    def param_count(self) -> int:
        return 0


class _ConvBase(Layer):
    """What every convolution layer shares: parameter validation, He
    initialization from a caller-provided generator (so networks are
    reproducible), the forward through the layer's functional op,
    ``output_shape`` and ``param_count``.

    A subclass names its op and spatial rank; a transposed op keeps its
    weight in the PyTorch ``(in_channels, out_channels/groups, *kernel)``
    layout.
    """

    _OP = "conv2d"
    _NDIM = 2
    output_padding: int | tuple = 0

    def __init__(self, in_channels: int, out_channels: int,
                 kernel_size: int | tuple,
                 padding: int | tuple | str = 0, stride: int | tuple = 1,
                 dilation: int | tuple = 1, groups: int = 1,
                 bias: bool = True,
                 algorithm: ConvAlgorithm | str = ConvAlgorithm.POLYHANKEL,
                 rng: np.random.Generator | None = None):
        require(in_channels > 0 and out_channels > 0,
                "channel counts must be positive")
        require(groups >= 1, "groups must be positive")
        require(in_channels % groups == 0 and out_channels % groups == 0,
                f"channels ({in_channels}) and filters ({out_channels}) "
                f"must be divisible by groups ({groups})")
        kernel = normalize_tuple(kernel_size, self._NDIM, "kernel_size")
        require(all(k > 0 for k in kernel), "kernel size must be positive")
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding
        self.stride = stride
        self.dilation = dilation
        self.groups = groups
        self.algorithm = (ConvAlgorithm(algorithm)
                          if isinstance(algorithm, str) else algorithm)
        fan_in = (in_channels // groups) * int(np.prod(kernel))
        lead = ((in_channels, out_channels // groups)
                if self._OP == "conv_transpose2d"
                else (out_channels, in_channels // groups))
        self.weight = rng.standard_normal((*lead, *kernel)) * np.sqrt(
            2.0 / fan_in)
        self.bias = np.zeros(out_channels) if bias else None

    def conv_shape(self, input_shape: tuple):
        """The problem one forward at *input_shape* runs (see
        :func:`repro.baselines.registry.op_shape`)."""
        return op_shape(self._OP, input_shape, self.weight.shape,
                        self.padding, self.stride, self.dilation,
                        self.groups, self.output_padding)

    def forward(self, x: np.ndarray) -> np.ndarray:
        with span(f"{self._OP}.forward", algorithm=self.algorithm.value,
                  out_channels=self.out_channels, k=self.kernel_size):
            return self._run(x)

    def _run(self, x: np.ndarray) -> np.ndarray:
        # PolyHankel forward ops report their spectrum lookups as the
        # layer's own cache surface; the transposed op runs the adjoint.
        kwargs = ({"site": "layer_spectrum"}
                  if self.algorithm is ConvAlgorithm.POLYHANKEL
                  and self._OP != "conv_transpose2d" else {})
        return F.run_conv(x, self.weight, self.bias, self.padding,
                          self.stride, self.dilation, self.groups,
                          self.algorithm, op=self._OP,
                          output_padding=self.output_padding, **kwargs)

    def output_shape(self, input_shape: tuple) -> tuple:
        return self.conv_shape(input_shape).output_shape()

    def param_count(self) -> int:
        n = self.weight.size
        if self.bias is not None:
            n += self.bias.size
        return n

    def __repr__(self) -> str:
        extras = ""
        if self.dilation != 1:
            extras += f", d={self.dilation}"
        if self.groups != 1:
            extras += f", g={self.groups}"
        return (f"{type(self).__name__}({self.in_channels}, "
                f"{self.out_channels}, k={self.kernel_size}, "
                f"p={self.padding}, s={self.stride}{extras}, "
                f"algo={self.algorithm.value})")


class Conv2d(_ConvBase):
    """2D convolution layer with a pluggable algorithm.

    The forward runs the functional front door
    (:func:`repro.nn.functional.run_conv`), so a layer and
    :func:`repro.nn.functional.conv2d` on the same weight return the same
    bits and take the same guard path.  With PolyHankel, the kernel
    spectrum comes from the engine's one weight-spectrum cache
    (:meth:`repro.core.multichannel.PolyHankelPlan.weight_spectrum`): the
    first forward of each input geometry transforms the weight, later
    forwards reuse the spectrum, and a hit is only served after an exact
    content check, so rebinding or mutating ``layer.weight`` in place
    yields fresh spectra.  The layer's lookups count as ``layer_spectrum``
    cache events.
    """

    def submit(self, x: np.ndarray, server=None,
               deadline_s: float | None = None):
        """Submit this layer's forward to the serving layer; returns a
        ``Future``.

        Concurrent submissions against the same layer instance coalesce
        into one stacked engine call (the layer's weight array is the
        coalescing identity), so a burst of single-image requests runs at
        batched throughput.  The stacked call reads the same engine
        spectrum cache the layer's forward does.
        """
        return F.conv2d_async(x, self.weight, self.bias, self.padding,
                              self.stride, self.dilation, self.groups,
                              algorithm=self.algorithm, server=server,
                              deadline_s=deadline_s)

    def simulated_time_s(self, input_shape: tuple,
                         device: GpuDevice) -> float:
        return simulate(self.algorithm, self.conv_shape(input_shape),
                        device).total_s

    def counters(self, input_shape: tuple):
        """Counter report for this layer at *input_shape*."""
        return count(self.algorithm, self.conv_shape(input_shape))


class ReLU(Layer):
    def forward(self, x):
        return F.relu(x)

    def output_shape(self, input_shape):
        return input_shape

    def __repr__(self):
        return "ReLU()"


class MaxPool2d(Layer):
    def __init__(self, kernel_size: int, stride: int | None = None):
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x):
        return F.max_pool2d(x, self.kernel_size, self.stride)

    def output_shape(self, input_shape):
        n, c, h, w = input_shape
        oh = (h - self.kernel_size) // self.stride + 1
        ow = (w - self.kernel_size) // self.stride + 1
        return (n, c, oh, ow)

    def __repr__(self):
        return f"MaxPool2d(k={self.kernel_size}, s={self.stride})"


class AvgPool2d(MaxPool2d):
    def forward(self, x):
        return F.avg_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self):
        return f"AvgPool2d(k={self.kernel_size}, s={self.stride})"


class BatchNorm2d(Layer):
    """Inference-mode batch norm with fixed running statistics."""

    def __init__(self, channels: int,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.channels = channels
        self.running_mean = rng.standard_normal(channels) * 0.1
        self.running_var = 1.0 + 0.1 * rng.random(channels)
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)

    def forward(self, x):
        return F.batch_norm2d(x, self.running_mean, self.running_var,
                              self.gamma, self.beta)

    def output_shape(self, input_shape):
        return input_shape

    def param_count(self):
        return 2 * self.channels

    def __repr__(self):
        return f"BatchNorm2d({self.channels})"


class Flatten(Layer):
    def forward(self, x):
        return x.reshape(x.shape[0], -1)

    def output_shape(self, input_shape):
        n = input_shape[0]
        flat = int(np.prod(input_shape[1:]))
        return (n, flat)

    def __repr__(self):
        return "Flatten()"


class Linear(Layer):
    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = rng.standard_normal(
            (out_features, in_features)
        ) * np.sqrt(2.0 / in_features)
        self.bias = np.zeros(out_features) if bias else None

    def forward(self, x):
        return F.linear(x, self.weight, self.bias)

    def output_shape(self, input_shape):
        return (input_shape[0], self.out_features)

    def param_count(self):
        n = self.weight.size
        if self.bias is not None:
            n += self.bias.size
        return n

    def __repr__(self):
        return f"Linear({self.in_features}, {self.out_features})"


class Conv1d(_ConvBase):
    """1D convolution layer; runs through the rank-generic PolyHankel plan
    the 2D layer uses."""

    _OP = "conv1d"
    _NDIM = 1


class Conv3d(_ConvBase):
    """3D convolution layer (plane-stacked degree map, one 1D FFT)."""

    _OP = "conv3d"
    _NDIM = 3


class ConvTranspose2d(_ConvBase):
    """Transposed 2D convolution layer (generative decoder upsampling).

    The forward is the adjoint route through the chosen algorithm.
    """

    _OP = "conv_transpose2d"

    def __init__(self, in_channels: int, out_channels: int,
                 kernel_size: int | tuple,
                 padding: int | tuple = 0, stride: int | tuple = 1,
                 output_padding: int | tuple = 0,
                 dilation: int | tuple = 1, groups: int = 1,
                 bias: bool = True,
                 algorithm: ConvAlgorithm | str = ConvAlgorithm.POLYHANKEL,
                 rng: np.random.Generator | None = None):
        super().__init__(in_channels, out_channels, kernel_size, padding,
                         stride, dilation, groups, bias, algorithm, rng)
        self.output_padding = output_padding

    def output_shape(self, input_shape: tuple) -> tuple:
        return conv_transpose2d_output_shape(
            input_shape, self.weight.shape, self.padding, self.stride,
            self.dilation, self.groups, self.output_padding)
