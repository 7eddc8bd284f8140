"""Layer objects for the inference framework.

A deliberately small PyTorch-flavoured module system: layers hold
parameters as NumPy arrays, ``forward`` is pure, and ``Conv2d`` exposes the
``algorithm`` knob the paper's Sec. 4.2 experiment flips network-wide.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.ndops import conv_transpose2d_output_shape
from repro.baselines.registry import ConvAlgorithm, add_bias, op_shape
from repro.guard import faults as _faults
from repro.guard.checksum import guard_stamp, servable
from repro.guard.state import guard_enabled
from repro.nn import functional as F
from repro.observe import record_cache_event, span
from repro.observe.registry import counters
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
        return F.run_conv(x, self.weight, self.bias, self.padding,
                          self.stride, self.dilation, self.groups,
                          self.algorithm, op=self._OP,
                          output_padding=self.output_padding)

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

    When the algorithm is PolyHankel, the layer caches the kernel spectrum
    per plan (``cache_spectra=True``): the first forward of each input
    geometry transforms the weight once, and every later forward reuses the
    spectrum.  Rebinding ``layer.weight`` invalidates the cache via the
    property setter; in-place mutation is caught too, because cache hits
    are verified against an exact snapshot of the weight.
    ``invalidate_weight_cache()`` drops the cached spectra explicitly.
    ``workers=N`` chunks each forward's batch across a thread pool.
    """

    def __init__(self, in_channels: int, out_channels: int,
                 kernel_size: int | tuple,
                 padding: int | tuple | str = 0, stride: int | tuple = 1,
                 dilation: int | tuple = 1, groups: int = 1,
                 bias: bool = True,
                 algorithm: ConvAlgorithm | str = ConvAlgorithm.POLYHANKEL,
                 rng: np.random.Generator | None = None,
                 cache_spectra: bool = True, workers: int | None = None):
        self.cache_spectra = cache_spectra
        self.workers = workers
        self._spectrum_cache: dict = {}
        self._weight_version = 0
        self._cache_hits = 0
        self._cache_misses = 0
        super().__init__(in_channels, out_channels, kernel_size, padding,
                         stride, dilation, groups, bias, algorithm, rng)

    # -- weight-spectrum cache ------------------------------------------------

    @property
    def weight(self) -> np.ndarray:
        return self._weight

    @weight.setter
    def weight(self, value: np.ndarray) -> None:
        self._weight = np.asarray(value)
        self.invalidate_weight_cache()

    def invalidate_weight_cache(self) -> None:
        """Drop cached kernel spectra; the next forward retransforms."""
        self._weight_version += 1
        self._spectrum_cache.clear()

    @property
    def weight_version(self) -> int:
        """Bumped on every rebind/invalidation (introspection aid)."""
        return self._weight_version

    def spectrum_cache_info(self):
        """Per-layer (hits, misses, size, maxsize) of the spectrum cache."""
        from repro.fft.plan import CacheInfo

        return CacheInfo(self._cache_hits, self._cache_misses,
                         len(self._spectrum_cache), None)

    def _run(self, x: np.ndarray) -> np.ndarray:
        if self.algorithm is ConvAlgorithm.POLYHANKEL and self.cache_spectra:
            return self._forward_polyhankel(x)
        return super()._run(x)

    def _forward_polyhankel(self, x: np.ndarray) -> np.ndarray:
        """Plan-cached PolyHankel forward: the weight is transformed once
        per plan and reused until the weight changes.  The plan key embeds
        stride/dilation/groups/padding, so the same weight convolved under
        different parameters never aliases a cached spectrum.

        While the guard is enabled, cached spectra are checksum-verified on
        every hit (an unstamped or corrupted entry is recomputed, never
        served) and the result is sentinel-classified before the bias is
        applied; a tripped sentinel or a raised engine error re-executes
        the forward through the supervised fallback chain."""
        from repro.core.multichannel import get_plan
        from repro.utils.validation import check_conv_inputs

        x = np.asarray(x, dtype=float)
        check_conv_inputs(x, self._weight, self.padding, self.stride,
                          self.dilation, self.groups)
        plan = get_plan(self.conv_shape(x.shape))
        key = plan.cache_key
        entry = self._spectrum_cache.get(key)
        hit = entry is not None and np.array_equal(entry[0], self._weight)
        if hit:
            w_hat = entry[1]
            if _faults._STACK:
                _faults.maybe_corrupt_spectrum(w_hat)
            hit = servable(w_hat, entry[2], "layer_spectrum")
        if hit:
            self._cache_hits += 1
            record_cache_event("layer_spectrum", hit=True)
        else:
            self._cache_misses += 1
            record_cache_event("layer_spectrum", hit=False)
            w_hat = plan.transform_weight(self._weight)
            self._spectrum_cache[key] = (
                np.array(self._weight, dtype=float, copy=True), w_hat,
                guard_stamp(w_hat))
        try:
            out = plan.execute(x, w_hat, workers=self.workers)
        except Exception:
            if not guard_enabled():
                raise
            return self._forward_guarded(x)
        if guard_enabled():
            from repro.guard.sentinel import classify

            verdict = classify(out, x, self._weight,
                               plan.shape.poly_product_len)
            if not verdict.ok:
                counters.add("guard.sentinel_trip", algorithm="polyhankel",
                             status=verdict.status, site="layer")
                return self._forward_guarded(x)
        return add_bias(out, self.bias)

    def submit(self, x: np.ndarray, server=None,
               deadline_s: float | None = None):
        """Submit this layer's forward to the serving layer; returns a
        ``Future``.

        Concurrent submissions against the same layer instance coalesce
        into one stacked engine call (the layer's weight array is the
        coalescing identity), so a burst of single-image requests runs at
        batched throughput.  The serving path applies the weight and bias
        directly — the per-layer spectrum cache is bypassed in favour of
        the engine's plan-level spectrum cache, which the stacked call
        warms once per geometry.
        """
        return F.conv2d_async(x, self._weight, self.bias, self.padding,
                              self.stride, self.dilation, self.groups,
                              algorithm=self.algorithm, server=server,
                              deadline_s=deadline_s)

    def _forward_guarded(self, x: np.ndarray) -> np.ndarray:
        """Re-execute this forward through the supervised fallback chain."""
        from repro.guard.chain import guarded_conv2d

        return guarded_conv2d(x, self._weight, bias=self.bias,
                              padding=self.padding, stride=self.stride,
                              dilation=self.dilation, groups=self.groups,
                              algorithm=self.algorithm)

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
