"""Functional NN operations (inference).

``conv2d`` is the operator whose cuDNN dispatch the paper replaces inside
PyTorch (Sec. 4.2); here it dispatches through our algorithm registry, with
the same "force one algorithm network-wide" capability the paper's
experiment uses.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.registry import ConvAlgorithm, add_bias, convolve
from repro.guard.state import guard_enabled
from repro.utils.validation import ensure_array


def conv2d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None,
           padding: int | tuple | str = 0, stride: int | tuple = 1,
           dilation: int | tuple[int, int] = 1, groups: int = 1,
           algorithm: ConvAlgorithm | str = ConvAlgorithm.POLYHANKEL,
           workers: int | None = None, **kwargs) -> np.ndarray:
    """2D convolution with an explicit algorithm choice.

    Accepts the full conv2d parameter space: *stride* and *dilation* take
    an int or ``(h, w)`` pair, *padding* additionally a ``(pt, pb, pl, pr)``
    4-tuple or ``"same"``, and *groups* splits the channels (``groups=c``
    is depthwise).  Dispatch goes through the algorithm registry: PolyHankel
    and the GEMM family run the parameters natively (PolyHankel's stretched
    degree map absorbs dilation for free), while the FFT/Winograd baselines
    are lowered — or reject the shape explicitly — by the registry.

    ``algorithm="auto"`` picks per call using the distilled selection rules
    (GEMM small inputs / PolyHankel sweet spot / FFT large kernels) — the
    heuristic dispatch the paper proposes as future work.

    ``workers=N`` chunks the batch across a thread pool (currently
    supported by the PolyHankel engine; other algorithms reject it).

    While the guard is enabled (:func:`repro.guard.enable_guard` or the
    :func:`repro.guard.guarded` scope), the call routes through the
    supervised fallback chain: the requested algorithm still runs first,
    but a tripped sentinel or a raised backend error degrades to a slower
    exact algorithm instead of propagating garbage.
    """
    if workers is not None:
        kwargs["workers"] = workers
    return run_conv(x, weight, bias, padding, stride, dilation, groups,
                    algorithm, op="conv2d", **kwargs)


def resolve_algorithm(algorithm: ConvAlgorithm | str, op: str, x_shape,
                      w_shape, padding=0, stride=1, dilation=1,
                      groups: int = 1) -> ConvAlgorithm | str:
    """The concrete algorithm a call runs: conv2d's ``"auto"`` picks one
    with the distilled selection rules; anything else passes through."""
    if algorithm != "auto" or op != "conv2d":
        return algorithm
    from repro.selection.heuristic import select_algorithm_rules
    from repro.utils.shapes import ConvShape

    return select_algorithm_rules(ConvShape.from_tensors(
        x_shape, w_shape, padding, stride, dilation, groups))


def run_conv(x: np.ndarray, weight: np.ndarray,
             bias: np.ndarray | None = None,
             padding: int | tuple | str = 0, stride: int | tuple = 1,
             dilation: int | tuple = 1, groups: int = 1,
             algorithm: ConvAlgorithm | str = ConvAlgorithm.POLYHANKEL, *,
             op: str, output_padding: int | tuple = 0, breaker_key=None,
             **kwargs) -> np.ndarray:
    """The tail every convolution front door shares.

    Resolves ``"auto"`` (:func:`resolve_algorithm`), then runs *op*
    through the supervised fallback chain while the guard is enabled
    (*breaker_key* scopes its circuit breaker, see
    :func:`repro.guard.chain.guarded_conv2d`) or straight through
    :func:`repro.baselines.registry.convolve`, and adds *bias*.
    """
    x = np.asarray(x)
    weight = np.asarray(weight)
    algorithm = resolve_algorithm(algorithm, op, x.shape, weight.shape,
                                  padding, stride, dilation, groups)
    if guard_enabled():
        from repro.guard.chain import guarded_conv2d

        return guarded_conv2d(x, weight, bias=bias, padding=padding,
                              stride=stride, dilation=dilation,
                              groups=groups, algorithm=algorithm,
                              breaker_key=breaker_key, op=op,
                              output_padding=output_padding, **kwargs)
    return add_bias(convolve(x, weight, algorithm, padding, stride,
                             dilation, groups, op=op,
                             output_padding=output_padding, **kwargs),
                    bias)


def conv2d_async(x: np.ndarray, weight: np.ndarray,
                 bias: np.ndarray | None = None,
                 padding: int | tuple | str = 0, stride: int | tuple = 1,
                 dilation: int | tuple[int, int] = 1, groups: int = 1,
                 algorithm: ConvAlgorithm | str = ConvAlgorithm.POLYHANKEL,
                 strategy: str = "sum", backend: str | None = None,
                 server=None, deadline_s: float | None = None):
    """Submit a convolution to the serving layer; returns a ``Future``.

    Requests submitted concurrently with the same weight array, geometry
    and parameters coalesce into one stacked engine call (dynamic
    batching); oversized requests shard across the server's worker pool.
    Uses the process-wide default :class:`~repro.serve.ConvServer` unless
    *server* is given.  ``future.result()`` is bit-exact with
    :func:`conv2d` on the same arguments.

    *deadline_s* bounds the request's lifetime: if it cannot be served in
    that many seconds the tier sheds it and the future raises
    :class:`repro.serve.DeadlineExceeded` instead of executing stale
    work.  May raise :class:`repro.serve.Overloaded` when the server is
    at its admission budget.
    """
    from repro import serve

    server = server if server is not None else serve.get_server()
    return server.submit(x, weight, bias, padding, stride, dilation,
                         groups, algorithm, strategy, backend,
                         deadline_s=deadline_s)


def conv1d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None,
           padding: int | tuple | str = 0, stride: int | tuple = 1,
           dilation: int | tuple = 1, groups: int = 1,
           algorithm: ConvAlgorithm | str = ConvAlgorithm.POLYHANKEL,
           **kwargs) -> np.ndarray:
    """1D convolution of an ``(n, c, length)`` batch.

    Same parameter space and dispatch rules as :func:`conv2d` (full
    stride/dilation/groups, ``"same"`` and asymmetric ``(lo, hi)``
    padding, any registered algorithm, guard-chain routing).  Internally
    the sequence runs through the same cached, rank-generic PolyHankel
    plan as 2D, with the same bits as the ``1 x L`` conv2d.
    """
    return run_conv(x, weight, bias, padding, stride, dilation, groups,
                    algorithm, op="conv1d", **kwargs)


def conv3d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None,
           padding: int | tuple | str = 0, stride: int | tuple = 1,
           dilation: int | tuple = 1, groups: int = 1,
           algorithm: ConvAlgorithm | str = ConvAlgorithm.POLYHANKEL,
           **kwargs) -> np.ndarray:
    """3D convolution of an ``(n, c, depth, height, width)`` batch.

    The degree map stacks a plane stride on top of the 2D construction
    (``t^(Iw*Id*k + Iw*i + j)``), so the whole volume still runs as one
    1D FFT.  Algorithms: ``polyhankel``, ``gemm``, ``naive`` (the 2D-only
    baselines reject 3D shapes explicitly).
    """
    return run_conv(x, weight, bias, padding, stride, dilation, groups,
                    algorithm, op="conv3d", **kwargs)


def conv_transpose2d(x: np.ndarray, weight: np.ndarray,
                     bias: np.ndarray | None = None,
                     padding: int | tuple = 0,
                     stride: int | tuple = 1,
                     output_padding: int | tuple = 0,
                     dilation: int | tuple = 1, groups: int = 1,
                     algorithm: ConvAlgorithm | str =
                     ConvAlgorithm.POLYHANKEL, **kwargs) -> np.ndarray:
    """Transposed (fractionally strided) convolution, a.k.a. deconvolution.

    Follows the PyTorch convention: *weight* is ``(c_in, c_out/groups,
    kh, kw)`` and each output extent is ``(i - 1) * stride - (p_lo +
    p_hi) + dilation * (k - 1) + 1 + output_padding`` with ``0 <=
    output_padding < stride`` (it resolves the ambiguity a strided
    forward convolution leaves about its input extent).  *stride*,
    *dilation*, *padding* and *output_padding* accept ints or ``(h, w)``
    pairs (padding also a flat 4-tuple).  The operation is the adjoint of
    :func:`conv2d`, computed by the backward-input machinery
    (:func:`repro.nn.grad.convnd_backward_input`: PolyHankel's spectral
    adjoint, or a convolution for any other registered algorithm) — and
    routes through the guard fallback chain while the guard is enabled.
    """
    return run_conv(x, weight, bias, padding, stride, dilation, groups,
                    algorithm, op="conv_transpose2d",
                    output_padding=output_padding, **kwargs)


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def max_pool2d(x: np.ndarray, kernel_size: int,
               stride: int | None = None) -> np.ndarray:
    """Max pooling over NCHW spatial dims (no padding; floor division)."""
    return _pool2d(x, kernel_size, stride, np.max)


def avg_pool2d(x: np.ndarray, kernel_size: int,
               stride: int | None = None) -> np.ndarray:
    """Average pooling over NCHW spatial dims."""
    return _pool2d(x, kernel_size, stride, np.mean)


def _pool2d(x: np.ndarray, kernel_size: int, stride: int | None,
            reducer) -> np.ndarray:
    windows, _ = pool_windows(x, kernel_size, stride)
    return reducer(windows, axis=(-2, -1))


def pool_windows(x: np.ndarray, kernel_size: int,
                 stride: int | None = None) -> tuple[np.ndarray, int]:
    """The pooling windows of an NCHW batch and the stride they step by.

    Returns an ``(n, c, oh, ow, kernel_size, kernel_size)`` strided view
    (no padding; floor division) and the resolved stride, which defaults
    to *kernel_size*.  A non-positive size or stride, or a window larger
    than the input, raises ``ValueError``.  Every pooling op, with or
    without autograd, builds its windows here.
    """
    x = ensure_array(x, "x", ndim=4)
    if kernel_size < 1:
        raise ValueError("kernel_size must be positive")
    stride = kernel_size if stride is None else stride
    if stride < 1:
        raise ValueError("stride must be positive")
    h, w = x.shape[2:]
    if h < kernel_size or w < kernel_size:
        raise ValueError(
            f"pool window {kernel_size} does not fit input {h}x{w}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(
        x, (kernel_size, kernel_size), axis=(2, 3)
    )[:, :, ::stride, ::stride]
    return windows, stride


def batch_norm2d(x: np.ndarray, mean: np.ndarray, var: np.ndarray,
                 gamma: np.ndarray, beta: np.ndarray,
                 eps: float = 1e-5) -> np.ndarray:
    """Inference-mode batch normalization with running statistics."""
    shape = (1, -1, 1, 1)
    scale = gamma / np.sqrt(var + eps)
    return x * scale.reshape(shape) + (
        beta - mean * scale
    ).reshape(shape)


def linear(x: np.ndarray, weight: np.ndarray,
           bias: np.ndarray | None = None) -> np.ndarray:
    """Affine map on the last axis: ``x @ weight.T + bias``."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)
